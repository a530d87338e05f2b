"""Command-line entry point: one multiplexer over the package's computations.

Every subcommand prints a reproducibility stanza (version, seed, parameters),
formats numbers to 12 significant digits, and supports ``--json`` for a
schema-stable payload {version, command, seed, parameters, results}.  Exit
codes: 0 success, 1 usage error, 2 computation failure.  ``--threads``
affects diagram campaign parallelism only; the environment variable
``SNLAB_OUTPUT_DIR`` sets the default directory for emitted files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, bessel, bounds, diagram, geom2d, profiles, sl1d, variations
from . import fem2d

OUTPUT_DIR_ENV = "SNLAB_OUTPUT_DIR"


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _render(obj, indent: int = 0) -> list:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines += _render(v, indent + 1)
            else:
                lines.append(f"{pad}{k} = {_fmt(v) if not isinstance(v, (dict, list)) else v}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines += _render(item, indent + 1)
            else:
                lines.append(f"{pad}- {_fmt(item)}")
    else:
        lines.append(f"{pad}{_fmt(obj)}")
    return lines


def _out_path(given: str | None, default_name: str) -> str:
    if given:
        return given
    return os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), default_name)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (parameters, results)


def _cmd_f1d(args):
    h = profiles.resolve(args.profile)
    grids = sl1d._grids(h, args.elements)          # the first grid is --elements itself
    rec = sl1d.f_record(h, args.elements, pencils=grids[0][1])
    results = {k: v for k, v in rec.items() if k != "elements"}
    results["mu1_extrapolated"] = sl1d.mu1_extrapolated(h, args.elements, grids=grids)
    results["sigma1_extrapolated"] = sl1d.sigma1_extrapolated(h, args.elements, grids=grids)
    results["F_extrapolated"] = (results["mu1_extrapolated"] * h.integral()
                                 / results["sigma1_extrapolated"])
    if args.oracle:
        oracle = sl1d.sigma1_kernel_oracle(h)
        results["sigma1_kernel_oracle"] = oracle
        results["oracle_gap"] = abs(results["sigma1_extrapolated"] - oracle)
    params = {"profile": args.profile, "elements": args.elements, "oracle": args.oracle}
    return params, results


def _cmd_triangle_ratio(args):
    x0 = args.x0
    if not 0.0 < x0 < 1.0:
        raise ValueError("x0 must lie strictly between 0 and 1")
    sg = bessel.sigma1_tent(x0).value
    mu = bessel.mu1_tent(x0).value
    results = {
        "x0": x0,
        "sigma1_tent": sg,
        "mu1_tent": mu,
        "ratio": mu / sg,
        "ratio_minus_4": mu / sg - 4.0,
        "F_tent": 0.5 * mu / sg,
    }
    return {"x0": x0}, results


def _cmd_bounds(args):
    K, tau_star = bounds.constant_K(args.grid)
    results = {
        "K": K,
        "tau_star": tau_star,
        "upper_bound_2(1+K)": 2.0 * (1.0 + K),
        "lower_bound_constant": bounds.lower_bound_constant(),
    }
    if args.csv is not None:
        path = _out_path(args.csv, "bounds-grid.csv")
        taus = np.linspace(0.0, 1.0, args.grid + 2)[1:-1]  # tau strictly inside (0, 1)
        rows = ["tau,g,f"]
        rows += [f"{t!r},{bounds.g_of_tau(t)!r},{bounds.f_of_tau(t)!r}" for t in taus]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        results["csv"] = path
    return {"grid": args.grid}, results


def _cmd_geom(args):
    poly = geom2d.resolve(args.shape)
    g = geom2d.functionals(poly)
    results = {
        "vertices": len(poly.vertices),
        "area": g.area, "perimeter": g.perimeter, "diameter": g.diameter,
        "width": g.width, "inradius": g.inradius,
        "per_domain_upper_bound": bounds.per_domain_upper_bound(
            g.width, g.diameter, g.inradius, g.perimeter),
    }
    return {"shape": args.shape}, results


def _cmd_fem(args):
    poly = geom2d.resolve(args.shape)
    g = geom2d.functionals(poly)
    records, rates = fem2d.refinement_ladder(fem2d.polygon_mesh(poly, args.hmax), g,
                                             args.levels)
    levels = [{k: getattr(rec, k)
               for k in ("hmax", "dofs", "mu1", "sigma1", "x", "y", "F",
                         "mu_residual", "sigma_residual",
                         "mu_iterations", "sigma_iterations", "mu_lu_nnz",
                         "sigma_lu_nnz", "mu_shift", "sigma_shift")} for rec in records]
    results = {"area": g.area, "perimeter": g.perimeter, "levels": levels}
    results.update({f"{key}_observed_rate": rate for key, rate in rates.items()})
    final = levels[-1]
    results.update({k: final[k] for k in ("mu1", "sigma1", "x", "y", "F")})
    params = {"shape": args.shape, "hmax": args.hmax, "levels": args.levels}
    return params, results


def _cmd_thin(args):
    eps_list = [float(t) for t in args.eps.split(",") if t]
    h = profiles.resolve(args.profile)
    half = profiles.scale(h, 0.5)      # symmetric split across the segment
    sweep = fem2d.thin_sweep(half, half, eps_list, dx0=args.dx0)
    results = {
        "eps": list(sweep.eps),
        "mu1": list(sweep.mu1),
        "sigma1_rescaled": list(sweep.sigma1_rescaled),
        "F": list(sweep.F),
        "mu1_extrapolated": sweep.mu1_extrapolated,
        "sigma1_rescaled_extrapolated": sweep.sigma1_rescaled_extrapolated,
        "F_extrapolated": sweep.F_extrapolated,
        "mu1_limit": sweep.mu1_limit,
        "sigma1_limit": sweep.sigma1_limit,
        "F_limit": sweep.F_limit,
        "relative_gaps": sweep.relative_gaps(),
    }
    params = {"profile": args.profile, "eps": args.eps, "dx0": args.dx0}
    return params, results


def _cmd_variation_check(args):
    elements = args.elements
    rng = np.random.default_rng(args.seed)
    directions = [("const", variations.linear_direction(0.0, 1.0)),
                  ("x", variations.linear_direction(1.0)),
                  ("cos(2 pi x)", variations.cosine_direction())]
    directions += [(f"random-{k}", profiles.random_profile(rng))
                   for k in range(5 if args.all else 2)]
    reports = [asdict(r) for label, phi in directions
               for r in variations.first_variations(phi, elements, label).values()]
    flat = variations.first_variations(
        variations.linear_direction(0.7, 0.3), elements, "0.3 + 0.7 x")["F"]
    second = [asdict(r) for r in variations.second_variations_linear(1.0, elements).values()]
    results = {
        "first_variations": reports,
        "flat_direction": asdict(flat),
        "second_variations": second,
        "eigenfunction_residuals": variations.eigenfunction_derivative_residuals(),
        "second_variation_quadrature": variations.second_variation_quadrature_check(),
        "max_first_relative_error": max(r["relative_error"] for r in reports
                                        if abs(r["analytic"]) > 1e-9),
        "max_second_relative_error": max(r["relative_error"] for r in second),
    }
    params = {"all": args.all, "elements": elements, "seed": args.seed}
    return params, results


def _cmd_optimize_h(args):
    res = variations.optimize_F(knots=args.knots, mode=args.mode,
                                restarts=args.restarts, seed=args.seed,
                                elements=args.elements)
    results = {
        "mode": res.mode,
        "value": res.value,
        "evaluations": res.evaluations,
        "trace_length": len(res.trace),
        "knots": list(map(float, res.profile.knots)),
        "values": list(map(float, res.profile.values)),
    }
    params = {"mode": args.mode, "knots": args.knots, "restarts": args.restarts,
              "seed": args.seed, "elements": args.elements}
    return params, results


def _cmd_diagram(args):
    csv_path = _out_path(args.csv, f"diagram-{args.family}-{args.seed}.csv")
    svg_path = _out_path(args.svg, f"diagram-{args.family}-{args.seed}.svg")
    campaign = diagram.Campaign(family=args.family, n=args.n, seed=args.seed,
                                hmax=args.hmax, csv_path=csv_path, svg_path=svg_path)
    result = diagram.run_campaign(campaign, threads=args.threads)
    results = result.summary()
    results["csv"] = csv_path
    results["svg"] = svg_path
    params = {"family": args.family, "n": args.n, "seed": args.seed,
              "hmax": args.hmax, "threads": args.threads}
    return params, results


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="snlab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"snlab {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true",
                       help="emit a JSON payload instead of text")
        return p

    p = add("f1d", _cmd_f1d, "1D eigenvalues and F for a thickness profile")
    p.add_argument("--profile", required=True,
                   help="const | parabolic | tent:<x0> | path to a saved profile")
    p.add_argument("--elements", type=int, default=2048)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check sigma1 against the integral-kernel oracle")

    p = add("triangle-ratio", _cmd_triangle_ratio,
            "Bessel closed forms for tent profiles and the exact ratio 4")
    p.add_argument("--x0", type=float, required=True)

    p = add("bounds", _cmd_bounds, "uniform bound constants for F on convex domains")
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--csv", nargs="?", const="", default=None,
                   help="write the tau-grid table (optional path)")

    p = add("geom", _cmd_geom, "geometric functionals of a convex polygon")
    p.add_argument("--shape", required=True,
                   help="T1 | T2 | square | disk[:n] | rectangle:L:W | JSON file")

    p = add("fem", _cmd_fem, "2D eigenvalues on a polygon, optionally over refinements")
    p.add_argument("--shape", required=True)
    p.add_argument("--hmax", type=float, default=0.03)
    p.add_argument("--levels", type=int, default=1)

    p = add("thin", _cmd_thin, "collapsing-domain sweep against the 1D limits")
    p.add_argument("--profile", required=True)
    p.add_argument("--eps", default="0.2,0.1,0.05", help="comma-separated thicknesses")
    p.add_argument("--dx0", type=float, default=0.005)

    p = add("variation-check", _cmd_variation_check,
            "finite-difference validation of the variation formulas at h = 1")
    p.add_argument("--all", action="store_true", help="more random directions")
    p.add_argument("--elements", type=int, default=2048)
    p.add_argument("--seed", type=int, default=0)

    p = add("optimize-h", _cmd_optimize_h, "local pattern-search optimization of F")
    p.add_argument("--mode", choices=("min", "max"), default="min")
    p.add_argument("--knots", type=int, default=21)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--elements", type=int, default=512)

    p = add("diagram", _cmd_diagram, "sample a domain family and emit CSV/SVG")
    p.add_argument("--family", choices=diagram.FAMILIES, default="randomPolygon")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--hmax", type=float, default=0.03)
    p.add_argument("--csv", default=None)
    p.add_argument("--svg", default=None)
    p.add_argument("--threads", type=int, default=1,
                   help="campaign parallelism (everything else is serial)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        for name, floor in (("threads", 1), ("levels", 1), ("restarts", 1), ("n", 0)):
            if getattr(args, name, floor) < floor:
                parser.error(f"--{name} must be at least {floor}")
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "handler", None) is None:
        parser.print_help()
        return 1
    try:
        params, results = args.handler(args)
    except Exception as exc:
        print(f"snlab: computation failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    seed = params.get("seed")
    if getattr(args, "json", False):
        payload = {"version": __version__, "command": args.command,
                   "seed": seed, "parameters": params, "results": results}
        print(json.dumps(payload, indent=2, default=float))
    else:
        stanza = " ".join(f"{k}={v}" for k, v in params.items())
        print(f"snlab {__version__} | {args.command} | seed={seed} | {stanza}")
        print("\n".join(_render(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
