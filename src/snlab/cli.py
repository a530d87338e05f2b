"""Command-line entry point: one multiplexer over the package's computations.

Every subcommand prints a reproducibility stanza (version, seed, parameters),
formats numbers to 12 significant digits, and supports ``--json`` for a
schema-stable payload {version, command, seed, parameters, results}.  The
parameters are every option the parser set, in its order; each handler
returns only its results, taken from the library's records.  Exit codes: 0
success, 1 usage error, 2 computation failure.  ``--threads`` affects diagram
campaign parallelism only.  The CLI writes the emitted files; the environment
variable ``SNLAB_OUTPUT_DIR`` sets their default directory.
"""

from __future__ import annotations

import argparse
import json
import math
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


def _checked(name: str, rule: str, ok, convert=float):
    """``type=`` for ``--name``: ``convert(text)``, a subcommand usage error
    unless ``ok`` holds for it."""
    def number(text: str):
        if not ok(convert(text)):
            raise argparse.ArgumentError(None, f"--{name} must {rule}")
        return convert(text)
    return number


def _at_least(name: str, floor: int):
    return _checked(name, f"be at least {floor}", lambda v: v >= floor, int)


def _positive(name: str):   # nan and inf fail the comparison
    return _checked(name, "be finite and positive", lambda v: 0.0 < v < math.inf)


def _eps_values(text: str) -> list:
    return [float(t) for t in text.split(",") if t]


def _eps_decreasing(text: str) -> bool:   # nan and inf fail here too
    eps = _eps_values(text)
    return len(eps) >= 3 and all(0.0 < b < a < math.inf for a, b in zip(eps, eps[1:]))


def _fmt(v) -> str:
    return f"{v:.12g}" if isinstance(v, float) else str(v)


def _render(obj, indent: int = 0) -> list:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list, tuple)) and v:
                lines.append(f"{pad}{k}:")
                lines += _render(v, indent + 1)
            else:
                lines.append(f"{pad}{k} = {_fmt(v) if not isinstance(v, (dict, list)) else v}")
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            if isinstance(item, (dict, list, tuple)):
                lines.append(f"{pad}-")
                lines += _render(item, indent + 1)
            else:
                lines.append(f"{pad}- {_fmt(item)}")
    else:
        lines.append(f"{pad}{_fmt(obj)}")
    return lines


def _out_path(given: str | None, default_name: str) -> str:
    return given or os.path.join(os.environ.get(OUTPUT_DIR_ENV, "."), default_name)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its results


def _cmd_f1d(args):
    h = profiles.resolve(args.profile)
    results = sl1d.f_record(h, args.elements)
    mu, sg, F = sl1d.extrapolated_limits(h, args.elements)
    results.update(mu1_extrapolated=mu, sigma1_extrapolated=sg, F_extrapolated=F)
    if args.oracle:
        oracle = sl1d.sigma1_kernel_oracle(h)
        results["sigma1_kernel_oracle"] = oracle
        results["oracle_gap"] = abs(results["sigma1_extrapolated"] - oracle)
    return results


def _cmd_triangle_ratio(args):
    sg = bessel.sigma1_tent(args.x0).value
    mu = bessel.mu1_tent(args.x0).value
    return {
        "x0": args.x0,
        "sigma1_tent": sg,
        "mu1_tent": mu,
        "ratio": mu / sg,
        "ratio_minus_4": mu / sg - 4.0,
        "F_tent": 0.5 * mu / sg,
    }


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
        rows = ["tau,g,f"]
        rows += [",".join(repr(float(v)) for v in (t, bounds.g_of_tau(t), bounds.f_of_tau(t)))
                 for t in bounds.tau_grid(args.grid)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        results["csv"] = path
    return results


def _cmd_geom(args):
    poly = geom2d.resolve(args.shape)
    g = geom2d.functionals(poly)
    return {"vertices": len(poly.vertices), **asdict(g),
            "per_domain_upper_bound": bounds.per_domain_upper_bound(
                g.width, g.diameter, g.inradius, g.perimeter)}


def _cmd_fem(args):
    poly = geom2d.resolve(args.shape)
    g = geom2d.functionals(poly)
    records, rates = fem2d.refinement_ladder(fem2d.polygon_mesh(poly, args.hmax), g,
                                             args.levels)
    levels = [{k: getattr(rec, k)
               for k in ("hmax", "dofs", "mu1", "sigma1", "x", "y", "F",
                         "mu_residual", "sigma_residual", "mu_iterations",
                         "sigma_iterations", "mu_lu_nnz", "sigma_lu_nnz",
                         "mu_shift", "sigma_shift", "warning")} for rec in records]
    results = {"area": g.area, "perimeter": g.perimeter, "levels": levels}
    results.update({f"{key}_observed_rate": rate for key, rate in rates.items()})
    final = levels[-1]
    results.update({k: final[k] for k in ("mu1", "sigma1", "x", "y", "F")})
    return results


def _cmd_thin(args):
    h = profiles.resolve(args.profile)
    half = profiles.scale(h, 0.5)      # symmetric split across the segment
    sweep = fem2d.thin_sweep(half, half, _eps_values(args.eps), dx0=args.dx0)
    return {**asdict(sweep), "relative_gaps": sweep.relative_gaps()}


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
    return {
        "first_variations": reports,
        "flat_direction": asdict(flat),
        "second_variations": second,
        "eigenfunction_residuals": variations.eigenfunction_derivative_residuals(),
        "second_variation_quadrature": variations.second_variation_quadrature_check(),
        "max_first_relative_error": max(r["relative_error"] for r in reports
                                        if abs(r["analytic"]) > 1e-9),
        "max_second_relative_error": max(r["relative_error"] for r in second),
    }


def _cmd_optimize_h(args):
    res = variations.optimize_F(knots=args.knots, mode=args.mode,
                                restarts=args.restarts, seed=args.seed,
                                elements=args.elements)
    return {
        "mode": res.mode,
        "value": res.value,
        "evaluations": res.evaluations,
        "trace_length": len(res.trace),
        "knots": list(map(float, res.profile.knots)),
        "values": list(map(float, res.profile.values)),
    }


def _cmd_diagram(args):
    campaign = diagram.Campaign(family=args.family, n=args.n, seed=args.seed, hmax=args.hmax)
    result = diagram.run_campaign(campaign, threads=args.threads)
    paths = {ext: _out_path(getattr(args, ext), f"diagram-{args.family}-{args.seed}.{ext}")
             for ext in ("csv", "svg")}
    diagram.emit_csv(result.points, paths["csv"], metadata=diagram.campaign_metadata(result))
    diagram.emit_svg_scatter(result.points, paths["svg"])
    return {**result.summary(), **paths}


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
    # the Richardson grids halve it twice, to at least 8 elements
    p.add_argument("--elements", type=_at_least("elements", 32), default=2048)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check sigma1 against the integral-kernel oracle")

    p = add("triangle-ratio", _cmd_triangle_ratio,
            "Bessel closed forms for tent profiles and the exact ratio 4")
    p.add_argument("--x0", required=True, type=_checked(
        "x0", "lie strictly between 0 and 1", lambda v: 0.0 < v < 1.0))

    p = add("bounds", _cmd_bounds, "uniform bound constants for F on convex domains")
    p.add_argument("--grid", type=_at_least("grid", 1), default=1000)
    p.add_argument("--csv", nargs="?", const="", default=None,
                   help="write the tau-grid table (optional path)")

    p = add("geom", _cmd_geom, "geometric functionals of a convex polygon")
    p.add_argument("--shape", required=True,
                   help="T1 | T2 | square | disk[:n] | rectangle:L:W | JSON file")

    p = add("fem", _cmd_fem, "2D eigenvalues on a polygon, optionally over refinements")
    p.add_argument("--shape", required=True)
    p.add_argument("--hmax", type=_positive("hmax"), default=0.03)
    p.add_argument("--levels", type=_at_least("levels", 1), default=1)

    p = add("thin", _cmd_thin, "collapsing-domain sweep against the 1D limits")
    p.add_argument("--profile", required=True)
    p.add_argument("--eps", default="0.2,0.1,0.05", help="comma-separated thicknesses",
                   type=_checked("eps", "list at least three finite positive values, "
                                 "strictly decreasing", _eps_decreasing, str))
    p.add_argument("--dx0", type=_positive("dx0"), default=0.005)

    p = add("variation-check", _cmd_variation_check,
            "finite-difference validation of the variation formulas at h = 1")
    p.add_argument("--all", action="store_true", help="more random directions")
    p.add_argument("--elements", type=_at_least("elements", 8), default=2048)
    p.add_argument("--seed", type=int, default=0)

    p = add("optimize-h", _cmd_optimize_h, "local pattern-search optimization of F")
    p.add_argument("--mode", choices=("min", "max"), default="min")
    p.add_argument("--knots", type=_at_least("knots", 5), default=21)
    p.add_argument("--restarts", type=_at_least("restarts", 1), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--elements", type=_at_least("elements", 8), default=512)

    p = add("diagram", _cmd_diagram, "sample a domain family and emit CSV/SVG")
    p.add_argument("--family", choices=diagram.FAMILIES, default="randomPolygon")
    p.add_argument("--n", type=_at_least("n", 0), default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--hmax", type=_positive("hmax"), default=0.03)
    p.add_argument("--csv", default=None)
    p.add_argument("--svg", default=None)
    p.add_argument("--threads", type=_at_least("threads", 1), default=1,
                   help="campaign parallelism (everything else is serial)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "handler", None) is None:
        parser.print_help()
        return 1
    try:
        results = args.handler(args)
    except Exception as exc:
        print(f"snlab: computation failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "json", "handler") and v is not None}
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
