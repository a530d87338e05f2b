"""Spans around the public functions of each snlab layer, recorded from outside.

A :class:`Tracer` replaces each traced function with a timing wrapper at every
place the function is looked up: the defining module, every snlab module that
imported it by name (``snlab.fem2d.functional.polygon_mesh``,
``snlab.diagram.F_of_domain``, the ``snlab.fem2d`` re-exports) and, for
methods, the class.  The program itself is not edited.

Each call records one span: name, start, duration and parent span.  A span's
self time is its duration minus the time its child spans cover; the calls of
one thread nest, so the children's durations sum to that cover.  Value hooks
(mesh sizes, residuals, iteration counts) run after the span has ended and
their time is charged to no span, so they do not inflate self times.

Errors of the snlab layers (``MeshError``, ``FEMError``, ``SolverError``,
``GeometryError``, ``ProfileError``) are counted against the layer of the
innermost span they pass through, which is the layer that raised them.
"""

from __future__ import annotations

import importlib
import sys
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# (span name, layer, defining module, attribute; "Class.method" for methods)
TARGETS = (
    ("geom2d.functionals", "geom2d", "snlab.geom2d", "functionals"),
    ("fem2d.polygon_mesh", "fem2d.mesh", "snlab.fem2d.mesh", "polygon_mesh"),
    ("fem2d.thin_mesh", "fem2d.mesh", "snlab.fem2d.mesh", "thin_mesh"),
    ("fem2d.assemble", "fem2d.assemble", "snlab.fem2d.assemble", "assemble"),
    ("fem2d.neumann_mu1", "fem2d.solve", "snlab.fem2d.solve", "neumann_mu1"),
    ("fem2d.steklov_sigma1", "fem2d.solve", "snlab.fem2d.solve", "steklov_sigma1"),
    ("fem2d.F_of_domain", "fem2d.functional", "snlab.fem2d.functional", "F_of_domain"),
    ("fem2d.thin_sweep", "fem2d.functional", "snlab.fem2d.functional", "thin_sweep"),
    ("sl1d.F_of_h", "sl1d", "snlab.sl1d", "F_of_h"),
    ("sl1d.mu1", "sl1d", "snlab.sl1d", "mu1"),
    ("sl1d.sigma1", "sl1d", "snlab.sl1d", "sigma1"),
    ("sl1d.mu1_extrapolated", "sl1d", "snlab.sl1d", "mu1_extrapolated"),
    ("sl1d.sigma1_extrapolated", "sl1d", "snlab.sl1d", "sigma1_extrapolated"),
    ("profiles.random_profile", "profiles", "snlab.profiles", "random_profile"),
    ("diagram.run_campaign", "diagram", "snlab.diagram", "run_campaign"),
    ("diagram.summary", "diagram", "snlab.diagram", "CampaignResult.summary"),
    ("diagram.conjecture_report", "diagram", "snlab.diagram", "conjecture_report"),
    ("diagram.hard_bound_report", "diagram", "snlab.diagram", "hard_bound_report"),
    ("bounds.upper_bound_constant", "bounds", "snlab.bounds", "upper_bound_constant"),
)
SPANS = tuple(t[0] for t in TARGETS)
LAYERS = ("geom2d", "fem2d.mesh", "fem2d.assemble", "fem2d.solve",
          "fem2d.functional", "sl1d", "profiles", "diagram", "bounds")

# per-layer value metrics: name -> unit
VALUE_UNITS = {
    "steklov.residual_max": "ratio",
    "steklov.py_peak_mb": "MB",
    "neumann.residual_max": "ratio",
    "mesh.nodes": "count",
    "mesh.triangles": "count",
    "mesh.min_angle_deg": "deg",
    "mesh.quality_warnings": "count",
    "assemble.dofs": "count",
    "assemble.boundary_dofs": "count",
    "assemble.boundary_share": "ratio",
    "assemble.nnz_K": "count",
    "sl1d.mu1.iterations_mean": "count",
    "sl1d.sigma1.iterations_mean": "count",
}


def metric_units() -> dict:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for span in SPANS:
        units[f"{span}.self_p50_ms"] = "ms"
        units[f"{span}.self_p90_ms"] = "ms"
        units[f"{span}.calls"] = "count"
    units.update(VALUE_UNITS)
    units.update({f"{layer}.failed": "count" for layer in LAYERS})
    units["trace.overhead_frac"] = "ratio"
    units["trace.unaccounted_frac"] = "ratio"
    units["host.burst_ms"] = "ms"
    return units


@dataclass
class _Open:
    index: int           # position in Tracer.spans
    parent: int          # index of the parent span, -1 for a root span
    covered: float = 0.0  # child durations plus hook time inside this span


@dataclass
class Tracer:
    """Installs the wrappers; collects spans, layer failures and hook values.

    Hooks record values only while ``values_enabled`` is set, so a workload
    can take its count metrics from one fixed round.
    """

    values_enabled: bool = True
    spans: list = field(default_factory=list)      # (name, parent, start, dur, self)
    hook_s: float = 0.0
    failed: dict = field(default_factory=lambda: dict.fromkeys(LAYERS, 0))
    values: dict = field(default_factory=dict)     # key -> list of floats
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)   # (owner, attr, original)

    def install(self) -> None:
        from snlab import fem2d, geom2d, profiles, sl1d
        errors = (fem2d.MeshError, fem2d.FEMError, sl1d.SolverError,
                  geom2d.GeometryError, profiles.ProfileError)
        for _, _, modname, _ in TARGETS:
            importlib.import_module(modname)
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "snlab" or n.startswith("snlab.")) and m is not None]
        for name, layer, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, layer, cls.__dict__[meth], errors))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, layer, original, errors)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, layer, fn, errors):
        hook = _HOOKS.get(name)
        peak_memory = name == "fem2d.steklov_sigma1"
        stack, spans = self._stack, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = _Open(len(spans), parent.index if parent else -1)
            spans.append(None)
            stack.append(span)
            if peak_memory:
                tracemalloc.start()
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except errors as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    self.failed[layer] += 1
                    exc._perfbench_counted = True
                raise
            finally:
                dur = perf_counter() - start
                if peak_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
                spans[span.index] = (name, span.parent, start, dur, dur - span.covered)
                if parent is not None:
                    parent.covered += dur
            if self.values_enabled:
                t0 = perf_counter()
                if peak_memory:
                    self._add("steklov.py_peak_mb", peak / 2 ** 20)
                if hook is not None:
                    hook(self, out)
                spent = perf_counter() - t0
                self.hook_s += spent
                if parent is not None:
                    parent.covered += spent
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _add(self, key: str, value: float) -> None:
        self.values.setdefault(key, []).append(float(value))

    def self_time_s(self) -> float:
        return sum(s[4] for s in self.spans)

    def fired(self) -> set:
        return {s[0] for s in self.spans}

    def metrics(self) -> dict:
        """Per-layer figures: self-time percentiles, call counts, hook values."""
        by_name = {}
        for s in self.spans:
            by_name.setdefault(s[0], []).append(s[4])
        out = {}
        for span in SPANS:
            selfs = np.array(by_name.get(span, ()), dtype=float) * 1e3
            out[f"{span}.self_p50_ms"] = float(np.percentile(selfs, 50)) if selfs.size else 0.0
            out[f"{span}.self_p90_ms"] = float(np.percentile(selfs, 90)) if selfs.size else 0.0
            out[f"{span}.calls"] = int(selfs.size)
        v = self.values

        def agg(key, fn):
            return float(fn(v[key])) if v.get(key) else 0.0

        out["steklov.residual_max"] = agg("steklov.residual", max)
        out["steklov.py_peak_mb"] = agg("steklov.py_peak_mb", max)
        out["neumann.residual_max"] = agg("neumann.residual", max)
        out["mesh.nodes"] = agg("mesh.nodes", np.mean)
        out["mesh.triangles"] = agg("mesh.triangles", np.mean)
        out["mesh.min_angle_deg"] = agg("mesh.min_angle_deg", min)
        out["mesh.quality_warnings"] = agg("mesh.quality_warning", sum)
        out["assemble.dofs"] = agg("assemble.dofs", np.mean)
        out["assemble.boundary_dofs"] = agg("assemble.boundary_dofs", np.mean)
        out["assemble.boundary_share"] = (
            out["assemble.boundary_dofs"] / out["assemble.dofs"] if out["assemble.dofs"] else 0.0)
        out["assemble.nnz_K"] = agg("assemble.nnz_K", np.mean)
        out["sl1d.mu1.iterations_mean"] = agg("sl1d.mu1.iterations", np.mean)
        out["sl1d.sigma1.iterations_mean"] = agg("sl1d.sigma1.iterations", np.mean)
        for layer in LAYERS:
            out[f"{layer}.failed"] = int(self.failed[layer])
        return out


def _mesh_hook(tr: Tracer, mesh) -> None:
    tr._add("mesh.nodes", mesh.n_nodes)
    tr._add("mesh.triangles", mesh.n_triangles)
    tr._add("mesh.min_angle_deg", mesh.min_angle_deg())
    tr._add("mesh.quality_warning", mesh.quality_warning is not None)


def _assemble_hook(tr: Tracer, system) -> None:
    tr._add("assemble.dofs", system.n_dofs)
    tr._add("assemble.boundary_dofs", system.boundary_dofs.size)
    tr._add("assemble.nnz_K", system.K.nnz)


_HOOKS = {
    "fem2d.polygon_mesh": _mesh_hook,
    "fem2d.assemble": _assemble_hook,
    "fem2d.neumann_mu1": lambda tr, pair: tr._add("neumann.residual", pair.residual),
    "fem2d.steklov_sigma1": lambda tr, pair: tr._add("steklov.residual", pair.residual),
    "sl1d.mu1": lambda tr, res: tr._add("sl1d.mu1.iterations", res.iterations),
    "sl1d.sigma1": lambda tr, res: tr._add("sl1d.sigma1.iterations", res.iterations),
}
