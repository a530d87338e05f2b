"""Domain-level spectral functionals and thin-strip sweeps.

``record_from_system`` ties geometry and spectrum together for one assembled
domain: x = sigma1 * perimeter, y = mu1 * area, F = y / x.  Every domain
record comes from it: through ``record_from_mesh`` for ``F_of_domain`` and each
level of ``refinement_ladder``, and directly for each strip of ``thin_sweep``.

``thin_sweep`` drives strips eps*(hplus, hminus) through decreasing eps,
rescales sigma1 by 2/eps, and extrapolates with Aitken's delta-squared.  Each
strip is the image of the strip at eps = 1 under (x, y) -> (x, eps y), which
is meshed and assembled once.  The limits are the 1D weighted eigenvalues of
h = hplus + hminus: mu1(strip) -> mu1(h), 2*sigma1(strip)/eps -> sigma1(h),
and F(strip) -> F(h).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .. import geom2d, profiles, sl1d
from ..geom2d import ConvexPolygon
from ..profiles import ProfileH
from .assemble import FEMSystem, _stretched, assemble
from .mesh import _require_positive, polygon_mesh, refine, thin_mesh
from .solve import _steklov_factor_ahead, neumann_mu1, steklov_sigma1

# the reported fields of a record, in output order (``as_dict``, the diagram CSV)
RECORD_COLUMNS = ("area", "perimeter", "diameter", "width", "inradius",
                  "mu1", "sigma1", "x", "y", "F", "dofs", "hmax")


@dataclass(frozen=True)
class DomainRecord:
    area: float
    perimeter: float
    diameter: float
    width: float
    inradius: float
    mu1: float
    sigma1: float
    x: float
    y: float
    F: float
    dofs: int
    hmax: float
    mu_residual: float
    sigma_residual: float
    mu_iterations: int           # Lanczos operator applications per solve
    sigma_iterations: int
    mu_lu_nnz: int               # entries of each solve's factor: SuperLU's L and U
                                 # nonzeros, or on a stretched strip the band array's
                                 # n (3 kl + 1)
    sigma_lu_nnz: int
    mu_shift: float              # each solve's shift; negative after a fallback
    sigma_shift: float
    warning: str | None = None

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in RECORD_COLUMNS}


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def record_from_system(system: FEMSystem, geo: geom2d.GeometryFunctionals, hmax: float,
                       warning: str | None) -> DomainRecord:
    """Record of an assembled domain with geometry ``geo``, meshed at ``hmax``
    with quality ``warning``: (mu1, sigma1, x, y, F), their residuals, the
    solvers' operator applications, their factors' fill and their shifts.

    Where the process may use at least two CPUs, a SuperLU system's Steklov
    factor step (the bound, the shift and the factor of K - sB) runs on a
    worker thread while this thread solves the Neumann pencil; SuperLU
    releases the GIL while it factors.  The worker is joined when the
    Steklov solve is done or a Neumann error is raised, so none outlives the
    record, and the record is bit for bit the one the two solves give in
    turn.  A stretched strip's banded factor holds the GIL, so strips, like
    single-CPU runs, solve both pencils on this thread alone.
    """
    if system.band is not None or _usable_cpus() < 2:
        mu = neumann_mu1(system)
        sg = steklov_sigma1(system)
    else:
        with _steklov_factor_ahead(system) as factor:
            mu = neumann_mu1(system)
            sg = steklov_sigma1(system, _factor=factor)
    x = sg.eigenvalue * geo.perimeter
    y = mu.eigenvalue * geo.area
    return DomainRecord(
        area=geo.area, perimeter=geo.perimeter, diameter=geo.diameter,
        width=geo.width, inradius=geo.inradius,
        mu1=mu.eigenvalue, sigma1=sg.eigenvalue, x=x, y=y, F=y / x,
        dofs=system.n_dofs, hmax=hmax,
        mu_residual=mu.residual, sigma_residual=sg.residual,
        mu_iterations=mu.iterations, sigma_iterations=sg.iterations,
        mu_lu_nnz=mu.lu_nnz, sigma_lu_nnz=sg.lu_nnz,
        mu_shift=mu.shift, sigma_shift=sg.shift, warning=warning)


def record_from_mesh(mesh, geo: geom2d.GeometryFunctionals) -> DomainRecord:
    return record_from_system(assemble(mesh), geo, mesh.hmax(), mesh.quality_warning)


def F_of_domain(poly: ConvexPolygon, hmax: float = 0.03) -> DomainRecord:
    geo = geom2d.functionals(poly)
    return record_from_mesh(polygon_mesh(poly, hmax), geo)


def refinement_ladder(mesh, geo: geom2d.GeometryFunctionals, levels: int):
    """Records of ``mesh`` and of its ``levels - 1`` uniform refinements, and
    the observed orders {"mu1": ..., "sigma1": ...} of the last three levels,
    log2(d1/d2) over successive differences, kept only where d1/d2 > 0."""
    if levels < 1:
        raise ValueError("levels must be at least 1")
    records = [record_from_mesh(mesh, geo)]
    for _ in range(levels - 1):
        mesh = refine(mesh)
        records.append(record_from_mesh(mesh, geo))
    rates = {}
    if levels >= 3:
        for key in ("mu1", "sigma1"):
            a, b, c = (getattr(r, key) for r in records[-3:])
            d1, d2 = b - a, c - b
            if d2 != 0.0 and d1 / d2 > 0.0:
                rates[key] = math.log2(d1 / d2)
    return tuple(records), rates


def aitken(values) -> float:
    """Delta-squared limit from the last three terms (falls back to the last)."""
    a, b, c = (float(v) for v in values[-3:])
    denom = c - 2.0 * b + a
    if denom == 0.0 or abs(denom) < 1e-14 * max(abs(a), abs(b), abs(c)):
        return c
    return c - (c - b) ** 2 / denom


@dataclass(frozen=True)
class ThinSweep:
    eps: tuple
    mu1: tuple
    sigma1_rescaled: tuple       # 2 sigma1 / eps
    F: tuple
    mu1_extrapolated: float
    sigma1_rescaled_extrapolated: float
    F_extrapolated: float
    mu1_limit: float
    sigma1_limit: float
    F_limit: float

    def relative_gaps(self) -> dict:
        return {
            "mu1": abs(self.mu1_extrapolated - self.mu1_limit) / abs(self.mu1_limit),
            "sigma1": abs(self.sigma1_rescaled_extrapolated - self.sigma1_limit)
                      / abs(self.sigma1_limit),
            "F": abs(self.F_extrapolated - self.F_limit) / abs(self.F_limit),
        }


def thin_sweep(hplus: ProfileH, hminus: ProfileH, eps_list,
               dx0: float = 0.005, elements_1d: int = 2048) -> ThinSweep:
    """Records of the strips -eps hminus <= y <= eps hplus for the decreasing
    ``eps_list`` (at least three values, each finite and positive), their
    Aitken limits, and the 1D limits of hplus + hminus with ``elements_1d``
    elements.  The eps values and ``elements_1d`` are checked before any
    strip is meshed; the 1D limits are computed after the strips.  The unit
    strip is meshed once with column step ``dx0`` and stretched to each eps;
    each strip's geometry is that of ``geom2d.thin_domain``."""
    eps_arr = tuple(float(e) for e in eps_list)
    if len(eps_arr) < 3 or any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ValueError("need a decreasing list of at least three eps values")
    for eps in eps_arr:
        _require_positive(eps=eps)
    sl1d._richardson_grids(elements_1d)
    rows = []
    for eps, (mesh, system) in zip(eps_arr, _stretched(thin_mesh(hplus, hminus, dx0), eps_arr)):
        geo = geom2d.functionals(geom2d.thin_domain(hplus, hminus, eps))
        rec = record_from_system(system, geo, mesh.hmax(), mesh.quality_warning)
        rows.append((rec.mu1, 2.0 * rec.sigma1 / eps, rec.F))
    mu_lim, sg_lim, f_lim = sl1d.extrapolated_limits(profiles.add(hplus, hminus),
                                                     elements_1d)
    mu_seq, scaled_seq, f_seq = zip(*rows)
    return ThinSweep(
        eps=eps_arr, mu1=mu_seq, sigma1_rescaled=scaled_seq, F=f_seq,
        mu1_extrapolated=aitken(mu_seq),
        sigma1_rescaled_extrapolated=aitken(scaled_seq),
        F_extrapolated=aitken(f_seq),
        mu1_limit=mu_lim, sigma1_limit=sg_lim, F_limit=f_lim)
