"""Scatter campaigns for the normalized eigenvalue diagram on convex domains.

Each sample is a convex polygon; the coordinates are x = sigma1 * perimeter
and y = mu1 * area, so the band between the reference lines y = x and y = 2x
is exactly the conjectured range 1 <= F <= 2 of the ratio F = y / x.  The
module samples domain families, evaluates every sample with the P2 solver,
and emits CSV tables and a dependency-free SVG scatter plot.

Conjecture checks (1 <= F <= 2, rectangles minimizing y at fixed x) are
reported, never asserted: candidates are flagged in the CSV metadata and the
summary, and a campaign still succeeds when it finds them.  Hard violations
of the proved inequalities (the uniform band for F, the per-domain upper
bound, the lower bound mu1 * D^2 >= pi^2, and the enclosing rectangle
x <= 8 pi, y <= pi * j'_11^2) are counted separately in the summary; those
counts are legitimate test targets.  Samples whose mesh carries a quality
warning are named in the CSV metadata and the summary.

The families come from one table, ``_FAMILIES``, of generators and CSV
notes; the random ones draw through ``geom2d.random_hull``.  Each sample
draws from its own integer seed, derived from the campaign seed, so any row
can be regenerated in isolation, and campaigns are deterministic for fixed
(family, n, seed, hmax) however many workers evaluate them.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import bessel, bounds, geom2d, profiles
from .fem2d import F_of_domain
from .fem2d.functional import RECORD_COLUMNS, DomainRecord
from .geom2d import ConvexPolygon

CSV_COLUMNS = ("id", "family", "seed") + RECORD_COLUMNS
CSV_HEADER = ",".join(CSV_COLUMNS)

X_LIMIT = 8.0 * math.pi
Y_LIMIT = math.pi * bessel.j1prime_first_zero() ** 2

_NAMED_SPECS = ("T1", "T2", "square", "disk:256", "rectangle:2:1", "rectangle:4:1")
_TRIANGLE_MIN_ANGLE_DEG = 5.0    # keeps meshes of triangles at the campaign hmax in quality
_X_BINS = 12                     # fixed-x bins of the rectangle report


class CampaignFailure(RuntimeError):
    """No sample of a campaign could be evaluated."""


@dataclass(frozen=True)
class DiagramPoint:
    id: str
    family: str
    seed: int
    record: DomainRecord

    def __post_init__(self):
        r = self.record
        if not (r.x > 0.0 and r.y > 0.0):
            raise ValueError("diagram coordinates must be positive")
        if abs(r.F - r.y / r.x) > 1e-12 * max(1.0, abs(r.F)):
            raise ValueError("F must equal y / x")

    @property
    def x(self) -> float:
        return self.record.x

    @property
    def y(self) -> float:
        return self.record.y

    @property
    def F(self) -> float:
        return self.record.F

    @property
    def conjecture_candidate(self) -> bool:
        """Outside the conjectured band 1 <= F <= 2 (reported, never asserted)."""
        return self.record.F < 1.0 or self.record.F > 2.0

    def per_domain_bound(self) -> float:
        r = self.record
        return bounds.per_domain_upper_bound(r.width, r.diameter, r.inradius,
                                             r.perimeter)

    def as_row(self) -> str:
        vals = [self.id, self.family, str(self.seed)]
        vals += [str(int(v)) if k == "dofs" else repr(float(v))
                 for k, v in self.record.as_dict().items()]
        return ",".join(vals)


@dataclass(frozen=True)
class SampleError:
    id: str
    family: str
    seed: int
    message: str


@dataclass(frozen=True)
class Campaign:
    family: str
    n: int
    seed: int = 0
    hmax: float = 0.03

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.n < 0:
            raise ValueError("sample count must be nonnegative")
        if not self.hmax > 0.0:
            raise ValueError("hmax must be positive")


@dataclass(frozen=True)
class CampaignResult:
    campaign: Campaign
    points: tuple
    errors: tuple

    def summary(self) -> dict:
        out = {
            "family": self.campaign.family,
            "n": self.campaign.n,
            "seed": self.campaign.seed,
            "hmax": self.campaign.hmax,
            "evaluated": len(self.points),
            "failed": len(self.errors),
            "failures": [{"id": e.id, "seed": e.seed, "message": e.message}
                         for e in self.errors],
            "quality_warnings": [{"id": p.id, "seed": p.seed, "message": p.record.warning}
                                 for p in self.points if p.record.warning],
        }
        out.update(conjecture_report(self.points))
        out["hard_bounds"] = hard_bound_report(self.points)
        return out


# ---------------------------------------------------------------------------
# sample generation (always serial, so campaigns are order-independent)


def _sample_seeds(seed: int, n: int) -> list:
    state = np.random.SeedSequence(seed).generate_state(max(n, 1), dtype=np.uint64)
    return [int(s) for s in state[:n]]


def _collapsing_rectangle(rng, i: int, n: int) -> ConvexPolygon:
    # aspect ratios sweep 1 -> 0.01 geometrically (a single sample uses 0.1)
    t = 0.5 if n == 1 else i / (n - 1)
    eps = 10.0 ** (-2.0 * t)
    return ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, eps], [0.0, eps]]))


def _collapsing_tent(rng, i: int, n: int) -> ConvexPolygon:
    # symmetric tent cross-section; thickness sweeps 0.8 -> 0.05 geometrically
    t = 0.5 if n == 1 else i / (n - 1)
    eps = 0.8 * (0.05 / 0.8) ** t
    half = profiles.scale(profiles.triangular(0.5), 0.5)
    return geom2d.thin_domain(half, half, eps)


def _wide_corners(poly: ConvexPolygon) -> bool:
    return geom2d.min_corner_angle_deg(poly.vertices) >= _TRIANGLE_MIN_ANGLE_DEG


# family -> (generator (rng, i, n) -> polygon, note in the CSV metadata)
_FAMILIES = {
    "randomPolygon": (lambda rng, i, n: geom2d.random_hull(15, rng),
                      "hull of 15 uniform points in the unit square"),
    "randomTriangle": (lambda rng, i, n: geom2d.random_hull(3, rng, _wide_corners),
                       "uniform vertices, minimum angle >= 5 degrees"),
    "randomQuadrilateral": (lambda rng, i, n: geom2d.random_hull(4, rng, lambda p: p.n == 4),
                            "hull of 4 uniform points, all extreme"),
    "collapsingRectangle": (_collapsing_rectangle, "aspect ratio 1 -> 0.01 geometric"),
    "collapsingTent": (_collapsing_tent,
                       "symmetric unit-mass tent section, thickness 0.8 -> 0.05"),
    # cycles through the fixed roster
    "named": (lambda rng, i, n: geom2d.named(_NAMED_SPECS[i % len(_NAMED_SPECS)]), None),
}
FAMILIES = tuple(_FAMILIES)


def _sample_shapes(c: Campaign) -> list:
    """(id, seed, polygon) of every sample, each drawn from its own seed."""
    draw = _FAMILIES[c.family][0]
    return [(f"{c.family}-{i:04d}", s, draw(np.random.default_rng(s), i, c.n))
            for i, s in enumerate(_sample_seeds(c.seed, c.n))]


def _evaluate_sample(family: str, hmax: float, sample: tuple):
    sid, seed, poly = sample
    try:   # F_of_domain is looked up at call time, so it can be replaced
        return DiagramPoint(id=sid, family=family, seed=seed,
                            record=F_of_domain(poly, hmax=hmax))
    except Exception as exc:  # recorded per sample, campaign continues
        return SampleError(id=sid, family=family, seed=seed,
                           message=f"{type(exc).__name__}: {exc}")


def run_campaign(c: Campaign, threads: int = 1) -> CampaignResult:
    """Evaluate every sample of a campaign; failures become error records.

    Geometry is generated up front from per-sample seeds, so results are
    identical whether the solver pass below runs serially or on a pool.  The
    pool never has more workers than samples or CPUs.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    samples = _sample_shapes(c)
    workers = min(threads, len(samples), os.cpu_count() or 1)
    evaluate = partial(_evaluate_sample, c.family, c.hmax)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(evaluate, samples, chunksize=4))
    else:
        outcomes = [evaluate(s) for s in samples]
    points = tuple(o for o in outcomes if isinstance(o, DiagramPoint))
    errors = tuple(o for o in outcomes if isinstance(o, SampleError))
    if samples and not points:
        raise CampaignFailure(
            f"all {len(samples)} samples failed; first: {errors[0].message}")
    return CampaignResult(campaign=c, points=points, errors=errors)


# ---------------------------------------------------------------------------
# reports


def conjecture_report(points) -> dict:
    """Counts and worst cases against the conjectured band 1 <= F <= 2.

    Purely descriptive: candidates outside the band are listed, and for
    campaigns containing quadrilaterals or rectangles the report bins the
    points by x and states whether a rectangle attains each bin's minimal y.
    """
    points = list(points)
    if not points:
        return {"points": 0, "below_1": 0, "above_2": 0, "candidates": []}
    fs = np.array([p.F for p in points])
    order = np.argsort(np.abs(fs - 1.0))

    def _brief(p: DiagramPoint) -> dict:
        r = p.record
        return {"id": p.id, "family": p.family, "seed": p.seed,
                "F": r.F, "x": r.x, "y": r.y, "area": r.area,
                "perimeter": r.perimeter, "diameter": r.diameter,
                "width": r.width, "inradius": r.inradius}

    report = {
        "points": len(points),
        "F_min": float(fs.min()),
        "F_max": float(fs.max()),
        "below_1": int(np.sum(fs < 1.0)),
        "above_2": int(np.sum(fs > 2.0)),
        "candidates": [_brief(p) for p in points if p.conjecture_candidate],
        "lowest_F": _brief(points[int(np.argmin(fs))]),
        "highest_F": _brief(points[int(np.argmax(fs))]),
        "nearest_to_1": [_brief(points[int(k)]) for k in order[:5]],
    }
    rect_like = {"randomQuadrilateral", "collapsingRectangle"}
    if any(p.family in rect_like for p in points):
        report["x_bins"] = _rectangle_bin_report(points)
    return report


def _rectangle_bin_report(points) -> list:
    """Minimum of y over fixed-x bins, and whether a rectangle attains it."""
    xs = np.array([p.x for p in points])
    lo, hi = float(xs.min()), float(xs.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, _X_BINS + 1)
    out = []
    for b in range(_X_BINS):
        last = b == _X_BINS - 1
        mask = (xs >= edges[b]) & ((xs <= edges[b + 1]) if last else (xs < edges[b + 1]))
        idx = np.nonzero(mask)[0]
        if idx.size == 0:
            continue
        k = idx[int(np.argmin([points[i].y for i in idx]))]
        p = points[int(k)]
        out.append({
            "x_range": [float(edges[b]), float(edges[b + 1])],
            "count": int(idx.size),
            "min_y": p.y, "min_y_id": p.id, "min_y_family": p.family,
            "rectangle_attains_min": p.family == "collapsingRectangle",
        })
    return out


def hard_bound_report(points) -> dict:
    """Violation counts for the proved inequalities (all expected to be zero).

    The enclosing-box check carries a 1e-6 relative slack because the disk
    attains y = pi * j'_11^2 with equality and a conforming discretization
    overestimates mu1; the measured overshoot for a 256-gon disk is below
    3e-7 for any mesh the campaigns use, so the slack cannot hide a real
    violation by a domain family.
    """
    points = list(points)
    band_lo = bounds.lower_bound_constant()
    band_hi = bounds.upper_bound_constant()
    report = {
        "band": [band_lo, band_hi],
        "band_violations": 0,
        "per_domain_violations": 0,
        "payne_violations": 0,
        "box_violations": 0,
        "x_limit": X_LIMIT,
        "y_limit": Y_LIMIT,
    }
    if not points:
        return report
    per_domain_margin = math.inf
    payne_min = math.inf
    for p in points:
        r = p.record
        cap = p.per_domain_bound()
        per_domain_margin = min(per_domain_margin, cap - r.F)
        payne_min = min(payne_min, r.mu1 * r.diameter ** 2 / math.pi ** 2)
        report["band_violations"] += not (band_lo <= r.F <= band_hi)
        report["per_domain_violations"] += r.F > cap
        report["payne_violations"] += r.mu1 * r.diameter ** 2 < math.pi ** 2 * (1.0 - 1e-9)
        report["box_violations"] += (r.x > X_LIMIT * (1.0 + 1e-6)) \
            or (r.y > Y_LIMIT * (1.0 + 1e-6))
    report["per_domain_margin_min"] = per_domain_margin
    report["payne_ratio_min"] = payne_min
    report["x_max"] = max(p.x for p in points)
    report["y_max"] = max(p.y for p in points)
    return report


# ---------------------------------------------------------------------------
# emission


def campaign_metadata(result: CampaignResult) -> dict:
    """The '#' metadata of a campaign's CSV: its parameters, counts, failures,
    mesh quality warnings and conjecture candidates."""
    c = result.campaign
    meta = {
        "family": c.family, "n": c.n, "seed": c.seed, "hmax": c.hmax,
        "evaluated": len(result.points), "failed": len(result.errors),
    }
    for e in result.errors:
        meta[f"failure {e.id}"] = e.message
    for p in result.points:
        if p.record.warning:
            meta[f"quality_warning {p.id}"] = p.record.warning
    flagged = [p.id for p in result.points if p.conjecture_candidate]
    if flagged:
        meta["conjecture_candidates"] = " ".join(flagged)
    return meta


_GENERATOR_NOTES = (
    "x = sigma1 * perimeter, y = mu1 * area, F = y / x",
    f"axes: x in [0, 8*pi = {X_LIMIT!r}], y in [0, pi*j'11^2 = {Y_LIMIT!r}]",
    *(f"{family}: {note}" for family, (_, note) in _FAMILIES.items() if note),
)


def emit_csv(points, path, metadata: dict | None = None) -> None:
    """CSV table, one row per point, with '#'-prefixed metadata comments.

    The header row and column order are part of the output contract; an empty
    collection still produces the comments plus the bare header.
    """
    lines = [f"# {note}" for note in _GENERATOR_NOTES]
    if metadata:
        lines += [f"# {k} = {v}" for k, v in metadata.items()]
    lines.append(CSV_HEADER)
    lines += [p.as_row() for p in points]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


SVG_WIDTH = 900
SVG_HEIGHT = 640
SVG_MARGIN = 64
SVG_RADIUS = 2.5
SVG_POINT_COLOR = "#2b6cb0"
SVG_CANDIDATE_COLOR = "#c53030"
SVG_REFERENCE_COLOR = "#718096"


def emit_svg_scatter(points, path) -> None:
    """Dependency-free SVG scatter: one circle per point, frame with ticks,
    and the reference lines y = x, y = 2x bounding the conjectured band."""
    w, h, m = SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN
    px = lambda x: m + (x / X_LIMIT) * (w - 2 * m)
    py = lambda y: h - m - (y / Y_LIMIT) * (h - 2 * m)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<rect x="{m}" y="{m}" width="{w - 2 * m}" height="{h - 2 * m}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
    ]
    # reference lines exit through the top edge (Y_LIMIT < X_LIMIT)
    for slope, label in ((1.0, "F = 1"), (2.0, "F = 2")):
        x_end = Y_LIMIT / slope
        parts.append(
            f'<line x1="{px(0):.2f}" y1="{py(0):.2f}" x2="{px(x_end):.2f}" '
            f'y2="{py(Y_LIMIT):.2f}" stroke="{SVG_REFERENCE_COLOR}" '
            f'stroke-width="1" stroke-dasharray="6 4"/>')
        parts.append(
            f'<text x="{px(x_end) + 4:.2f}" y="{py(Y_LIMIT) + 12:.2f}" '
            f'font-size="12" fill="{SVG_REFERENCE_COLOR}">{label}</text>')
    for k in range(5):
        xv, yv = X_LIMIT * k / 4.0, Y_LIMIT * k / 4.0
        parts.append(f'<line x1="{px(xv):.2f}" y1="{h - m}" x2="{px(xv):.2f}" '
                     f'y2="{h - m + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(xv):.2f}" y="{h - m + 18}" font-size="11" '
                     f'text-anchor="middle">{xv:.2f}</text>')
        parts.append(f'<line x1="{m - 5}" y1="{py(yv):.2f}" x2="{m}" '
                     f'y2="{py(yv):.2f}" stroke="black"/>')
        parts.append(f'<text x="{m - 8}" y="{py(yv) + 4:.2f}" font-size="11" '
                     f'text-anchor="end">{yv:.2f}</text>')
    parts.append(f'<text x="{w / 2:.0f}" y="{h - 16}" font-size="13" '
                 f'text-anchor="middle">x = sigma1 * P</text>')
    parts.append(f'<text x="18" y="{h / 2:.0f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 18 {h / 2:.0f})">'
                 f'y = mu1 * |Omega|</text>')
    for p in points:
        color = SVG_CANDIDATE_COLOR if p.conjecture_candidate else SVG_POINT_COLOR
        parts.append(f'<circle cx="{px(p.x):.2f}" cy="{py(p.y):.2f}" '
                     f'r="{SVG_RADIUS}" fill="{color}" fill-opacity="0.75"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
