"""Convex polygon geometry: hulls, functionals, thin domains, named shapes.

Hulls come from qhull.  Functionals follow the classical algorithms: shoelace
area; diameter and width from one table of antipodal pairs (for each edge the
vertex farthest from it, found by a sorted search of the edge angles, as in
Toussaint's rotating calipers); the inradius and Chebyshev center from the
straight skeleton.  Thin domains are built from a pair of profiles as
{(x, y): -eps h_minus(x) <= y <= eps h_plus(x)}; for concave profiles the
result is convex and, since profiles are piecewise linear, the polygon is the
exact domain rather than a sampling of it.  A turn is straight, so pruned and
refused, when its cross product is at most ``COLLINEAR_TOL`` |area| / pi, the
squared radius of the disk of equal area; both sides scale by det A under a
linear map A, so thin domains at every eps are one polygon stretched in y.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .profiles import ProfileH

COLLINEAR_TOL = 1e-12


class GeometryError(ValueError):
    """Degenerate or non-convex input geometry."""


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon, vertices in counterclockwise order."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise GeometryError("need an (n, 2) array with n >= 3")
        if not np.all(np.isfinite(v)):
            raise GeometryError("non-finite vertex coordinates")
        if np.any(_edge_crosses(v) <= _collinear_floor(v)):
            raise GeometryError("vertices must be strictly convex and counterclockwise")
        object.__setattr__(self, "vertices", v.copy())
        self.vertices.setflags(write=False)

    @property
    def n(self) -> int:
        return self.vertices.shape[0]


def _edge_crosses(v: np.ndarray) -> np.ndarray:
    e = np.roll(v, -1, axis=0) - v
    e_next = np.roll(e, -1, axis=0)
    return e[:, 0] * e_next[:, 1] - e[:, 1] * e_next[:, 0]


def _collinear_floor(v: np.ndarray) -> float:
    d = v - v[0]
    return COLLINEAR_TOL * abs(float(d[:-1, 0] @ d[1:, 1] - d[:-1, 1] @ d[1:, 0])) / (2 * np.pi)


def prune_collinear(points: np.ndarray) -> np.ndarray:
    """Drop vertices whose adjacent edges are collinear (or reflex-degenerate)."""
    v = np.asarray(points, dtype=float)
    while v.shape[0] >= 3:           # each pass returns or drops a vertex
        keep = np.roll(_edge_crosses(v), 1) > _collinear_floor(v)
        if np.all(keep):
            return v
        v = v[keep]
    raise GeometryError("pruning collapsed the polygon")


def convex_hull(points) -> np.ndarray:
    """Convex hull by qhull (``ConvexHull``); collinear points are dropped.

    Returns hull vertices in counterclockwise order starting from the
    lexicographically smallest point.
    """
    pts = np.unique(np.asarray(points, dtype=float), axis=0)   # sorted lexicographically
    if pts.shape[0] < 3:
        raise GeometryError("need at least three distinct points")
    try:
        idx = ConvexHull(pts).vertices
    except QhullError as exc:
        raise GeometryError("hull is degenerate (collinear points)") from exc
    return pts[np.roll(idx, -int(np.argmin(idx)))]


def random_hull(count: int, rng: np.random.Generator,
                accept=lambda poly: True) -> ConvexPolygon:
    """Hull of ``count`` uniform points in the unit square, drawn from the
    ``Generator`` ``rng``.  A degenerate hull, or one for which
    ``accept(hull)`` is false, is redrawn, up to 100 draws in all."""
    for _ in range(100):
        try:
            poly = ConvexPolygon(convex_hull(rng.random((count, 2))))
        except GeometryError:
            continue
        if accept(poly):
            return poly
    raise GeometryError("could not generate an acceptable hull")


def area(p: ConvexPolygon) -> float:
    v = p.vertices
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def perimeter(p: ConvexPolygon) -> float:
    e = np.roll(p.vertices, -1, axis=0) - p.vertices
    return float(np.hypot(e[:, 0], e[:, 1]).sum())


def min_angle_deg(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest angle, in degrees, between paired rows of ``a`` and ``b``."""
    cosang = np.einsum("ij,ij->i", a, b) / (
        np.hypot(a[:, 0], a[:, 1]) * np.hypot(b[:, 0], b[:, 1]))
    return float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)).min()))


def min_corner_angle_deg(vertices: np.ndarray) -> float:
    """Sharpest interior corner, in degrees, of the polygon with these vertices
    (NaN when two consecutive vertices coincide)."""
    return min_angle_deg(np.roll(vertices, -1, axis=0) - vertices,
                         np.roll(vertices, 1, axis=0) - vertices)


def _antipodes(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Edge vectors e_i = v_{i+1} - v_i and, for each edge, the first vertex
    j(i) farthest from its line: the vertex whose outgoing edge is the first
    to point at least opposite e_i."""
    e = np.roll(v, -1, axis=0) - v
    theta = np.unwrap(np.arctan2(e[:, 1], e[:, 0]))
    # strictly convex and CCW: every turn is in (0, pi), so theta rises and spans < 2 pi
    ext = np.concatenate([theta, theta + 2.0 * np.pi])
    return e, np.searchsorted(ext, theta + np.pi, side="left") % v.shape[0]


def diameter(p: ConvexPolygon) -> float:
    """Largest vertex distance, over the antipodal pairs of every edge."""
    v = p.vertices
    _, j = _antipodes(v)
    d = v[j] - np.stack([v, np.roll(v, -1, axis=0)])
    return float(np.sqrt((d * d).sum(axis=-1).max()))


def width(p: ConvexPolygon) -> float:
    """Smallest slab containing the polygon: min over edges of the support distance."""
    v = p.vertices
    e, j = _antipodes(v)
    d = v[j] - v
    return float(((e[:, 0] * d[:, 1] - e[:, 1] * d[:, 0]) / np.hypot(e[:, 0], e[:, 1])).min())


def inradius(p: ConvexPolygon) -> tuple[float, np.ndarray]:
    """Chebyshev center from the straight skeleton, the medial axis of a convex
    polygon (Chin, Snoeyink & Wang, Discrete Comput. Geom. 21, 1999): the edge
    lines move inward at unit speed, the edge that first collapses (meets both
    neighbour lines) is dropped, and so on, until three lines meet at time r."""
    v = p.vertices
    origin = v.mean(axis=0)
    e = np.roll(v, -1, axis=0) - v
    nrm = np.stack([-e[:, 1], e[:, 0]], axis=1) / np.hypot(e[:, 0], e[:, 1])[:, None]
    nx, ny = nrm.T.tolist()
    off = np.einsum("ij,ij->i", nrm, v - origin).tolist()

    def meet(a, b, c):
        # (t, x, y) with n.(x, y) - t = off on lines a, b, c; less a's row, 2 x 2
        b1, b2, f = nx[b] - nx[a], ny[b] - ny[a], off[b] - off[a]
        c1, c2, g = nx[c] - nx[a], ny[c] - ny[a], off[c] - off[a]
        det = b1 * c2 - b2 * c1
        if det == 0.0:
            raise GeometryError("inradius: too thin, adjacent edge normals agree to rounding")
        x, y = (f * c2 - b2 * g) / det, (b1 * g - f * c1) / det
        return nx[a] * x + ny[a] * y - off[a], x, y

    n = p.n
    prev, nxt = [(i - 1) % n for i in range(n)], [(i + 1) % n for i in range(n)]
    time = [meet(prev[i], i, nxt[i])[0] for i in range(n)]
    heap = sorted(zip(time, range(n)))
    j = 0
    for _ in range(n - 3):
        t, i = heapq.heappop(heap)
        while t != time[i]:              # a dropped edge, or a renewed time
            t, i = heapq.heappop(heap)
        time[i] = float("nan")
        nxt[prev[i]], prev[nxt[i]] = nxt[i], prev[i]
        for j in (prev[i], nxt[i]):
            time[j] = meet(prev[j], j, nxt[j])[0]
            heapq.heappush(heap, (time[j], j))
    r, x, y = meet(prev[j], j, nxt[j])
    return float(r), origin + [x, y]


@dataclass(frozen=True)
class GeometryFunctionals:
    area: float
    perimeter: float
    diameter: float
    width: float
    inradius: float

    def __post_init__(self):
        ok = (0 < self.area
              and 0 < 2.0 * self.inradius <= self.width + 1e-9 * self.diameter
              and self.width <= self.diameter * (1 + 1e-12)
              and self.perimeter <= np.pi * self.diameter * (1 + 1e-12))
        if not ok:
            raise GeometryError(f"inconsistent functionals: {self}")


def functionals(p: ConvexPolygon) -> GeometryFunctionals:
    r, _ = inradius(p)
    return GeometryFunctionals(area=area(p), perimeter=perimeter(p),
                               diameter=diameter(p), width=width(p), inradius=r)


def thin_domain(hplus: ProfileH, hminus: ProfileH, eps: float) -> ConvexPolygon:
    """Convex polygon between eps*hplus above and eps*hminus below [0, 1].

    Both profiles must be concave and nonnegative, and at least one of
    hplus(x) + hminus(x) must be positive away from the endpoints.  All
    profile knots enter the vertex set, so the polygon is exact.
    """
    if eps <= 0:
        raise GeometryError("thickness must be positive")
    xs = np.union1d(hplus.knots, hminus.knots)
    arr = np.vstack([np.column_stack([xs, -eps * hminus(xs)]),
                     np.column_stack([xs[::-1], (eps * hplus(xs))[::-1]])])
    # drop consecutive duplicates (degenerate tips where both chains meet)
    arr = arr[~np.isclose(np.roll(arr, 1, axis=0), arr, rtol=0.0, atol=1e-15).all(axis=1)]
    return ConvexPolygon(prune_collinear(arr))


def regular_polygon(n: int) -> ConvexPolygon:
    """Regular n-gon of unit circumradius, with a vertex at (1, 0)."""
    if n < 3:
        raise GeometryError("need at least three vertices")
    th = 2.0 * np.pi * np.arange(n) / n
    return ConvexPolygon(np.stack([np.cos(th), np.sin(th)], axis=1))


def _spec_number(spec: str, text: str, convert):
    try:
        return convert(text)
    except ValueError as exc:
        raise GeometryError(f"bad shape spec {spec!r}") from exc


def named(spec: str) -> ConvexPolygon:
    """Named shapes: T1, T2, square, disk[:n], rectangle:L:W."""
    kind, *parts = spec.split(":")
    if kind in ("T1", "T2", "square") and parts or kind == "disk" and len(parts) > 1:
        raise GeometryError(f"bad shape spec {spec!r}")
    if kind == "T1":
        return ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]))
    if kind == "T2":
        return ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    if kind == "square":
        return ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    if kind == "disk":
        return regular_polygon(_spec_number(spec, parts[0], int) if parts else 256)
    if kind == "rectangle":
        if len(parts) != 2:
            raise GeometryError("rectangle spec is rectangle:L:W")
        L, W = (_spec_number(spec, text, float) for text in parts)
        if L <= 0 or W <= 0:
            raise GeometryError("rectangle sides must be positive")
        return ConvexPolygon(np.array([[0.0, 0.0], [L, 0.0], [L, W], [0.0, W]]))
    raise GeometryError(f"unknown shape {spec!r}")


def from_dict(d: dict) -> ConvexPolygon:
    try:
        return ConvexPolygon(np.asarray(d["vertices"], dtype=float))
    except (KeyError, TypeError) as exc:
        raise GeometryError(f"malformed polygon object: {exc}") from exc


def load(path) -> ConvexPolygon:
    with open(path, encoding="utf-8") as f:
        return from_dict(json.load(f))


def resolve(spec: str) -> ConvexPolygon:
    """Named shape or path to a polygon JSON file."""
    if spec.split(":")[0] in ("T1", "T2", "square", "disk", "rectangle"):
        return named(spec)
    return load(spec)
