"""Triangle meshes for convex polygons and thin strips.

General polygons get an isotropic mesh: boundary edges subdivided to the
target size, a hexagonal interior lattice clipped away from the boundary,
Delaunay triangulation, and a few rounds of Laplacian smoothing.  Convexity
makes Delaunay exact: the triangulated hull of the point set is the polygon
itself.  qhull triangulates the points before and after smoothing, and its
zero-area caps on collinear boundary points are dropped right there; in
between the triangulation follows the points by vectorized Lawson edge flips,
which keep it Delaunay (so no element can invert) at a fraction of a qhull
call.  Every edge question (smoothing neighbours, edge flips, boundary edges,
refinement midpoints, P2 connectivity) is answered by one table of unique
edges keyed by int64 ``lo * n + hi``.

Meshing happens in a canonical frame (centroid at the origin, unit area,
longest edge aligned with the x-axis) and is mapped back, so congruent or
scaled polygons receive congruent or scaled meshes and normalized spectral
quantities are invariant to machine precision, not just to discretization
accuracy.

Thin strips between two profile graphs get a structured anisotropic mesh:
marching columns in x (graded by the local thickness, so degenerate tips are
approached gracefully) with a fixed small number of cross layers.  Columns of
zero thickness collapse to a single node and are connected by fans.  Node
columns and column-pair triangles are built as whole arrays.

Mesh sizes (``hmax``, ``eps``, ``dx0``, ``dx_min``) must be finite and
positive and allow at most ``MAX_THIN_COLUMNS`` strip columns; anything else,
and any empty or non-finite mesh, raises ``MeshError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay

from ..geom2d import ConvexPolygon
from ..profiles import ProfileH

QUALITY_FLOOR_DEG = 20.0
# a mesh angle this far below min(floor, sharpest polygon corner) is the mesher's fault
QUALITY_MARGIN_DEG = 1.0
# strip columns allowed, far above any solvable strip (about 1.6k at dx0 = 0.005)
MAX_THIN_COLUMNS = 100_000
_MAX_FLIP_SWEEPS = 20            # Lawson sweeps per smoothing round; campaign rounds need 0-1
_INCIRCLE_TIE = 1e-12            # in-circle determinants this small against their terms are ties
_SMOOTH_ROUNDS = 4               # smoothing rounds per polygon mesh


class MeshError(RuntimeError):
    """Mesh construction or conformity failure."""


@dataclass(frozen=True)
class TriangleMesh:
    """Conforming triangulation with positively oriented triangles."""

    nodes: np.ndarray
    triangles: np.ndarray
    quality_warning: str | None = field(default=None, compare=False)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        tris = np.asarray(self.triangles, dtype=np.int64)
        if nodes.ndim != 2 or nodes.shape[1] != 2 or tris.ndim != 2 or tris.shape[1] != 3:
            raise MeshError("nodes must be (n, 2) and triangles (m, 3)")
        if tris.shape[0] == 0:
            raise MeshError("mesh has no triangles")
        if not np.all(np.isfinite(nodes)):
            raise MeshError("non-finite node coordinates")
        if tris.min() < 0 or tris.max() >= nodes.shape[0]:
            raise MeshError("triangle index out of range")
        if np.any(_signed_areas(nodes, tris) <= 0):
            raise MeshError("triangles must be positively oriented and non-degenerate")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "triangles", tris)
        nodes.setflags(write=False)
        tris.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def hmax(self) -> float:
        return float(np.sqrt(_edge_lengths_sq(self.nodes, self.triangles).max()))

    def min_angle_deg(self) -> float:
        v = self.nodes[self.triangles]
        return min(_min_angle_deg(v[:, (i + 1) % 3] - v[:, i], v[:, (i + 2) % 3] - v[:, i])
                   for i in range(3))


def _edge_table(tris: np.ndarray, n_nodes: int):
    """Unique undirected edges of a triangulation.

    Directed edges are listed edge-major: row ``k * T + t`` runs from corner k
    of triangle t to corner k + 1.  Each is keyed by the int64 ``lo * n_nodes
    + hi``, whose order is the lexicographic order of (lo, hi).  Returns
    ``(edges, uniq, inverse, first, counts)``: the directed edges, the sorted
    unique (lo, hi) pairs, the unique-edge index of every directed edge, the
    row of each unique edge's first occurrence, and its number of triangles.
    """
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    key = edges.min(axis=1).astype(np.int64) * n_nodes + edges.max(axis=1)
    # the first occurrence is taken by a minimum, so the sort need not be stable
    ukey, inverse, counts = np.unique(key, return_inverse=True, return_counts=True)
    first = np.full(ukey.size, key.size)
    np.minimum.at(first, inverse, np.arange(key.size))
    if counts.max() > 2:
        raise MeshError("non-manifold edge")
    uniq = np.stack(np.divmod(ukey, n_nodes), axis=1)
    return edges, uniq, inverse, first, counts


def _min_angle_deg(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest angle, in degrees, between paired rows of ``a`` and ``b``."""
    cosang = np.einsum("ij,ij->i", a, b) / (
        np.hypot(a[:, 0], a[:, 1]) * np.hypot(b[:, 0], b[:, 1]))
    return float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)).min()))


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not (np.isfinite(value) and value > 0):
            raise MeshError(f"{name} must be finite and positive, got {value!r}")


def _signed_areas(nodes: np.ndarray, tris: np.ndarray) -> np.ndarray:
    v = nodes[tris]
    return ((v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
            - (v[:, 1, 1] - v[:, 0, 1]) * (v[:, 2, 0] - v[:, 0, 0]))


def _edge_lengths_sq(nodes: np.ndarray, tris: np.ndarray) -> np.ndarray:
    v = nodes[tris]
    out = []
    for i in range(3):
        d = v[:, (i + 1) % 3] - v[:, i]
        out.append(d[:, 0] ** 2 + d[:, 1] ** 2)
    return np.stack(out)


def _orient_ccw(nodes: np.ndarray, tris: np.ndarray) -> np.ndarray:
    flip = _signed_areas(nodes, tris) < 0
    tris = tris.copy()
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return tris


def _boundary_ring(vertices: np.ndarray, h: float) -> np.ndarray:
    """Each edge a -> b split into nseg pieces at t = k / nseg, k < nseg (the
    next edge supplies b)."""
    b = np.roll(vertices, -1, axis=0)
    e = b - vertices
    nseg = np.maximum(1, np.ceil(np.hypot(e[:, 0], e[:, 1]) / h).astype(np.int64))
    edge = np.repeat(np.arange(vertices.shape[0]), nseg)
    k = np.arange(edge.size) - np.repeat(np.cumsum(nseg) - nseg, nseg)
    t = (k / nseg[edge])[:, None]
    return (1 - t) * vertices[edge] + t * b[edge]


def _interior_lattice(vertices: np.ndarray, h: float, clearance: float) -> np.ndarray:
    """Hexagonal lattice of spacing h over the bounding box, rows alternately
    offset by h/4 and 3h/4, keeping the points at least ``clearance`` inside."""
    e = np.roll(vertices, -1, axis=0) - vertices
    normals = np.stack([-e[:, 1], e[:, 0]], axis=1)
    normals /= np.hypot(normals[:, 0], normals[:, 1])[:, None]
    xmin, ymin = vertices.min(axis=0)
    xmax, ymax = vertices.max(axis=0)
    dy = h * np.sqrt(3.0) / 2.0
    rows = np.arange(ymin + dy / 2, ymax, dy)
    even, odd = (np.arange(xmin + offset * h, xmax, h) for offset in (0.25, 0.75))
    # rows take even and odd x-values in turn, so the x column is that pair cycled
    sizes = np.resize([even.size, odd.size], rows.size)
    p = np.stack([np.resize(np.concatenate([even, odd]), sizes.sum()),
                  np.repeat(rows, sizes)], axis=1)
    # signed distance to each edge line; inside a convex polygon the minimum
    # over edges is the distance to the boundary
    d = np.min(np.einsum("pk,ek->pe", p, normals)
               - np.einsum("ek,ek->e", normals, vertices), axis=1)
    return p[d >= clearance]


def _delaunay(points: np.ndarray) -> np.ndarray:
    """qhull's triangulation of ``points``, positively oriented.

    Subdividing a straight polygon edge puts exactly collinear points on the
    hull, and qhull covers such runs with zero-area caps; every triangle with
    |2 area| at most 1e-10 times the squared bounding-box diagonal is dropped.
    Raises ``MeshError`` unless every point is a corner of a kept triangle.
    """
    tris = np.asarray(Delaunay(points).simplices, dtype=np.int64)
    span = points.max(axis=0) - points.min(axis=0)
    scale = float(np.hypot(*span))
    tris = tris[np.abs(_signed_areas(points, tris)) > 1e-10 * scale * scale]
    if not np.bincount(tris.ravel(), minlength=len(points)).all():
        raise MeshError("triangulation leaves points unused")
    return _orient_ccw(points, tris)


def _incircle_fails(pts: np.ndarray, a, b, c, d) -> np.ndarray:
    """True where d lies inside the circumcircle of the positive triangle
    (a, b, c), by more than a tie: the in-circle determinant must exceed
    ``_INCIRCLE_TIE`` times the sum of its terms' magnitudes."""
    ad, bd, cd = pts[a] - pts[d], pts[b] - pts[d], pts[c] - pts[d]
    lift = [np.einsum("ij,ij->i", v, v) for v in (ad, bd, cd)]
    det = perm = 0.0
    for lf, u, v in zip(lift, (bd, cd, ad), (cd, ad, bd)):
        p, q = u[:, 0] * v[:, 1], u[:, 1] * v[:, 0]
        det = det + lf * (p - q)
        perm = perm + lf * (np.abs(p) + np.abs(q))
    return det > _INCIRCLE_TIE * perm


def _lawson_flips(pts: np.ndarray, tris: np.ndarray):
    """Flip edges until the triangulation is Delaunay (Lawson, 1977).

    ``tris`` must be positively oriented.  An interior edge shared by (a, b, c)
    and (b, a, d) fails when d lies inside the circumcircle of (a, b, c), and
    flipping it gives (a, d, c) and (d, b, c).  Each sweep flips the edges
    that are the lowest-index failing edge of both their triangles: an
    independent set, never empty while an edge fails.  Returns the triangles
    and the unique edges of ``_edge_table``; raises ``MeshError`` on an
    inverted or flat triangle or after ``_MAX_FLIP_SWEEPS`` sweeps.
    """
    n_tris = len(tris)
    for _ in range(_MAX_FLIP_SWEEPS):
        if np.any(_signed_areas(pts, tris) <= 0):
            raise MeshError("smoothing inverted a triangle")
        _, uniq, inverse, first, _ = _edge_table(tris, len(pts))
        # every directed row that is not its edge's first is the second row of
        # an interior edge: (a, b) in triangle t1, (b, a) in t2
        rows = np.arange(inverse.size)
        second = rows[rows != first[inverse]]
        edge = inverse[second]
        k1, t1 = np.divmod(first[edge], n_tris)
        k2, t2 = np.divmod(second, n_tris)
        a, b, c = tris[t1, k1], tris[t1, (k1 + 1) % 3], tris[t1, (k1 + 2) % 3]
        d = tris[t2, (k2 + 2) % 3]
        fails = np.flatnonzero(_incircle_fails(pts, a, b, c, d))
        if fails.size == 0:
            return tris, uniq
        # flip each failing edge that is the lowest failing edge of both owners
        e, s1, s2 = edge[fails], t1[fails], t2[fails]
        lowest = np.full(n_tris, uniq.shape[0])
        np.minimum.at(lowest, s1, e)
        np.minimum.at(lowest, s2, e)
        flip = fails[(lowest[s1] == e) & (lowest[s2] == e)]
        tris = tris.copy()
        tris[t1[flip]] = np.stack([a[flip], d[flip], c[flip]], axis=1)
        tris[t2[flip]] = np.stack([d[flip], b[flip], c[flip]], axis=1)
    raise MeshError(f"edge flips did not settle in {_MAX_FLIP_SWEEPS} sweeps")


def _smooth(points: np.ndarray, n_fixed: int, rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """Laplacian smoothing: every point after the first ``n_fixed`` moves to
    the mean of its Delaunay neighbours, ``rounds`` times.

    qhull triangulates the input and the result.  Between those two calls
    the triangulation follows the points by Lawson flips, which restore the
    Delaunay property after each round; a round changes only a few edges.
    Each round's neighbour sums come from the unique edges of the current
    triangles.  The caps that ``_delaunay`` drops lie on fixed boundary
    points, so the free points have the neighbours that qhull's
    ``vertex_neighbor_vertices`` would give them (summed in another order).
    Returns the smoothed points and their triangles from ``_delaunay``.
    """
    n = points.shape[0]
    tris = _delaunay(points)
    for _ in range(rounds):
        tris, uniq = _lawson_flips(points, tris)
        # both directions of every edge, by (vertex, neighbour): each sum
        # runs over the neighbours in ascending order
        ends, other = np.divmod(np.sort(np.concatenate([uniq @ [n, 1], uniq @ [1, n]])), n)
        degree = np.bincount(ends, minlength=n)[n_fixed:, None]
        sums = np.stack([np.bincount(ends, weights=points[other, i], minlength=n)
                         for i in range(2)], axis=1)
        points = points.copy()
        points[n_fixed:] = sums[n_fixed:] / degree
    return points, _delaunay(points)


def polygon_mesh(poly: ConvexPolygon, hmax: float) -> TriangleMesh:
    """Isotropic mesh of a convex polygon with target element size ``hmax``.

    The achieved maximum edge (see ``TriangleMesh.hmax``) tracks the target to
    within about 25%; uniform :func:`refine` halves it exactly.  A quality
    warning is set only when the mesh's smallest angle falls more than
    ``QUALITY_MARGIN_DEG`` below both the floor and the polygon's sharpest
    corner, which no mesh of the polygon can beat.
    """
    _require_positive(hmax=hmax)
    v = poly.vertices
    # canonical frame: area centroid -> origin, unit area, longest edge along x
    x, y = v[:, 0], v[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    a2 = cross.sum()
    cx = float(((x + np.roll(x, -1)) * cross).sum() / (3.0 * a2))
    cy = float(((y + np.roll(y, -1)) * cross).sum() / (3.0 * a2))
    scale = float(np.sqrt(0.5 * a2))
    edges = np.roll(v, -1, axis=0) - v
    k = int(np.argmax(np.hypot(edges[:, 0], edges[:, 1])))
    theta = float(np.arctan2(edges[k, 1], edges[k, 0]))
    rot = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    canon = (v - [cx, cy]) @ rot.T / scale
    h = hmax / scale

    ring = _boundary_ring(canon, 0.8 * h)
    inner = _interior_lattice(canon, 0.8 * h, clearance=0.44 * h)
    pts = np.concatenate([ring, inner]) if inner.size else ring
    pts, tris = _smooth(pts, ring.shape[0], _SMOOTH_ROUNDS)

    covered = 0.5 * _signed_areas(pts, tris).sum()
    target = 0.5 * float(np.abs((canon[:, 0] * np.roll(canon[:, 1], -1)
                                 - np.roll(canon[:, 0], -1) * canon[:, 1]).sum()))
    if abs(covered - target) > 1e-9 * target:
        raise MeshError("triangulation does not cover the polygon")

    nodes = pts @ rot * scale + [cx, cy]
    mesh = TriangleMesh(nodes, tris)
    ang = mesh.min_angle_deg()
    corner = _min_angle_deg(np.roll(v, -1, axis=0) - v, np.roll(v, 1, axis=0) - v)
    if ang < min(QUALITY_FLOOR_DEG, corner) - QUALITY_MARGIN_DEG:
        mesh = TriangleMesh(nodes, tris,
                            quality_warning=f"min angle {ang:.2f} deg more than "
                                            f"{QUALITY_MARGIN_DEG} deg below both the "
                                            f"{QUALITY_FLOOR_DEG} deg floor and the "
                                            f"polygon's smallest corner {corner:.2f} deg")
    return mesh


def refine(mesh: TriangleMesh) -> TriangleMesh:
    """Uniform 1-to-4 refinement; midpoints of straight boundary edges stay on them."""
    t = mesh.triangles
    _, uniq, inverse, _, _ = _edge_table(t, mesh.n_nodes)
    mid = 0.5 * (mesh.nodes[uniq[:, 0]] + mesh.nodes[uniq[:, 1]])
    m = inverse.reshape(3, -1).T + mesh.n_nodes      # columns: m01, m12, m20
    nodes = np.concatenate([mesh.nodes, mid])
    tris = np.concatenate([
        np.stack([t[:, 0], m[:, 0], m[:, 2]], axis=1),
        np.stack([t[:, 1], m[:, 1], m[:, 0]], axis=1),
        np.stack([t[:, 2], m[:, 2], m[:, 1]], axis=1),
        m,
    ])
    return TriangleMesh(nodes, tris, quality_warning=mesh.quality_warning)


def _thin_columns(hplus: ProfileH, hminus: ProfileH, dx0: float, dx_min: float) -> np.ndarray:
    """March a graded x-grid; every profile knot is hit exactly."""
    knots = np.union1d(hplus.knots, hminus.knots)
    # each column is a knot or at least min(dx0, dx_min) past its predecessor
    if 1.0 / min(dx0, dx_min) + knots.size > MAX_THIN_COLUMNS:
        raise MeshError(f"dx0={dx0!r}, dx_min={dx_min!r} allow over {MAX_THIN_COLUMNS} columns")
    xs = [0.0]
    while xs[-1] < 1.0:
        x = xs[-1]
        span = float(hplus(x)) + float(hminus(x))
        step = min(dx0, max(dx_min, span))
        nxt = x + step
        ahead = knots[knots > x + 1e-15]
        if ahead.size and ahead[0] <= nxt + 0.3 * step:
            nxt = ahead[0]          # never step over a kink, never leave a sliver
        xs.append(min(1.0, nxt))
    return np.array(xs)


def thin_mesh(hplus: ProfileH, hminus: ProfileH, eps: float,
              dx0: float = 0.01, layers: int = 4,
              dx_min: float | None = None) -> TriangleMesh:
    """Structured anisotropic mesh of the strip -eps*hminus <= y <= eps*hplus.

    Anisotropy is intentional: the spectral quantities of interest vary slowly
    across the strip, and slab-aligned elements keep the degree-of-freedom
    count bounded as eps -> 0.  The isotropic quality floor does not apply.
    """
    if dx_min is None:
        dx_min = dx0 / 8.0
    _require_positive(eps=eps, dx0=dx0, dx_min=dx_min)
    if not (float(layers).is_integer() and layers >= 1):
        raise MeshError(f"layers must be an integer >= 1, got {layers!r}")
    layers = int(layers)
    xs = _thin_columns(hplus, hminus, dx0, dx_min)
    top = eps * hplus(xs)
    bot = -eps * hminus(xs)
    thick = top - bot
    tiny = 1e-13 * eps * max(thick.max(), 1.0)

    # a column is layers + 1 nodes bottom to top, or one node where it has no thickness
    full = thick > tiny
    if np.any(~full[:-1] & ~full[1:]):
        raise MeshError("two adjacent degenerate columns; decrease dx_min")
    size = np.where(full, layers + 1, 1)
    start = np.concatenate([[0], np.cumsum(size)[:-1]])
    nodes = np.empty((int(size.sum()), 2))
    nodes[:, 0] = np.repeat(xs, size)
    nodes[start[~full], 1] = 0.5 * (bot[~full] + top[~full])
    nodes[start[full, None] + np.arange(layers + 1), 1] = np.linspace(
        bot[full], top[full], layers + 1, axis=1)

    # each column pair is split into layers quads of two triangles; beside a
    # degenerate column one of the two is flat and dropped, leaving a fan
    j = np.arange(layers)
    lf, rf = full[:-1, None], full[1:, None]
    l0, l1 = start[:-1, None] + lf * j, start[:-1, None] + lf * (j + 1)
    r0, r1 = start[1:, None] + rf * j, start[1:, None] + rf * (j + 1)
    quads = np.stack([np.stack([l0, r0, r1], axis=-1),
                      np.stack([l0, r1, l1], axis=-1)], axis=2)
    keep = np.broadcast_to(np.stack([rf, lf], axis=-1), quads.shape[:3])
    return TriangleMesh(nodes, _orient_ccw(nodes, quads[keep]))
