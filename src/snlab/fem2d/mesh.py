"""Triangle meshes for convex polygons and thin strips.

General polygons get an isotropic mesh: boundary edges subdivided to the
target size, a hexagonal interior lattice clipped away from the boundary,
Delaunay triangulation, and a few rounds of Laplacian smoothing.  Convexity
makes Delaunay exact: the triangulated hull of the point set is the polygon
itself.  qhull triangulates the points once, a copy of them jittered by
``_JITTER`` (1e-10) of their bounding-box diagonal from a generator seeded
with ``_JITTER_SEED``, since the exact lattice's ties cost qhull about half
its time; the triangles that are flat on the exact points (qhull's caps on
collinear boundary points) are dropped there.  From then on vectorized
Lawson edge flips, with a final pass after the last round, keep the
triangulation Delaunay and check that no element inverts, at a fraction of a
qhull call.  The flips settle every in-circle tie on the diagonal through
the quad's lowest point index (a symbolic perturbation, Edelsbrunner &
Muecke 1990), and the triangles are returned in a canonical order, each
rotated to start at its lowest index and the rows sorted: a polygon mesh is
a function of its points (ring, then lattice), whatever triangulation qhull
returns.
Every edge question (smoothing neighbours, edge flips, boundary edges,
refinement midpoints, P2 connectivity) is answered by one table of unique
edges keyed by int64 ``lo * n + hi``.

Meshing happens in a canonical frame (centroid at the origin, unit area,
longest edge aligned with the x-axis) and is mapped back, so congruent or
scaled polygons receive congruent or scaled meshes and normalized spectral
quantities are invariant to machine precision, not just to discretization
accuracy.

The unit strip -hminus <= y <= hplus gets a structured anisotropic mesh:
marching columns in x (graded by the local thickness, so degenerate tips are
approached gracefully) with ``THIN_LAYERS`` cross layers.  Columns of zero
thickness collapse to a single node and are connected by fans.  Node columns
and column-pair triangles are built as whole arrays, counterclockwise.  The
strip of thickness eps is this mesh stretched by (x, y) -> (x, eps y).

Mesh sizes (``hmax``, ``dx0``) must be finite and positive and allow
at most ``MAX_THIN_COLUMNS`` strip columns; anything else, and any empty or
non-finite mesh, raises ``MeshError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay

from ..geom2d import ConvexPolygon, min_corner_angle_deg
from ..profiles import ProfileH

QUALITY_FLOOR_DEG = 20.0
# a mesh angle this far below min(floor, sharpest polygon corner) is the mesher's fault
QUALITY_MARGIN_DEG = 1.0
# strip columns allowed, far above any solvable strip (about 1.6k at dx0 = 0.005)
MAX_THIN_COLUMNS = 100_000
THIN_LAYERS = 4                  # cross layers of a strip mesh
_MAX_FLIP_SWEEPS = 20            # sweeps per flip pass (rounds + a final pass); passes need 0-1
_INCIRCLE_TIE = 1e-12            # in-circle determinants this small against their terms are ties
# a quad whose determinant is below -_TIE_BAND of its terms is no tie: the other
# diagonal's determinant is its negative up to rounding, and the two term sums of
# a mesh quad stay within a factor of about 10 of each other
_TIE_BAND = 1e-6
_SMOOTH_ROUNDS = 4               # smoothing rounds per polygon mesh
_JITTER = 1e-10                  # qhull's copy of the points moves this much, times their diagonal
_JITTER_SEED = 20260421          # the jitter's generator seed


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

    def _corner_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The x and y of every triangle's corners, as (m, 3) arrays."""
        return self.nodes[:, 0][self.triangles], self.nodes[:, 1][self.triangles]

    def hmax(self) -> float:
        x, y = self._corner_columns()
        dx, dy = x[:, [1, 2, 0]] - x, y[:, [1, 2, 0]] - y
        return float(np.sqrt((dx ** 2 + dy ** 2).max()))

    def min_angle_deg(self) -> float:
        """As ``geom2d.min_angle_deg`` over the three corners of every triangle."""
        x, y = self._corner_columns()
        (ax, bx), (ay, by) = ((w[:, [1, 2, 0]] - w, w[:, [2, 0, 1]] - w) for w in (x, y))
        cosang = (ax * bx + ay * by) / (np.hypot(ax, ay) * np.hypot(bx, by))
        return float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)).min()))


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


def _p2_connectivity(mesh: TriangleMesh):
    """P2 numbering of a mesh: the nodes (corners, then the midpoint of unique
    edge e as node n + e), the six-node triangles (corners, then midpoints
    m01, m12, m20) and the boundary triples (ends, midpoint)."""
    t = mesh.triangles
    n = mesh.n_nodes
    edges, uniq, inverse, first, counts = _edge_table(t, n)
    tri6 = np.concatenate([t, inverse.reshape(3, -1).T + n], axis=1)
    midpoints = 0.5 * (mesh.nodes[uniq[:, 0]] + mesh.nodes[uniq[:, 1]])
    nodes = np.concatenate([mesh.nodes, midpoints])

    # boundary edges are the single-owner rows of the table; a row's index is its midpoint dof
    bmid = np.flatnonzero(counts == 1)
    bedges = edges[first[bmid]]
    btriples = np.stack([bedges[:, 0], bedges[:, 1], bmid + n], axis=1)
    return nodes, tri6, btriples


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not (np.isfinite(value) and value > 0):
            raise MeshError(f"{name} must be finite and positive, got {value!r}")


def _signed_areas(nodes: np.ndarray, tris: np.ndarray) -> np.ndarray:
    x, y = nodes[:, 0], nodes[:, 1]
    i, j, k = tris.T
    x0, y0 = x[i], y[i]
    return (x[j] - x0) * (y[k] - y0) - (y[j] - y0) * (x[k] - x0)


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
    """A triangulation of ``points``, counterclockwise: qhull's, of a copy
    jittered by ``_JITTER`` times the bounding-box diagonal.

    The lattice and the subdivided edges are full of exact ties, which cost
    qhull about half its time; the flips that follow settle every tie by
    index, so a jittered start gives the same mesh.  The jitter is drawn
    from a generator seeded with ``_JITTER_SEED``.  Subdividing a straight
    polygon edge puts collinear points on the hull, which qhull covers with
    caps; every triangle with |2 area| on ``points`` at most 1e-10 times the
    squared bounding-box diagonal is dropped.  Raises ``MeshError`` unless
    every kept triangle is positive on ``points`` and every point is a corner
    of one.
    """
    span = points.max(axis=0) - points.min(axis=0)
    scale = float(np.hypot(*span))
    jitter = np.random.default_rng(_JITTER_SEED).uniform(-1.0, 1.0, points.shape)
    tris = np.asarray(Delaunay(points + _JITTER * scale * jitter).simplices, dtype=np.int64)
    area2 = _signed_areas(points, tris)
    keep = np.abs(area2) > 1e-10 * scale * scale
    if np.any(area2[keep] < 0):
        raise MeshError("triangulation inverts a triangle of the exact points")
    tris = tris[keep]
    if not np.bincount(tris.ravel(), minlength=len(points)).all():
        raise MeshError("triangulation leaves points unused")
    return tris


def _incircle(pts: np.ndarray, a, b, c, d) -> tuple[np.ndarray, np.ndarray]:
    """The in-circle determinant of d against the positive triangle (a, b, c),
    positive where d lies inside its circumcircle, and the sum of its terms'
    magnitudes."""
    x, y = pts[:, 0], pts[:, 1]
    xd, yd = x[d], y[d]
    (adx, bdx, cdx), (ady, bdy, cdy) = ([w[i] - wd for i in (a, b, c)]
                                        for w, wd in ((x, xd), (y, yd)))
    lift = [ux * ux + uy * uy for ux, uy in ((adx, ady), (bdx, bdy), (cdx, cdy))]
    det = perm = 0.0
    for lf, (ux, uy), (vx, vy) in zip(lift, ((bdx, bdy), (cdx, cdy), (adx, ady)),
                                      ((cdx, cdy), (adx, ady), (bdx, bdy))):
        p, q = ux * vy, uy * vx
        det = det + lf * (p - q)
        perm = perm + lf * (np.abs(p) + np.abs(q))
    return det, perm


def _incircle_fails(pts: np.ndarray, a, b, c, d) -> np.ndarray:
    """True where d lies inside the circumcircle of the positive triangle
    (a, b, c), by more than a tie: the in-circle determinant must exceed
    ``_INCIRCLE_TIE`` times the sum of its terms' magnitudes."""
    det, perm = _incircle(pts, a, b, c, d)
    return det > _INCIRCLE_TIE * perm


def _lawson_flips(pts: np.ndarray, tris: np.ndarray, quads=None):
    """Flip edges until the triangulation is Delaunay (Lawson, 1977).

    ``tris`` must be positively oriented.  An interior edge shared by (a, b, c)
    and (b, a, d) fails when d lies inside the circumcircle of (a, b, c), and
    flipping it gives (a, d, c) and (d, b, c).  A tie, a quad on which neither
    diagonal fails beyond ``_INCIRCLE_TIE``, settles on the diagonal through
    the quad's lowest point index: a symbolic perturbation that lifts the
    points in index order (Edelsbrunner & Muecke, 1990), under which the
    flips end at one triangulation of the points, whichever they start from.
    Each sweep flips the edges
    that are the lowest-index failing edge of both their triangles: an
    independent set, never empty while an edge fails.  Returns the triangles
    and their table (unique edges of ``_edge_table``; per interior edge its
    index, owners and quad a, b, c, d), which passed back as ``quads`` is
    rebuilt only after a flipping sweep; raises ``MeshError`` on an inverted
    or flat triangle or after ``_MAX_FLIP_SWEEPS`` sweeps.
    """
    n_tris = len(tris)
    for _ in range(_MAX_FLIP_SWEEPS):
        if np.any(_signed_areas(pts, tris) <= 0):
            raise MeshError("smoothing inverted a triangle")
        if quads is None:
            _, uniq, inverse, first, _ = _edge_table(tris, len(pts))
            # every directed row that is not its edge's first is the second
            # row of an interior edge: (a, b) in triangle t1, (b, a) in t2
            rows = np.arange(inverse.size)
            second = rows[rows != first[inverse]]
            edge = inverse[second]
            (k1, k2), (t1, t2) = np.divmod([first[edge], second], n_tris)
            quads = (uniq, edge, t1, t2, tris[t1, k1], tris[t1, (k1 + 1) % 3],
                     tris[t1, (k1 + 2) % 3], tris[t2, (k2 + 2) % 3])
        uniq, edge, t1, t2, a, b, c, d = quads
        det, perm = _incircle(pts, a, b, c, d)
        fails = det > _INCIRCLE_TIE * perm
        # a tie, where neither diagonal fails, flips to c-d when that diagonal
        # holds the quad's lowest index; only the band can hold a tie
        band = np.flatnonzero(~fails & (np.minimum(c, d) < np.minimum(a, b))
                              & (det >= -_TIE_BAND * perm))
        fails[band] = ~_incircle_fails(pts, d[band], c[band], a[band], b[band])
        fails = np.flatnonzero(fails)
        if fails.size == 0:
            return tris, quads
        # flip each failing edge that is the lowest failing edge of both owners
        e, s1, s2 = edge[fails], t1[fails], t2[fails]
        lowest = np.full(n_tris, uniq.shape[0])
        np.minimum.at(lowest, s1, e)
        np.minimum.at(lowest, s2, e)
        flip = fails[(lowest[s1] == e) & (lowest[s2] == e)]
        tris, quads = tris.copy(), None
        tris[t1[flip]] = np.stack([a[flip], d[flip], c[flip]], axis=1)
        tris[t2[flip]] = np.stack([d[flip], b[flip], c[flip]], axis=1)
    raise MeshError(f"edge flips did not settle in {_MAX_FLIP_SWEEPS} sweeps")


def _smooth(points: np.ndarray, n_fixed: int, rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """Laplacian smoothing: every point after the first ``n_fixed`` moves to
    the mean of its Delaunay neighbours, ``rounds`` times.

    qhull triangulates the input once; from then on Lawson flips keep the
    triangles Delaunay, before each round and once more after the last, so
    every round's motion meets the flips' inversion check.  A round changes
    only a few edges, so the flips' edge table is handed from call to call.
    The flips settle ties by index, so the triangles depend on the points
    alone, not on the triangulation qhull starts them from.  Returns the
    smoothed points and their triangles in a canonical order: each rotated
    to start at its lowest index, orientation kept, and the rows sorted.
    """
    n = points.shape[0]
    tris, quads = _delaunay(points), None
    for _ in range(rounds):
        tris, quads = _lawson_flips(points, tris, quads)
        # both directions of every unique edge, by (vertex, neighbour): each
        # sum runs over the neighbours in ascending order
        ends, other = np.divmod(np.sort((quads[0] @ [[n, 1], [1, n]]).ravel()), n)
        degree = np.bincount(ends, minlength=n)[n_fixed:, None]
        sums = np.stack([np.bincount(ends, weights=points[other, i], minlength=n)
                         for i in range(2)], axis=1)
        points = np.concatenate([points[:n_fixed], sums[n_fixed:] / degree])
    tris = _lawson_flips(points, tris, quads)[0]
    tris = tris[np.arange(len(tris))[:, None], (tris.argmin(axis=1)[:, None] + np.arange(3)) % 3]
    return points, tris[np.lexsort(tris.T[::-1])]


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
    pts = np.concatenate([ring, inner])
    pts, tris = _smooth(pts, ring.shape[0], _SMOOTH_ROUNDS)

    covered = 0.5 * _signed_areas(pts, tris).sum()
    target = 0.5 * float(np.abs((canon[:, 0] * np.roll(canon[:, 1], -1)
                                 - np.roll(canon[:, 0], -1) * canon[:, 1]).sum()))
    if abs(covered - target) > 1e-9 * target:
        raise MeshError("triangulation does not cover the polygon")

    nodes = pts @ rot * scale + [cx, cy]
    mesh = TriangleMesh(nodes, tris)
    ang = mesh.min_angle_deg()
    corner = min_corner_angle_deg(v)
    if ang < min(QUALITY_FLOOR_DEG, corner) - QUALITY_MARGIN_DEG:
        mesh = TriangleMesh(nodes, tris,
                            quality_warning=f"min angle {ang:.2f} deg more than "
                                            f"{QUALITY_MARGIN_DEG} deg below both the "
                                            f"{QUALITY_FLOOR_DEG} deg floor and the "
                                            f"polygon's smallest corner {corner:.2f} deg")
    return mesh


def refine(mesh: TriangleMesh) -> TriangleMesh:
    """Uniform 1-to-4 refinement; midpoints of straight boundary edges stay on them."""
    nodes, tri6, _ = _p2_connectivity(mesh)
    t, m = tri6[:, :3], tri6[:, 3:]               # m columns: m01, m12, m20
    tris = np.concatenate([
        np.stack([t[:, 0], m[:, 0], m[:, 2]], axis=1),
        np.stack([t[:, 1], m[:, 1], m[:, 0]], axis=1),
        np.stack([t[:, 2], m[:, 2], m[:, 1]], axis=1),
        m,
    ])
    return TriangleMesh(nodes, tris, quality_warning=mesh.quality_warning)


def _thin_columns(hplus: ProfileH, hminus: ProfileH, dx0: float) -> np.ndarray:
    """March a graded x-grid, steps dx0 / 8 to dx0; every profile knot is hit exactly."""
    knots = np.union1d(hplus.knots, hminus.knots)
    dx_min = dx0 / 8.0
    # each column is a knot or at least dx_min past its predecessor
    if 1.0 / dx_min + knots.size > MAX_THIN_COLUMNS:
        raise MeshError(f"dx0={dx0!r} allows over {MAX_THIN_COLUMNS} columns")
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


def thin_mesh(hplus: ProfileH, hminus: ProfileH, dx0: float) -> TriangleMesh:
    """Structured anisotropic mesh of the unit strip -hminus <= y <= hplus.

    Anisotropy is intentional: the spectral quantities of interest vary slowly
    across the strip, and slab-aligned elements keep the degree-of-freedom
    count bounded when the strip is stretched to thickness eps -> 0.  The
    isotropic quality floor does not apply.
    """
    _require_positive(dx0=dx0)
    xs = _thin_columns(hplus, hminus, dx0)
    top, bot = hplus(xs), -hminus(xs)
    thick = top - bot

    # a column is THIN_LAYERS + 1 nodes bottom to top, or one node where it has no thickness
    full = thick > 1e-13 * max(thick.max(), 1.0)
    if np.any(~full[:-1] & ~full[1:]):
        raise MeshError("two adjacent degenerate columns; decrease dx0")
    size = np.where(full, THIN_LAYERS + 1, 1)
    start = np.concatenate([[0], np.cumsum(size)[:-1]])
    nodes = np.empty((int(size.sum()), 2))
    nodes[:, 0] = np.repeat(xs, size)
    nodes[start[~full], 1] = 0.5 * (bot[~full] + top[~full])
    nodes[start[full, None] + np.arange(THIN_LAYERS + 1), 1] = np.linspace(
        bot[full], top[full], THIN_LAYERS + 1, axis=1)

    # each column pair is split into THIN_LAYERS quads of two triangles; beside a
    # degenerate column one of the two is flat and dropped, leaving a fan
    j = np.arange(THIN_LAYERS)
    lf, rf = full[:-1, None], full[1:, None]
    l0, l1 = start[:-1, None] + lf * j, start[:-1, None] + lf * (j + 1)
    r0, r1 = start[1:, None] + rf * j, start[1:, None] + rf * (j + 1)
    quads = np.stack([np.stack([l0, r0, r1], axis=-1),
                      np.stack([l0, r1, l1], axis=-1)], axis=2)
    keep = np.broadcast_to(np.stack([rf, lf], axis=-1), quads.shape[:3])
    return TriangleMesh(nodes, quads[keep])
