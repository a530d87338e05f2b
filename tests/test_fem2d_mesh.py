"""Triangle meshing: coverage, quality, refinement, and thin strips."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import drift_corpus, strip_mesh

from snlab import diagram, geom2d, profiles
from snlab.fem2d import mesh as mesh_mod
from snlab.fem2d import polygon_mesh, refine, thin_mesh
from snlab.fem2d.mesh import (MeshError, QUALITY_FLOOR_DEG, THIN_LAYERS, TriangleMesh,
                              _p2_connectivity)


def _areas(mesh):
    return 0.5 * mesh_mod._signed_areas(mesh.nodes, mesh.triangles)


def _boundary_edges(mesh):
    """Edges on exactly one triangle, oriented with the domain on the left."""
    edges, _, _, first, counts = mesh_mod._edge_table(mesh.triangles, mesh.n_nodes)
    return edges[first[counts == 1]]


def test_mesh_covers_polygon_area_exactly(hull_polygon):
    mesh = polygon_mesh(hull_polygon, 0.06)
    assert _areas(mesh).sum() == pytest.approx(geom2d.area(hull_polygon), rel=1e-9)
    assert np.all(_areas(mesh) > 0.0)


def test_mesh_boundary_length_equals_perimeter(hull_polygon):
    mesh = polygon_mesh(hull_polygon, 0.06)
    edges = _boundary_edges(mesh)
    seg = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
    length = np.hypot(seg[:, 0], seg[:, 1]).sum()
    assert length == pytest.approx(geom2d.perimeter(hull_polygon), rel=1e-9)
    # boundary edges form a single closed loop
    assert sorted(edges[:, 0]) == sorted(edges[:, 1])


def test_mesh_quality_on_regular_shapes():
    for spec in ("T1", "T2", "square", "disk:64"):
        mesh = polygon_mesh(geom2d.resolve(spec), 0.08)
        assert mesh.min_angle_deg() >= QUALITY_FLOOR_DEG
        assert mesh.quality_warning is None


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 11: the boundary ring keeps all 256 vertices while the "
                          "interior lattice is spaced 0.8 hmax; min angle 16.74 deg at hmax 0.1 "
                          "and 7.07 deg at 0.2 (23.34 deg, no warning, at 0.03)")
@pytest.mark.parametrize("hmax", [0.1, 0.2])
def test_finely_sided_disk_meshes_without_warning_at_coarse_hmax(hmax):
    assert polygon_mesh(geom2d.named("disk:256"), hmax).quality_warning is None


def test_mesh_hmax_tracks_target(hull_polygon):
    for target in (0.1, 0.05):
        mesh = polygon_mesh(hull_polygon, target)
        assert mesh.hmax() <= 1.3 * target


def test_refine_quadruples_and_preserves_area(hull_polygon):
    mesh = polygon_mesh(hull_polygon, 0.1)
    fine = refine(mesh)
    assert fine.n_triangles == 4 * mesh.n_triangles
    assert _areas(fine).sum() == pytest.approx(_areas(mesh).sum(), rel=1e-12)
    assert fine.hmax() == pytest.approx(mesh.hmax() / 2.0, rel=1e-12)


def _refine_by_edge_table(mesh):
    """``refine`` as it was before it took the P2 numbering of
    ``_p2_connectivity``: (nodes, triangles) from its own edge table."""
    t = mesh.triangles
    _, uniq, inverse, _, _ = mesh_mod._edge_table(t, mesh.n_nodes)
    mid = 0.5 * (mesh.nodes[uniq[:, 0]] + mesh.nodes[uniq[:, 1]])
    m = inverse.reshape(3, -1).T + mesh.n_nodes
    tris = np.concatenate([np.stack([t[:, 0], m[:, 0], m[:, 2]], axis=1),
                           np.stack([t[:, 1], m[:, 1], m[:, 0]], axis=1),
                           np.stack([t[:, 2], m[:, 2], m[:, 1]], axis=1), m])
    return np.concatenate([mesh.nodes, mid]), tris


def test_refine_on_the_p2_numbering_matches_its_edge_table_route():
    """10 random polygons, T1, the square, a 12-gon and a tent strip refine
    bit for bit as before ``refine`` shared ``_p2_connectivity``."""
    campaign = diagram.Campaign("randomPolygon", 10, seed=7)
    polys = [poly for _, _, poly in diagram._sample_shapes(campaign)]
    polys += [geom2d.named(spec) for spec in ("T1", "square", "disk:12")]
    half = profiles.scale(profiles.triangular(0.3), 0.5)
    meshes = [polygon_mesh(poly, 0.03) for poly in polys] + [strip_mesh(half, half, 0.1, 0.02)]
    for mesh in meshes:
        fine = refine(mesh)
        nodes, tris = _refine_by_edge_table(mesh)
        assert np.array_equal(fine.nodes, nodes) and np.array_equal(fine.triangles, tris)
        assert fine.quality_warning == mesh.quality_warning


def test_collinear_cap_repair_regression():
    """Hull whose straight edges make qhull cap collinear boundary points
    with zero-area triangles; once they are dropped every point is used."""
    rng = np.random.default_rng(2926583794887213564)
    poly = geom2d.random_hull(15, rng=rng)
    mesh = polygon_mesh(poly, 0.03)
    assert np.all(_areas(mesh) > 0.0)
    used = np.unique(mesh.triangles)
    assert used.size == mesh.n_nodes
    assert _areas(mesh).sum() == pytest.approx(geom2d.area(poly), rel=1e-9)


def test_mesh_is_conforming(hull_polygon):
    """Every interior edge is shared by exactly two triangles."""
    mesh = polygon_mesh(hull_polygon, 0.07)
    t = mesh.triangles
    edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    assert set(counts.tolist()) <= {1, 2}


def test_degenerate_mesh_rejected():
    with pytest.raises(TypeError):
        TriangleMesh(np.zeros((3, 2)))       # triangles are required
    nodes = np.array([[0, 0], [1, 0], [2, 0]], float)
    with pytest.raises(MeshError):
        TriangleMesh(nodes, np.array([[0, 1, 2]]))


def test_thin_mesh_area_matches_profile_mass():
    half = profiles.scale(profiles.triangular(0.5), 0.5)
    eps = 0.1
    mesh = strip_mesh(half, half, eps, dx0=0.02)
    assert _areas(mesh).sum() == pytest.approx(eps, rel=1e-6)
    assert np.all(_areas(mesh) > 0.0)


def test_thin_mesh_degenerate_tips_collapse_to_single_nodes():
    half = profiles.scale(profiles.triangular(0.5), 0.5)
    mesh = thin_mesh(half, half, dx0=0.05)
    xs = mesh.nodes[:, 0]
    assert np.sum(np.isclose(xs, 0.0)) == 1
    assert np.sum(np.isclose(xs, 1.0)) == 1


def test_thin_mesh_rectangle_node_layout():
    half = profiles.scale(profiles.constant(), 0.5)
    mesh = strip_mesh(half, half, 0.125, dx0=0.25)
    # column spacing follows dx0, not eps (DOF count stays bounded as eps -> 0)
    cols = np.unique(np.round(mesh.nodes[:, 0], 12))
    assert np.allclose(cols, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert len(mesh.nodes) == 5 * (THIN_LAYERS + 1)  # THIN_LAYERS + 1 nodes per column
    assert mesh.n_triangles == 4 * 2 * THIN_LAYERS
    assert _areas(mesh).sum() == pytest.approx(0.125, rel=1e-12)


def test_thin_mesh_grades_columns_toward_degenerate_tips():
    half = profiles.scale(profiles.triangular(0.5), 0.5)
    mesh = strip_mesh(half, half, 0.1, dx0=0.2)
    cols = np.unique(np.round(mesh.nodes[:, 0], 12))
    dx = np.diff(cols)
    # steps shrink where the unscaled span h+ + h- does (near the tips)
    assert dx[0] < 0.75 * dx[len(dx) // 2]
    assert dx[-1] < 0.75 * dx[len(dx) // 2]
    # area = eps * integral(h+ + h-) with two half-mass profiles
    assert _areas(mesh).sum() == pytest.approx(0.1, rel=1e-9)


def test_thin_mesh_snaps_to_profile_knots():
    half = profiles.scale(profiles.triangular(0.3), 0.5)
    mesh = thin_mesh(half, half, dx0=0.07)
    assert np.any(np.isclose(mesh.nodes[:, 0], 0.3, atol=1e-12))


HALF_TENT = profiles.scale(profiles.triangular(0.5), 0.5)


@pytest.mark.parametrize("make", [
    lambda: thin_mesh(HALF_TENT, HALF_TENT, dx0=0),
    lambda: thin_mesh(HALF_TENT, HALF_TENT, dx0=math.inf),
    lambda: thin_mesh(HALF_TENT, HALF_TENT, dx0=1e-300),
    lambda: thin_mesh(HALF_TENT, HALF_TENT, dx0=1e-7),
    lambda: polygon_mesh(geom2d.resolve("square"), float("nan")),
    lambda: polygon_mesh(geom2d.resolve("square"), math.inf),
    lambda: polygon_mesh(geom2d.resolve("square"), 0.0),
    lambda: TriangleMesh(np.zeros((3, 2)), np.zeros((0, 3), dtype=int)),
    lambda: TriangleMesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, np.nan]]),
                         np.array([[0, 1, 2]])),
], ids=["dx0-zero", "dx0-inf", "dx0-1e-300", "dx0-1e-7", "hmax-nan",
        "hmax-inf", "hmax-zero", "no-triangles", "nan-node"])
def test_degenerate_inputs_raise_mesh_error(make):
    with pytest.raises(MeshError):
        make()


def test_quality_warnings_point_at_the_mesher():
    """A warning needs a 1-degree loss below min(floor, sharpest corner), so a
    mesh that only inherits a sharp polygon corner does not warn."""
    warned = {}
    for family in ("randomTriangle", "randomQuadrilateral", "collapsingTent"):
        for sid, _, poly in diagram._sample_shapes(diagram.Campaign(family, 12, seed=3)):
            mesh = polygon_mesh(poly, 0.03)
            if mesh.quality_warning is not None:
                warned[sid] = mesh.quality_warning
    assert sorted(warned) == ["collapsingTent-0009", "randomTriangle-0011"]
    assert "17.01" in warned["collapsingTent-0009"] and "18.80" in warned["collapsingTent-0009"]
    assert "18.25" in warned["randomTriangle-0011"] and "20.47" in warned["randomTriangle-0011"]


# --- loop references for the array routes: results must be bit-identical ---

def _smooth_by_vertex_loop(points, n_fixed, rounds):
    tri = mesh_mod.Delaunay(points)
    for _ in range(rounds):
        indptr, indices = tri.vertex_neighbor_vertices
        new = points.copy()
        for v in range(n_fixed, points.shape[0]):
            nb = indices[indptr[v]:indptr[v + 1]]
            if nb.size:
                new[v] = points[nb].mean(axis=0)
        points = new
        tri = mesh_mod.Delaunay(points)
    return points, tri.simplices


def _orient_ccw(nodes, tris):
    """``tris`` with every clockwise triangle reversed."""
    flip = mesh_mod._signed_areas(nodes, tris) < 0
    tris = tris.copy()
    tris[flip] = tris[flip][:, [0, 2, 1]]
    return tris


def _repair_slivers_by_edge_dict(pts, tris):
    span = pts.max(axis=0) - pts.min(axis=0)
    scale = float(np.hypot(*span))
    tol = 1e-10 * scale * scale
    bad = np.abs(mesh_mod._signed_areas(pts, tris)) <= tol
    if not bad.any():
        return tris
    work = tris[~bad]
    candidates = np.union1d(np.unique(tris[bad]),
                            np.setdiff1d(np.arange(len(pts)), np.unique(tris)))
    for _ in range(5):
        edge_owner: dict = {}
        for ti, t in enumerate(work):
            for k in range(3):
                a, b = t[k], t[(k + 1) % 3]
                edge_owner.setdefault((min(a, b), max(a, b)), []).append(
                    (ti, int(t[(k + 2) % 3])))
        replaced: set = set()
        fans = []
        for (a, b), owners in edge_owner.items():
            if len(owners) != 1 or owners[0][0] in replaced:
                continue
            cand = candidates[(candidates != a) & (candidates != b)]
            if cand.size == 0:
                continue
            A, B = pts[a], pts[b]
            ab = B - A
            length = float(np.hypot(*ab))
            d = pts[cand] - A
            off_line = np.abs(d[:, 0] * ab[1] - d[:, 1] * ab[0])
            t_par = (d @ ab) / (length * length)
            inside = (off_line <= 1e-12 * scale * length) \
                & (t_par > 0.0) & (t_par < 1.0)
            if not inside.any():
                continue
            ti, z = owners[0]
            replaced.add(ti)
            chain = [a, *cand[inside][np.argsort(t_par[inside])], b]
            fans += [(chain[k], chain[k + 1], z) for k in range(len(chain) - 1)]
        if not fans:
            break
        work = np.array([tuple(t) for ti, t in enumerate(work)
                         if ti not in replaced] + fans, dtype=tris.dtype)
    return _orient_ccw(pts, work)


def _p2_connectivity_by_dict(mesh):
    t = mesh.triangles
    edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    uniq, inverse = np.unique(np.sort(edges, axis=1), axis=0, return_inverse=True)
    tri6 = np.concatenate([t, inverse.reshape(3, -1).T + mesh.n_nodes], axis=1)
    nodes = np.concatenate([mesh.nodes, 0.5 * (mesh.nodes[uniq[:, 0]] + mesh.nodes[uniq[:, 1]])])
    key = np.sort(edges, axis=1)
    _, first, counts = np.unique(key, axis=0, return_index=True, return_counts=True)
    bedges = edges[first[counts == 1]]
    order = {tuple(e): i for i, e in enumerate(map(tuple, uniq))}
    bmid = np.array([order[tuple(e)] for e in map(tuple, np.sort(bedges, axis=1))])
    btriples = np.stack([bedges[:, 0], bedges[:, 1], bmid + mesh.n_nodes], axis=1)
    return nodes, tri6, btriples


def _thin_mesh_by_column_loop(hplus, hminus, dx0):
    layers = THIN_LAYERS
    xs = mesh_mod._thin_columns(hplus, hminus, dx0)
    top, bot = hplus(xs), -hminus(xs)
    thick = top - bot
    tiny = 1e-13 * max(thick.max(), 1.0)
    nodes, cols = [], []
    for x, yb, yt, t in zip(xs, bot, top, thick):
        start = sum(c.size for c in cols)
        if t <= tiny:
            cols.append(np.array([start]))
            nodes.append(np.array([[x, 0.5 * (yb + yt)]]))
        else:
            cols.append(np.arange(start, start + layers + 1))
            nodes.append(np.stack([np.full(layers + 1, x),
                                   np.linspace(yb, yt, layers + 1)], axis=1))
    allnodes = np.concatenate(nodes)
    tris = []
    for left, right in zip(cols[:-1], cols[1:]):
        if left.size == 1:
            tris += [(left[0], right[j], right[j + 1]) for j in range(right.size - 1)]
        elif right.size == 1:
            tris += [(left[j], right[0], left[j + 1]) for j in range(left.size - 1)]
        else:
            for j in range(layers):
                tris += [(left[j], right[j], right[j + 1]), (left[j], right[j + 1], left[j + 1])]
    return allnodes, _orient_ccw(allnodes, np.array(tris, dtype=np.int64))


def _assert_p2_matches_dict_route(mesh):
    for got, want in zip(_p2_connectivity(mesh), _p2_connectivity_by_dict(mesh)):
        assert np.array_equal(got, want)
    fine = refine(mesh)
    ref_nodes, ref_tri6, _ = _p2_connectivity_by_dict(mesh)
    t, m = ref_tri6[:, :3], ref_tri6[:, 3:]
    ref_tris = np.concatenate([np.stack([t[:, 0], m[:, 0], m[:, 2]], axis=1),
                               np.stack([t[:, 1], m[:, 1], m[:, 0]], axis=1),
                               np.stack([t[:, 2], m[:, 2], m[:, 1]], axis=1), m])
    assert np.array_equal(fine.nodes, ref_nodes)
    assert np.array_equal(fine.triangles, ref_tris)


def _boundary_ring_by_point_loop(vertices, h):
    pts = []
    n = vertices.shape[0]
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        nseg = max(1, int(np.ceil(np.hypot(*(b - a)) / h)))
        for k in range(nseg):          # omit b; the next edge supplies it
            t = k / nseg
            pts.append((1 - t) * a + t * b)
    return np.array(pts)


def _interior_lattice_by_row_loop(vertices, h, clearance):
    e = np.roll(vertices, -1, axis=0) - vertices
    normals = np.stack([-e[:, 1], e[:, 0]], axis=1)
    normals /= np.hypot(normals[:, 0], normals[:, 1])[:, None]
    xmin, ymin = vertices.min(axis=0)
    xmax, ymax = vertices.max(axis=0)
    dy = h * np.sqrt(3.0) / 2.0
    rows = np.arange(ymin + dy / 2, ymax, dy)
    pts = []
    for j, y in enumerate(rows):
        xs = np.arange(xmin + (0.25 + 0.5 * (j % 2)) * h, xmax, h)
        pts.append(np.stack([xs, np.full_like(xs, y)], axis=1))
    if not pts:
        return np.empty((0, 2))
    p = np.concatenate(pts)
    d = np.min(np.einsum("pk,ek->pe", p, normals)
               - np.einsum("ek,ek->e", normals, vertices), axis=1)
    return p[d >= clearance]


def test_interior_lattice_matches_row_loop():
    for family in diagram.FAMILIES:
        for _, _, poly in diagram._sample_shapes(diagram.Campaign(family, 12, seed=3)):
            for h in (0.024, 0.1, 0.7, 5.0):
                assert np.array_equal(mesh_mod._interior_lattice(poly.vertices, h, 0.44 * h),
                                      _interior_lattice_by_row_loop(poly.vertices, h, 0.44 * h))


def test_boundary_ring_matches_point_loop():
    for family in diagram.FAMILIES:
        for _, _, poly in diagram._sample_shapes(diagram.Campaign(family, 12, seed=3)):
            for h in (0.024, 0.1, 5.0):
                assert np.array_equal(mesh_mod._boundary_ring(poly.vertices, h),
                                      _boundary_ring_by_point_loop(poly.vertices, h))


def _reference_polygons():
    out = [("collinear-cap", geom2d.random_hull(15, rng=np.random.default_rng(2926583794887213564)))]
    for family in diagram.FAMILIES:
        out += [(sid, poly) for sid, _, poly in
                diagram._sample_shapes(diagram.Campaign(family, 2, seed=3))]
    out += [(f"seed7-{sid}", poly) for sid, _, poly in
            diagram._sample_shapes(diagram.Campaign("randomPolygon", 2, seed=7))]
    return out


REFERENCE_POLYGONS = _reference_polygons()


def _triangle_set(tris):
    return {frozenset(t) for t in np.asarray(tris).tolist()}


def _edge_set(tris):
    return {frozenset(e) for t in np.asarray(tris).tolist()
            for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))}


def _interior_quads(tris):
    """Rows (a, b, c, d), one per interior edge a < b of the positive
    triangles ``tris``: the edge's owners are (a, b, c) and (b, a, d)."""
    third = {}
    for t in np.asarray(tris).tolist():
        for k in range(3):
            third[t[k], t[(k + 1) % 3]] = t[(k + 2) % 3]
    return np.array([(a, b, c, third[b, a]) for (a, b), c in third.items()
                     if a < b and (b, a) in third], dtype=np.int64).reshape(-1, 4)


def _tie_diagonals(pts, tris):
    """{edge: other diagonal} over the interior edges of ``tris`` whose quad
    is a tie by ``_INCIRCLE_TIE``: the edge passes the in-circle test, and so
    would the other diagonal, which owns (d, c, a) and (c, d, b)."""
    a, b, c, d = _interior_quads(tris).T
    tie = ~mesh_mod._incircle_fails(pts, a, b, c, d) & ~mesh_mod._incircle_fails(pts, d, c, a, b)
    return {frozenset((p, q)): frozenset((r, s))
            for p, q, r, s in zip(a[tie].tolist(), b[tie].tolist(),
                                  c[tie].tolist(), d[tie].tolist())}


def _assert_equal_up_to_ties(pts, got, want, free):
    """The flipped triangles ``got`` and the cap-free qhull triangles ``want``
    give the ``free`` vertices the same neighbours, and differ elsewhere only
    inside tie quads of ``got``: each edge that ``want`` lacks is a tie
    diagonal, and ``want`` has its other diagonal instead.  Returns the
    edges that only ``got`` has."""
    ties = _tie_diagonals(pts, got)
    only_got, only_want = _edge_set(got) - _edge_set(want), _edge_set(want) - _edge_set(got)
    assert not [e for e in only_got | only_want if e & free]
    assert only_got <= ties.keys()
    assert only_want == {ties[e] for e in only_got}
    return only_got


def _assert_ties_keep_lowest(pts, tris):
    """Every tie quad of ``tris`` has the diagonal through its lowest index."""
    ties = _tie_diagonals(pts, tris)
    assert all(min(e) < min(other) for e, other in ties.items())
    return ties


@pytest.mark.parametrize("name, poly", REFERENCE_POLYGONS, ids=[n for n, _ in REFERENCE_POLYGONS])
def test_polygon_mesh_array_routes_match_loop_references(name, poly, monkeypatch):
    """Smoothing sums each vertex's neighbours in ascending order, the loop
    in qhull's order, so the points agree to rounding (4 ulp of the largest
    coordinate).  The final triangles come from edge flips, the loop's from
    qhull on its final points, whose flat caps on collinear hull points the
    dict route repairs: they agree as sets up to in-circle ties, and every
    tie keeps the diagonal through its lowest index.  The one qhull call, on
    a jittered copy, gives triangles positive on the exact points that match
    the sliver repair of the dict route on those points up to ties.  P2
    connectivity matches the dict route bit for bit."""
    smooth, delaunay = mesh_mod._smooth, mesh_mod._delaunay
    seen = []

    def checked_smooth(points, n_fixed, rounds):
        got = smooth(points, n_fixed, rounds)
        want = _smooth_by_vertex_loop(points, n_fixed, rounds)
        assert np.abs(got[0] - want[0]).max() <= 4 * np.spacing(np.abs(want[0]).max())
        repaired = _repair_slivers_by_edge_dict(*want)
        assert len(got[1]) == len(repaired)
        free = set(range(n_fixed, len(points)))
        if not _assert_equal_up_to_ties(got[0], got[1], repaired, free):
            assert _triangle_set(got[1]) == _triangle_set(repaired)
        _assert_ties_keep_lowest(got[0], got[1])
        return got

    def checked_delaunay(pts):
        got = delaunay(pts)
        want = _repair_slivers_by_edge_dict(pts, mesh_mod.Delaunay(pts).simplices)
        assert np.all(mesh_mod._signed_areas(pts, got) > 0)
        assert len(got) == len(want)
        if not _assert_equal_up_to_ties(pts, got, want, set()):
            assert _triangle_set(got) == _triangle_set(want)
        seen.append(len(got))
        return got

    monkeypatch.setattr(mesh_mod, "_smooth", checked_smooth)
    monkeypatch.setattr(mesh_mod, "_delaunay", checked_delaunay)
    mesh = polygon_mesh(poly, 0.03)
    assert len(seen) == 1
    _assert_p2_matches_dict_route(mesh)


# thin rectangle whose cocircular boundary quads flip back and forth without the tie rule
TIE_CASE = "collapsingRectangle-0008"
# symmetric tent whose cocircular trapezoids the final flips split otherwise than qhull
TIE_SPLIT_CASE = "collapsingTent-0010"
FLIP_CASES = REFERENCE_POLYGONS + [(TIE_CASE, None), (TIE_SPLIT_CASE, None)]


def _mesh_case(name, poly):
    return drift_corpus()[name]() if poly is None else polygon_mesh(poly, 0.03)


@pytest.mark.parametrize("name, poly", FLIP_CASES, ids=[n for n, _ in FLIP_CASES])
def test_flipped_triangulation_matches_fresh_delaunay_every_round(name, poly, monkeypatch):
    """Before each round's neighbour sums, and in the final pass after the
    last round, the free vertices have the neighbours that a fresh qhull call
    on the current points gives them; the triangulations differ elsewhere
    only at in-circle ties, each of which keeps the diagonal through its
    lowest index."""
    flips, smooth = mesh_mod._lawson_flips, mesh_mod._smooth
    fixed, rounds = [], []

    def recording_smooth(points, n_fixed, n_rounds):
        fixed.append(n_fixed)
        return smooth(points, n_fixed, n_rounds)

    def recording_flips(pts, tris, quads=None):
        out = flips(pts, tris, quads)
        rounds.append((pts.copy(), out[0]))
        return out

    monkeypatch.setattr(mesh_mod, "_smooth", recording_smooth)
    monkeypatch.setattr(mesh_mod, "_lawson_flips", recording_flips)
    _mesh_case(name, poly)
    assert len(rounds) == mesh_mod._SMOOTH_ROUNDS + 1
    ties = []
    for pts, tris in rounds:
        qhull = _repair_slivers_by_edge_dict(pts, mesh_mod.Delaunay(pts).simplices)
        ties.append(_assert_equal_up_to_ties(pts, tris, qhull, set(range(fixed[0], len(pts)))))
        _assert_ties_keep_lowest(pts, tris)
    if name == TIE_SPLIT_CASE:
        assert ties[-1]


def test_polygon_mesh_calls_qhull_once(monkeypatch):
    calls = []
    delaunay = mesh_mod.Delaunay

    def counting_delaunay(points):
        calls.append(len(points))
        return delaunay(points)

    monkeypatch.setattr(mesh_mod, "Delaunay", counting_delaunay)
    polygon_mesh(REFERENCE_POLYGONS[1][1], 0.03)
    assert len(calls) == 1


@pytest.mark.parametrize("name, poly", FLIP_CASES, ids=[n for n, _ in FLIP_CASES])
def test_reused_edge_table_matches_a_rebuilt_one(name, poly, monkeypatch):
    """Handing the flips' edge table from call to call gives the points and
    triangles, bit for bit, of rebuilding it on every call."""
    want = _mesh_case(name, poly)
    flips = mesh_mod._lawson_flips
    monkeypatch.setattr(mesh_mod, "_lawson_flips",
                        lambda pts, tris, quads=None: flips(pts, tris))
    got = _mesh_case(name, poly)
    assert np.array_equal(got.nodes, want.nodes)
    assert np.array_equal(got.triangles, want.triangles)


def test_last_round_inversion_raises(monkeypatch):
    """The final flip pass checks the last round's motion: moving the free
    point nearest the centre half its distance past a neighbour inverts the
    triangles they share.  A second qhull call would have triangulated those
    points afresh without complaint."""
    flips, calls, moved = mesh_mod._lawson_flips, [], []

    def moving_flips(pts, tris, quads=None):
        calls.append(len(pts))
        if len(calls) == mesh_mod._SMOOTH_ROUNDS + 1:
            v = int(np.argmin(np.hypot(pts[:, 0], pts[:, 1])))
            w = next(u for u in tris[np.any(tris == v, axis=1)][0] if u != v)
            pts[v] = pts[w] + 0.5 * (pts[w] - pts[v])
            moved.append(pts.copy())
        return flips(pts, tris, quads)

    monkeypatch.setattr(mesh_mod, "_lawson_flips", moving_flips)
    with pytest.raises(MeshError, match="smoothing inverted a triangle"):
        polygon_mesh(geom2d.resolve("square"), 0.1)
    assert len(moved) == 1
    assert np.all(mesh_mod._signed_areas(moved[0], mesh_mod._delaunay(moved[0])) > 0)


def test_polygon_meshes_are_delaunay_up_to_ties():
    """No interior edge of a drift-corpus polygon mesh fails the in-circle
    test beyond a tie."""
    for name, make in drift_corpus().items():
        if not name.startswith("strip-"):
            mesh = make()
            a, b, c, d = _interior_quads(mesh.triangles).T
            assert a.size and not mesh_mod._incircle_fails(mesh.nodes, a, b, c, d).any(), name


def _jittered_qhull(amount):
    """qhull on its input moved by ``amount`` times the bounding-box diagonal."""
    delaunay = mesh_mod.Delaunay

    def jittered(points):
        scale = np.hypot(*(points.max(axis=0) - points.min(axis=0)))
        return delaunay(points + amount * scale
                        * np.random.default_rng(5).uniform(-1.0, 1.0, points.shape))
    return jittered


def test_polygon_meshes_do_not_depend_on_qhulls_triangulation(monkeypatch):
    """Every drift-corpus polygon mesh is bit for bit the same whether qhull
    triangulates the exact points, the module's jittered copy or a copy
    jittered 100 times more: the flips settle each tie by index, and the
    triangles come in canonical order, each from its lowest index with the
    rows sorted."""
    makers = {name: make for name, make in drift_corpus().items() if not name.startswith("strip-")}
    want = {name: make() for name, make in makers.items()}
    for tris in (mesh.triangles for mesh in want.values()):
        assert np.array_equal(tris[:, 0], tris.min(axis=1))
        assert np.array_equal(tris, tris[np.lexsort(tris.T[::-1])])
    with monkeypatch.context() as m:
        m.setattr(mesh_mod, "_JITTER", 0.0, raising=False)
        exact = {name: make() for name, make in makers.items()}
    monkeypatch.setattr(mesh_mod, "Delaunay", _jittered_qhull(1e-8))
    coarse = {name: make() for name, make in makers.items()}
    for name, mesh in want.items():
        for other in (exact[name], coarse[name]):
            assert np.array_equal(other.nodes, mesh.nodes), name
            assert np.array_equal(other.triangles, mesh.triangles), name


def test_qhull_sees_one_fixed_jittered_copy(monkeypatch):
    """qhull gets a copy of the points moved by at most ``_JITTER`` times
    their diagonal, the same copy on every call."""
    seen, delaunay = [], mesh_mod.Delaunay

    def recording(points):
        seen.append(points.copy())
        return delaunay(points)

    monkeypatch.setattr(mesh_mod, "Delaunay", recording)
    pts = np.concatenate([mesh_mod._boundary_ring(geom2d.resolve("square").vertices, 0.1),
                          [[0.5, 0.5]]])
    first, second = mesh_mod._delaunay(pts), mesh_mod._delaunay(pts)
    assert np.array_equal(first, second) and np.array_equal(seen[0], seen[1])
    scale = np.hypot(*(pts.max(axis=0) - pts.min(axis=0)))
    moved = np.abs(seen[0] - pts)
    assert 0 < moved.max() <= mesh_mod._JITTER * scale


def _cocircular_quad():
    """Four points on one circle, counterclockwise from index 0."""
    angles = np.array([0.3, 1.9, 3.5, 5.0])
    return np.stack([0.2 + 1.7 * np.cos(angles), -0.4 + 1.7 * np.sin(angles)], axis=1)


@pytest.mark.parametrize("pts", [
    _cocircular_quad(),
    np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
], ids=["cocircular", "square"])
def test_a_tie_settles_on_the_diagonal_through_index_0(pts):
    """Points 0, 1, 2, 3 run counterclockwise round one circle: starting from
    either diagonal, the flips end on 0-2, and a second pass flips nothing."""
    want = {frozenset((0, 1, 2)), frozenset((0, 2, 3))}
    for tris in (np.array([[0, 1, 2], [0, 2, 3]]), np.array([[0, 1, 3], [1, 2, 3]])):
        assert _tie_diagonals(pts, tris)
        got = mesh_mod._lawson_flips(pts, tris)[0]
        assert _triangle_set(got) == want
        assert np.array_equal(mesh_mod._lawson_flips(pts, got)[0], got)


def test_tie_case_settles_within_the_sweep_cap(monkeypatch):
    """TIE_CASE's cocircular boundary quads settle in at most 4 sweeps per
    flip pass, from the jittered or the exact start."""
    monkeypatch.setattr(mesh_mod, "_MAX_FLIP_SWEEPS", 4)
    want = drift_corpus()[TIE_CASE]()
    monkeypatch.setattr(mesh_mod, "_JITTER", 0.0)
    got = drift_corpus()[TIE_CASE]()
    assert np.array_equal(got.triangles, want.triangles)


# --- the (m, 2) formulas that the coordinate-column predicates replaced ---

def _signed_areas_by_rows(nodes, tris):
    v = nodes[tris]
    return ((v[:, 1, 0] - v[:, 0, 0]) * (v[:, 2, 1] - v[:, 0, 1])
            - (v[:, 1, 1] - v[:, 0, 1]) * (v[:, 2, 0] - v[:, 0, 0]))


def _incircle_by_rows(pts, a, b, c, d):
    ad, bd, cd = pts[a] - pts[d], pts[b] - pts[d], pts[c] - pts[d]
    lift = [np.einsum("ij,ij->i", v, v) for v in (ad, bd, cd)]
    det = perm = 0.0
    for lf, u, v in zip(lift, (bd, cd, ad), (cd, ad, bd)):
        p, q = u[:, 0] * v[:, 1], u[:, 1] * v[:, 0]
        det = det + lf * (p - q)
        perm = perm + lf * (np.abs(p) + np.abs(q))
    return det, perm


def _hmax_by_rows(mesh):
    v = mesh.nodes[mesh.triangles]
    d = v[:, [1, 2, 0]] - v
    return float(np.sqrt((d[..., 0] ** 2 + d[..., 1] ** 2).max()))


def _min_angle_by_rows(mesh):
    v = mesh.nodes[mesh.triangles]
    return min(geom2d.min_angle_deg(v[:, (i + 1) % 3] - v[:, i], v[:, (i + 2) % 3] - v[:, i])
               for i in range(3))


def _predicate_inputs():
    rng = np.random.default_rng(11)
    t = rng.uniform(-3.0, 3.0, 400)
    angles = rng.uniform(0.0, 2.0 * np.pi, 400)
    return {"random": rng.normal(size=(400, 2)) * [2.0, 0.5] + [1.0, -3.0],
            "collinear": np.stack([0.1 + 0.7 * t, -0.2 + 0.3 * t], axis=1),
            "axis": np.stack([t, np.zeros_like(t)], axis=1),
            "cocircular": np.stack([0.3 + 1.3 * np.cos(angles), -0.7 + 1.3 * np.sin(angles)],
                                   axis=1)}, rng


def test_column_predicates_match_the_row_formulas():
    """``_signed_areas`` and ``_incircle`` on coordinate columns do the row
    formulas' operations in the same order: bit for bit equal results."""
    inputs, rng = _predicate_inputs()
    for name, pts in inputs.items():
        idx = rng.integers(0, len(pts), size=(3000, 4))
        assert np.array_equal(mesh_mod._signed_areas(pts, idx[:, :3]),
                              _signed_areas_by_rows(pts, idx[:, :3])), name
        for got, want in zip(mesh_mod._incircle(pts, *idx.T), _incircle_by_rows(pts, *idx.T)):
            assert np.array_equal(got, want), name


def test_mesh_quality_on_columns_matches_the_row_formulas():
    """``hmax`` and ``min_angle_deg`` equal the row formulas bit for bit on
    every drift-corpus mesh, strips included."""
    for name, make in drift_corpus().items():
        mesh = make()
        assert mesh.hmax() == _hmax_by_rows(mesh), name
        assert mesh.min_angle_deg() == _min_angle_by_rows(mesh), name


def test_flip_sweep_cap_raises(monkeypatch):
    monkeypatch.setattr(mesh_mod, "_MAX_FLIP_SWEEPS", 0)
    with pytest.raises(MeshError, match="did not settle in 0 sweeps"):
        polygon_mesh(geom2d.named("T1"), 0.1)


def test_lawson_flips_on_one_quad():
    """The diagonal b-c of the quad a, b, d, c flips to a-d when d lies in the
    circumcircle of (a, b, c); an exact tie flips to the diagonal through the
    lowest index, a-d again, and an inverted triangle raises."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.9, 0.9]])
    tris = np.array([[0, 1, 2], [1, 3, 2]])
    got, quads = mesh_mod._lawson_flips(pts, tris)
    assert _triangle_set(got) == {frozenset((0, 1, 3)), frozenset((0, 3, 2))}
    assert np.all(mesh_mod._signed_areas(pts, got) > 0)
    assert (0, 3) in set(map(tuple, quads[0].tolist()))
    square = pts.copy()
    square[3] = [1.0, 1.0]
    assert _triangle_set(mesh_mod._lawson_flips(square, tris)[0]) == _triangle_set(got)
    with pytest.raises(MeshError, match="inverted"):
        mesh_mod._lawson_flips(pts, tris[:, ::-1])


SLIVER_PTS = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [1.0, 0.0], [0.0, 1.0]])
SLIVER_TRIS = np.array([[1, 2, 0], [0, 3, 1], [0, 4, 2]])


def test_points_only_on_caps_raise(monkeypatch):
    """Points 3 and 4 lie on zero-area caps alone; once the caps are dropped
    they are unused, and the triangulation is refused."""
    monkeypatch.setattr(mesh_mod, "Delaunay", lambda pts: SimpleNamespace(simplices=SLIVER_TRIS))
    with pytest.raises(MeshError, match="unused"):
        mesh_mod._delaunay(SLIVER_PTS)


def test_point_left_out_without_caps_raises(monkeypatch):
    """A triangulation that skips the last point (an interior lattice point)
    and has no caps still covers the polygon, but leaves a node unused."""
    delaunay = mesh_mod.Delaunay

    def leaving_one_out(points):
        tris = delaunay(points[:-1]).simplices
        area2 = mesh_mod._signed_areas(points, tris)
        return SimpleNamespace(simplices=tris[np.abs(area2) > 1e-12])

    monkeypatch.setattr(mesh_mod, "Delaunay", leaving_one_out)
    with pytest.raises(MeshError, match="unused"):
        polygon_mesh(geom2d.resolve("square"), 0.1)


def test_triangle_inverted_on_the_exact_points_raises(monkeypatch):
    """A triangle that is not positive on the exact points is refused, caps
    aside."""
    monkeypatch.setattr(mesh_mod, "Delaunay",
                        lambda pts: SimpleNamespace(simplices=SLIVER_TRIS[:1, ::-1]))
    with pytest.raises(MeshError, match="inverts"):
        mesh_mod._delaunay(SLIVER_PTS[:3])


def _halves(h):
    return profiles.scale(h, 0.5), profiles.scale(h, 0.5)


@pytest.mark.parametrize("hplus, hminus, dx0", [
    (*_halves(profiles.triangular(0.5)), 0.005),
    (*_halves(profiles.triangular(0.3)), 0.005),
    (*_halves(profiles.constant()), 0.005),
    (*_halves(profiles.resolve("parabolic")), 0.005),
    (*_halves(profiles.triangular(0.5)), 0.05),
    (*_halves(profiles.constant()), 0.25),
    (*_halves(profiles.triangular(0.5)), 0.2),
    (profiles.scale(profiles.triangular(0.2), 0.7),
     profiles.scale(profiles.resolve("parabolic"), 0.3), 0.005),
    (profiles.triangular(0.3), profiles.scale(profiles.constant(), 0.0), 0.005),
    (profiles.scale(profiles.constant(), 0.0), profiles.triangular(0.3), 0.005),
], ids=["tent", "tent0.3", "rectangle", "parabolic", "tips", "layout", "graded",
        "asymmetric", "above-only", "below-only"])
def test_thin_mesh_array_routes_match_loop_references(hplus, hminus, dx0):
    """The loop reference orients its triangles; the array route builds them
    counterclockwise, one-sided strips included."""
    mesh = thin_mesh(hplus, hminus, dx0=dx0)
    nodes, tris = _thin_mesh_by_column_loop(hplus, hminus, dx0)
    assert np.array_equal(mesh.nodes, nodes)
    assert np.array_equal(mesh.triangles, tris)
    _assert_p2_matches_dict_route(mesh)


def _edge_table_by_stable_unique(tris, n_nodes):
    """The edge table with its former stable ``np.unique(return_index=True)``."""
    edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    key = edges.min(axis=1).astype(np.int64) * n_nodes + edges.max(axis=1)
    ukey, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True)
    return edges, np.stack(np.divmod(ukey, n_nodes), axis=1), inverse, first, counts


def test_edge_table_matches_stable_unique_reference(monkeypatch):
    """Every edge table built while meshing the drift corpus and taking its
    P2 connectivity equals the stable ``np.unique`` route in all five
    outputs, dtypes included."""
    table, calls = mesh_mod._edge_table, []

    def checked_table(tris, n_nodes):
        got = table(tris, n_nodes)
        for a, b in zip(got, _edge_table_by_stable_unique(tris, n_nodes)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        calls.append(len(tris))
        return got

    monkeypatch.setattr(mesh_mod, "_edge_table", checked_table)
    for make in drift_corpus().values():
        _p2_connectivity(make())
    assert len(calls) > 2 * 110
