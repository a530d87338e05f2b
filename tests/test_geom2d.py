"""Convex polygon functionals against brute-force oracles and exact shapes."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from snlab import diagram, geom2d, profiles
from snlab.geom2d import ConvexPolygon, GeometryError


def brute_diameter(v: np.ndarray) -> float:
    d = v[:, None, :] - v[None, :, :]
    return float(np.sqrt((d ** 2).sum(-1)).max())


def brute_width(v: np.ndarray) -> float:
    best = math.inf
    n = len(v)
    for i in range(n):
        e = v[(i + 1) % n] - v[i]
        nrm = np.array([-e[1], e[0]]) / np.hypot(*e)
        h = np.max((v - v[i]) @ nrm)
        best = min(best, float(h))
    return best


def brute_inradius(v: np.ndarray, grid: int = 400) -> float:
    """Dense-grid Chebyshev radius; a lower bound within one grid cell."""
    xmin, ymin = v.min(axis=0)
    xmax, ymax = v.max(axis=0)
    xs = np.linspace(xmin, xmax, grid)
    ys = np.linspace(ymin, ymax, grid)
    X, Y = np.meshgrid(xs, ys)
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    e = np.roll(v, -1, axis=0) - v
    nrm = np.stack([-e[:, 1], e[:, 0]], axis=1)
    nrm /= np.hypot(nrm[:, 0], nrm[:, 1])[:, None]
    d = np.min(pts @ nrm.T - np.einsum("ek,ek->e", nrm, v), axis=1)
    return float(d.max())


def test_convexity_validation():
    with pytest.raises(GeometryError):
        ConvexPolygon(np.array([[0, 0], [1, 0], [1, 1], [0.5, 0.4], [0, 1]], float))
    with pytest.raises(GeometryError):
        ConvexPolygon(np.array([[0, 0], [1, 0], [2, 0]], float))   # collinear
    square = ConvexPolygon(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], float))
    assert len(square.vertices) == 4


def test_clockwise_input_is_rejected():
    cw = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], float)
    with pytest.raises(GeometryError):
        ConvexPolygon(cw)


def test_named_shape_exact_functionals():
    t1 = geom2d.functionals(geom2d.named("T1"))
    assert t1.area == pytest.approx(math.sqrt(3.0) / 4.0, rel=1e-14)
    assert t1.perimeter == pytest.approx(3.0, rel=1e-14)
    assert t1.diameter == pytest.approx(1.0, rel=1e-14)
    assert t1.width == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)
    assert t1.inradius == pytest.approx(math.sqrt(3.0) / 6.0, rel=1e-9)

    t2 = geom2d.functionals(geom2d.named("T2"))
    assert t2.area == pytest.approx(0.5, rel=1e-14)
    assert t2.perimeter == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-14)
    assert t2.diameter == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert t2.inradius == pytest.approx(1.0 - math.sqrt(2.0) / 2.0, rel=1e-9)

    rect = geom2d.functionals(geom2d.named("rectangle:2:1"))
    assert rect.area == pytest.approx(2.0)
    assert rect.width == pytest.approx(1.0)
    assert rect.diameter == pytest.approx(math.sqrt(5.0))
    assert rect.inradius == pytest.approx(0.5, rel=1e-9)


def test_disk_polygon_approaches_disk_functionals():
    g = geom2d.functionals(geom2d.named("disk:256"))
    assert g.area == pytest.approx(math.pi, rel=1e-3)
    assert g.perimeter == pytest.approx(2.0 * math.pi, rel=1e-3)
    assert g.diameter == pytest.approx(2.0, rel=1e-3)
    assert g.width == pytest.approx(2.0, rel=1e-3)
    assert g.inradius == pytest.approx(1.0, rel=1e-3)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_calipers_match_brute_force(seed):
    poly = geom2d.random_hull(12, rng=np.random.default_rng(seed))
    v = poly.vertices
    assert geom2d.diameter(poly) == pytest.approx(brute_diameter(v), rel=1e-12)
    assert geom2d.width(poly) == pytest.approx(brute_width(v), rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_inradius_matches_grid_oracle(seed):
    poly = geom2d.random_hull(10, rng=np.random.default_rng(seed))
    r, center = geom2d.inradius(poly)
    r_grid = brute_inradius(poly.vertices)
    assert r >= r_grid - 1e-9
    assert r <= r_grid + 0.02 * max(1.0, r)     # grid resolution slack
    # the returned center realizes the radius
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    nrm = np.stack([-e[:, 1], e[:, 0]], axis=1)
    nrm /= np.hypot(nrm[:, 0], nrm[:, 1])[:, None]
    d = np.min(center @ nrm.T - np.einsum("ek,ek->e", nrm, v))
    assert d == pytest.approx(r, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_functional_inequalities(seed):
    g = geom2d.functionals(geom2d.random_hull(15, rng=np.random.default_rng(seed)))
    assert g.width <= g.diameter + 1e-12
    assert 2.0 * g.inradius <= g.width + 1e-9 * g.diameter
    assert g.perimeter <= math.pi * g.diameter + 1e-12
    assert g.area <= g.width * g.diameter


def test_thin_domain_geometry_exact():
    half = profiles.scale(profiles.triangular(0.5), 0.5)
    for eps in (0.4, 0.1):
        poly = geom2d.thin_domain(half, half, eps)
        # rhombus with horizontal diagonal 1 and vertical diagonal 2*eps*1
        assert geom2d.area(poly) == pytest.approx(eps, rel=1e-12)
        assert len(poly.vertices) == 4
        assert geom2d.diameter(poly) == pytest.approx(1.0, rel=1e-12)


def test_thin_domain_rectangle_from_constant_profile():
    half = profiles.scale(profiles.constant(), 0.5)
    poly = geom2d.thin_domain(half, half, 0.2)
    g = geom2d.functionals(poly)
    assert g.area == pytest.approx(0.2, rel=1e-12)
    assert g.width == pytest.approx(0.2, rel=1e-12)
    assert len(poly.vertices) == 4


def test_prune_collinear_removes_interior_edge_points():
    pts = np.array([[0, 0], [0.5, 0], [1, 0], [1, 1], [0, 1]], float)
    pruned = geom2d.prune_collinear(pts)
    assert len(pruned) == 4


def test_save_load_resolve_roundtrip(tmp_path):
    poly = geom2d.random_hull(8, rng=np.random.default_rng(3))
    path = tmp_path / "hull.json"
    path.write_text(json.dumps({"vertices": poly.vertices.tolist()}))
    back = geom2d.resolve(str(path))
    assert np.allclose(back.vertices, poly.vertices)
    assert geom2d.resolve("T1").vertices.shape == (3, 2)


def test_regular_polygon_area_formula():
    hexagon = geom2d.regular_polygon(6)
    assert hexagon.vertices[0].tolist() == [1.0, 0.0]
    assert geom2d.area(hexagon) == pytest.approx(0.5 * 6 * math.sin(math.pi / 3), rel=1e-12)


def test_convex_hull_of_grid_keeps_only_corners():
    xs, ys = np.meshgrid([0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
    hull = geom2d.convex_hull(np.column_stack([xs.ravel(), ys.ravel()]))
    assert hull.tolist() == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def test_convex_hull_drops_duplicates():
    pts = np.array([[1, 0], [0, 0], [1, 0], [0, 1], [0, 0], [0.2, 0.2]], float)
    assert geom2d.convex_hull(pts).tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("pts", [
    [[0, 0], [1, 1], [2, 2], [3, 3]],          # all collinear
    [[0, 0], [1, 1], [0, 0], [1, 1]],          # two distinct points
    [[0.5, 0.5]],
])
def test_convex_hull_rejects_degenerate_input(pts):
    with pytest.raises(GeometryError):
        geom2d.convex_hull(np.array(pts, float))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_convex_hull_is_ccw_from_lexicographic_minimum(seed):
    pts = np.random.default_rng(seed).random((15, 2))
    hull = geom2d.convex_hull(pts)
    first = min(map(tuple, pts))
    assert tuple(hull[0]) == first
    assert np.all(geom2d._edge_crosses(hull) > 0)
    ConvexPolygon(hull)   # strictly convex, counterclockwise


def monotone_chain_hull(points):
    """Andrew's monotone chain, the hull construction convex_hull replaced."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and ((chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                                       - (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    return np.array(half(pts)[:-1] + half(pts[::-1])[:-1])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 63), st.sampled_from([3, 4, 15, 60]))
def test_convex_hull_matches_monotone_chain(seed, count):
    pts = np.random.default_rng(seed).random((count, 2))
    assert np.array_equal(geom2d.convex_hull(pts), monotone_chain_hull(pts))


def thin_domain_loop(hplus, hminus, eps):
    """The loop form of thin_domain's vertex ring and duplicate filter."""
    xs = np.union1d(hplus.knots, hminus.knots)
    top, bot = eps * hplus(xs), -eps * hminus(xs)
    arr = np.array(list(zip(xs, bot)) + list(zip(xs[::-1], top[::-1])))
    keep = np.ones(arr.shape[0], dtype=bool)
    for i in range(arr.shape[0]):
        if np.allclose(arr[i], arr[(i + 1) % arr.shape[0]], rtol=0.0, atol=1e-15):
            keep[(i + 1) % arr.shape[0]] = False
    return geom2d.prune_collinear(arr[keep])


@pytest.mark.parametrize("name", ["tent:0.5", "tent:0.3", "const", "parabolic"])
def test_thin_domain_matches_loop_form(name):
    half = profiles.scale(profiles.resolve(name), 0.5)
    for eps in (0.2, 0.05):
        expected = thin_domain_loop(half, half, eps)
        assert np.array_equal(geom2d.thin_domain(half, half, eps).vertices, expected)
    lopsided = profiles.triangular(0.3)
    assert np.array_equal(geom2d.thin_domain(lopsided, half, 0.1).vertices,
                          thin_domain_loop(lopsided, half, 0.1))


def test_thin_domain_keeps_knots_closer_than_numpy_default_rtol():
    """Apexes 5e-7 apart in x are distinct vertices, not duplicates to merge."""
    hplus, hminus = profiles.triangular(0.3), profiles.triangular(0.3000005)
    poly = geom2d.thin_domain(hplus, hminus, 0.1)
    assert poly.vertices.tolist() == [[0.3000005, -0.2], [1.0, 0.0], [0.3, 0.2], [0.0, 0.0]]
    assert np.array_equal(poly.vertices, thin_domain_loop(hplus, hminus, 0.1))


THIN_HALVES = ["tent:0.5", "tent:0.3", "const", "parabolic"]


@pytest.mark.parametrize("one_sided", [False, True], ids=["symmetric", "one-sided"])
@pytest.mark.parametrize("name", THIN_HALVES)
def test_thin_domain_is_the_unit_domain_stretched(name, one_sided):
    """The collinearity floor scales with the area, so every eps keeps the
    vertices of eps = 1, stretched by (x, y) -> (x, eps y)."""
    half = profiles.scale(profiles.resolve(name), 0.5)
    hplus, hminus = ((profiles.resolve(name), profiles.scale(profiles.constant(), 0.0))
                     if one_sided else (half, half))
    unit = geom2d.thin_domain(hplus, hminus, 1.0).vertices
    mass = hplus.integral() + hminus.integral()
    for eps in (0.2, 1e-3, 1e-5):
        poly = geom2d.thin_domain(hplus, hminus, eps)
        assert np.array_equal(poly.vertices, unit * [1.0, eps])
        assert geom2d.area(poly) == pytest.approx(eps * mass, rel=1e-12, abs=0.0)


def test_convexity_test_is_translation_invariant():
    square = geom2d.named("square").vertices
    assert np.array_equal(ConvexPolygon(square + 1e6).vertices, square + 1e6)
    assert np.array_equal(geom2d.prune_collinear(square + 1e6), square + 1e6)


def test_collinearity_floor_on_fine_regular_polygons():
    """Turns of the unit-circumradius n-gon are about (2 pi / n)^3, against the
    floor COLLINEAR_TOL |area| / pi, about 1e-12."""
    assert geom2d.regular_polygon(60000).n == 60000
    with pytest.raises(GeometryError, match="strictly convex"):
        geom2d.regular_polygon(70000)


def test_inradius_of_a_too_thin_domain_is_a_geometry_error():
    """The half-parabolic strip builds at eps 1e-6, but adjacent unit normals
    of its edges agree to rounding and the skeleton cannot meet them."""
    half = profiles.scale(profiles.resolve("parabolic"), 0.5)
    poly = geom2d.thin_domain(half, half, 1e-6)
    assert poly.n == 4000
    with pytest.raises(GeometryError, match="inradius"):
        geom2d.functionals(poly)


# --- the rotating-caliper walks the antipodal table replaced, kept as references ---

def diameter_walk(v: np.ndarray) -> float:
    n = v.shape[0]
    if n == 3:
        d2 = max(float((v[i] - v[j]) @ (v[i] - v[j])) for i in range(3) for j in range(i))
        return float(np.sqrt(d2))
    best = 0.0
    j = 1
    for i in range(n):
        edge = v[(i + 1) % n] - v[i]
        # advance the antipodal vertex while the triangle area keeps growing
        while True:
            jn = (j + 1) % n
            cur = edge[0] * (v[j][1] - v[i][1]) - edge[1] * (v[j][0] - v[i][0])
            nxt = edge[0] * (v[jn][1] - v[i][1]) - edge[1] * (v[jn][0] - v[i][0])
            if nxt > cur:
                j = jn
            else:
                break
        for k in (i, (i + 1) % n):
            d = v[j] - v[k]
            best = max(best, float(d @ d))
    return float(np.sqrt(best))


def width_walk(v: np.ndarray) -> float:
    n = v.shape[0]
    best = np.inf
    j = 1
    for i in range(n):
        a = v[i]
        edge = v[(i + 1) % n] - a
        elen = float(np.hypot(edge[0], edge[1]))
        while True:
            jn = (j + 1) % n
            cur = edge[0] * (v[j][1] - a[1]) - edge[1] * (v[j][0] - a[0])
            nxt = edge[0] * (v[jn][1] - a[1]) - edge[1] * (v[jn][0] - a[0])
            if nxt > cur:
                j = jn
            else:
                break
        cur = edge[0] * (v[j][1] - a[1]) - edge[1] * (v[j][0] - a[0])
        best = min(best, cur / elen)
    return float(best)


def _strip(name, eps):
    half = profiles.scale(profiles.resolve(name), 0.5)
    return geom2d.thin_domain(half, half, eps)


def _walk_cases():
    cases = [(spec, geom2d.named(spec)) for spec in ("T1", "T2", "square", "rectangle:2:1",
                                                     "rectangle:4:1")]
    for family in ("randomTriangle", "randomQuadrilateral", "collapsingRectangle",
                   "randomPolygon"):
        cases += [(sid, poly) for sid, _, poly in
                  diagram._sample_shapes(diagram.Campaign(family, 12, seed=3, hmax=0.03))]
    cases += [(f"{2 * k}-gon", geom2d.regular_polygon(2 * k)) for k in (2, 3, 4, 8, 33, 128)]
    cases += [(f"hull-{s}", geom2d.random_hull(15, rng=np.random.default_rng(s))) for s in range(40)]
    cases += [(f"{name}-{eps}", _strip(name, eps)) for name in ("tent:0.5", "tent:0.3", "const")
              for eps in (0.2, 0.1, 0.05)]
    cases.append(("parabolic-0.2", _strip("parabolic", 0.2)))
    return cases


WALK_CASES = _walk_cases()


@pytest.mark.parametrize("name, poly", WALK_CASES, ids=[n for n, _ in WALK_CASES])
def test_antipodal_table_matches_caliper_walks(name, poly):
    """Same antipodal pairs as the walks; only the rounding of |d|^2 may differ."""
    for got, want in ((geom2d.diameter(poly), diameter_walk(poly.vertices)),
                      (geom2d.width(poly), width_walk(poly.vertices))):
        assert abs(got - want) <= 2 * np.spacing(want)


@pytest.mark.parametrize("n", [16, 52, 66, 94, 150])
def test_centrally_symmetric_polygons_match_brute_force(n):
    """Every edge has an exactly antiparallel twin, so every antipode is a tie
    that rounding decides; the caliper walk missed the longest chord here."""
    for rot in np.linspace(0.0, np.pi, 16, endpoint=False):
        th = 2.0 * np.pi * np.arange(n) / n + rot
        poly = ConvexPolygon(np.stack([np.cos(th), 0.3 * np.sin(th)], axis=1))
        for got, want in ((geom2d.diameter(poly), brute_diameter(poly.vertices)),
                          (geom2d.width(poly), brute_width(poly.vertices))):
            assert abs(got - want) <= 2 * np.spacing(want)


def test_diameter_and_width_use_linear_memory():
    strip = _strip("parabolic", 0.2)
    assert strip.n == 4000
    tracemalloc.start()
    try:
        geom2d.diameter(strip)
        geom2d.width(strip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20      # an n x n float array would take 128 MB


# --- the inradius from the straight skeleton, against the Chebyshev-center LP ---

def lp_inradius(poly: ConvexPolygon) -> tuple[float, np.ndarray]:
    """Chebyshev center by linear programming: maximize r subject to being r
    inside every edge line.  HiGHS's feasibility tolerances are absolute, 1e-7
    by default, which is 1e-6 of the radius of the parabolic strip at eps 0.005;
    at 1e-10 its radius agrees with the depth of its center."""
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    nrm = np.stack([-e[:, 1], e[:, 0]], axis=1) / np.hypot(e[:, 0], e[:, 1])[:, None]
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=np.hstack([-nrm, np.ones((len(v), 1))]),
                  b_ub=-np.einsum("ij,ij->i", nrm, v),
                  bounds=[(None, None), (None, None), (0, None)], method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success
    return float(res.x[2]), res.x[:2]


def _depth(poly: ConvexPolygon, point: np.ndarray) -> float:
    """Distance from ``point`` to the nearest edge line (negative outside)."""
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    nrm = np.stack([-e[:, 1], e[:, 0]], axis=1) / np.hypot(e[:, 0], e[:, 1])[:, None]
    return float(np.min(nrm @ point - np.einsum("ij,ij->i", nrm, v)))


def _assert_matches_lp(poly: ConvexPolygon, rel: float = 1e-11):
    r, center = geom2d.inradius(poly)
    r_lp, _ = lp_inradius(poly)
    assert abs(r - r_lp) <= rel * r_lp
    # the center realizes the radius (the center itself need not be unique)
    assert abs(_depth(poly, center) - r) <= rel * r_lp


@pytest.mark.parametrize("family", diagram.FAMILIES)
def test_inradius_matches_lp_on_campaign_families(family):
    for _, _, poly in diagram._sample_shapes(diagram.Campaign(family, 300, seed=11, hmax=0.03)):
        _assert_matches_lp(poly)


def test_inradius_matches_lp_on_named_shapes():
    for spec in ("T1", "T2", "square", "rectangle:2:1", "rectangle:1e-3:1", "disk:3",
                 "disk:6", "disk:7", "disk", "disk:256"):
        _assert_matches_lp(geom2d.named(spec))


@pytest.mark.parametrize("name", ["tent:0.5", "tent:0.3", "const", "parabolic"])
def test_inradius_matches_lp_on_thin_domains(name):
    half = profiles.scale(profiles.resolve(name), 0.5)
    zero = profiles.scale(profiles.constant(), 0.0)
    for eps in (0.2, 0.05, 1e-3):
        _assert_matches_lp(geom2d.thin_domain(half, half, eps))
        # one-sided: hminus = 0
        _assert_matches_lp(geom2d.thin_domain(profiles.resolve(name), zero, eps))


def test_inradius_closed_forms():
    exact = {"square": 0.5, "T1": math.sqrt(3.0) / 6.0, "T2": 1.0 - math.sqrt(2.0) / 2.0,
             "rectangle:2:1": 0.5, "rectangle:1:7": 0.5, "rectangle:1e-3:1": 5e-4}
    for spec, r in exact.items():
        assert abs(geom2d.inradius(geom2d.named(spec))[0] - r) <= 1e-12 * r
    for n in range(3, 257):
        r, center = geom2d.inradius(geom2d.regular_polygon(n))
        assert abs(r - math.cos(math.pi / n)) <= 1e-12
        assert np.abs(center).max() <= 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_inradius_invariant_under_rotation_scaling_and_relabelling(seed):
    rng = np.random.default_rng(seed)
    poly = geom2d.random_hull(12, rng)
    r, center = geom2d.inradius(poly)
    theta, scale, shift = rng.uniform(0, 2 * np.pi), rng.uniform(0.1, 10.0), rng.normal(size=2)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = ConvexPolygon(scale * poly.vertices @ rot.T + shift)
    r2, c2 = geom2d.inradius(moved)
    assert abs(r2 - scale * r) <= 1e-12 * scale * r
    assert _depth(moved, scale * rot @ center + shift) == pytest.approx(r2, rel=1e-12)
    for k in range(1, poly.n):
        assert geom2d.inradius(ConvexPolygon(np.roll(poly.vertices, k, axis=0)))[0] \
            == pytest.approx(r, rel=1e-13)


@pytest.mark.parametrize("spec", ["disk:6:junk", "disk:6:", "square:7", "T1:x", "T2:1", "T1:"])
def test_named_rejects_trailing_spec_parts(spec):
    with pytest.raises(GeometryError, match="bad shape spec"):
        geom2d.named(spec)


def test_named_disk_specs_unchanged():
    assert geom2d.named("disk").n == 256
    assert np.array_equal(geom2d.named("disk:6").vertices, geom2d.regular_polygon(6).vertices)
