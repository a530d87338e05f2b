"""P2 assembly patch tests, eigenvalue accuracy, invariances, and rates."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from snlab import diagram, geom2d, profiles
from snlab.fem2d import (FEMError, assemble, neumann_mu1, polygon_mesh, refine,
                         steklov_sigma1, thin_mesh)
from snlab.fem2d import solve as fem_solve
from snlab.fem2d.solve import RESIDUAL_TOL

PI2 = math.pi ** 2


def test_patch_identities(square_solution):
    system = square_solution["system"]
    ones = np.ones(system.n_dofs)
    geo = square_solution["geo"]
    # constants are in the kernel of the stiffness form
    assert np.max(np.abs(system.K @ ones)) < 1e-12
    assert ones @ (system.M @ ones) == pytest.approx(geo.area, rel=1e-12)
    assert ones @ (system.B @ ones) == pytest.approx(geo.perimeter, rel=1e-12)


def test_linear_field_stiffness_energy(square_solution):
    """For u = a.x the Dirichlet energy int |grad u|^2 equals |a|^2 |Omega|."""
    system = square_solution["system"]
    a = np.array([0.7, -0.4])
    u = system.nodes @ a
    energy = u @ (system.K @ u)
    assert energy == pytest.approx((a @ a) * square_solution["geo"].area, rel=1e-11)


def test_square_neumann_eigenvalue_exact(square_solution):
    # unit square: mu1 = pi^2 (doubly degenerate)
    assert square_solution["mu"].eigenvalue == pytest.approx(PI2, rel=1e-6)


def test_unit_disk_values():
    from snlab import bessel
    poly = geom2d.named("disk:96")
    geo = geom2d.functionals(poly)
    mesh = polygon_mesh(poly, 0.12)
    system = assemble(mesh)
    jp = bessel.j1prime_first_zero()
    assert neumann_mu1(system).eigenvalue * geo.area == pytest.approx(
        math.pi * jp ** 2, rel=5e-3)
    assert steklov_sigma1(system).eigenvalue * geo.perimeter == pytest.approx(
        2.0 * math.pi, rel=5e-3)


def test_golden_triangle_values(t1_solution, t2_solution):
    assert t1_solution["mu"].eigenvalue == pytest.approx(16.0 * PI2 / 9.0, rel=2e-3)
    assert t2_solution["mu"].eigenvalue == pytest.approx(PI2, rel=2e-3)
    assert t1_solution["sigma"].eigenvalue == pytest.approx(1.2908, abs=0.004)
    assert t2_solution["sigma"].eigenvalue == pytest.approx(0.7310, abs=0.004)
    assert t1_solution["F"] == pytest.approx(1.962, abs=0.02)
    assert t2_solution["F"] == pytest.approx(1.977, abs=0.02)


def test_residual_certificates(square_solution, t1_solution):
    for sol in (square_solution, t1_solution):
        assert sol["mu"].residual <= 1e-9
        assert sol["sigma"].residual <= 1e-9
        assert sol["mu"].eigenvalue > 0.0
        assert sol["sigma"].eigenvalue > 0.0


def test_eigenvector_shapes(square_solution):
    system = square_solution["system"]
    assert square_solution["mu"].eigenvector.shape == (system.n_dofs,)
    assert square_solution["sigma"].eigenvector.shape == (system.n_dofs,)


def test_rigid_motion_and_dilation_invariance(hull_polygon):
    base = hull_polygon.vertices
    theta = 0.83
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    moved = geom2d.ConvexPolygon(2.5 * (base @ rot.T) + np.array([3.0, -1.0]))

    def normalized(poly, hmax):
        geo = geom2d.functionals(poly)
        system = assemble(polygon_mesh(poly, hmax))
        return (neumann_mu1(system).eigenvalue * geo.area,
                steklov_sigma1(system).eigenvalue * geo.perimeter)

    # hmax scales with the domain, so the canonical-frame meshes are similar
    y0, x0 = normalized(hull_polygon, 0.08)
    y1, x1 = normalized(moved, 0.08 * 2.5)
    assert y1 == pytest.approx(y0, rel=1e-8)
    assert x1 == pytest.approx(x0, rel=1e-8)


def test_refinement_convergence_rate():
    """P2 eigenvalues converge like h^4 on smooth-enough domains."""
    poly = geom2d.named("square")
    mesh = polygon_mesh(poly, 0.14)
    values = []
    for _ in range(3):
        values.append(neumann_mu1(assemble(mesh)).eigenvalue)
        mesh = refine(mesh)
    d1, d2 = values[1] - values[0], values[2] - values[1]
    rate = math.log2(abs(d1 / d2))
    assert rate >= 3.0
    assert abs(values[-1] - PI2) < abs(values[0] - PI2) / 30.0


def test_steklov_vs_neumann_ordering(square_solution):
    # on the square the normalized quantities keep 1 <= F <= 2
    assert 1.0 < square_solution["F"] < 2.0


def _schur_sigma1(system) -> float:
    """Second route to sigma1: eliminate the interior unknowns exactly (the
    discrete harmonic extension) and solve the dense boundary pencil."""
    bd = system.boundary_dofs
    interior = np.setdiff1d(np.arange(system.n_dofs), bd)
    K = system.K.tocsr()
    K_ib = K[interior][:, bd].toarray()
    S = K[bd][:, bd].toarray() - K_ib.T @ splu(K[interior][:, interior].tocsc()).solve(K_ib)
    B_bb = system.B.tocsr()[bd][:, bd].toarray()
    return float(eigh(0.5 * (S + S.T), 0.5 * (B_bb + B_bb.T), eigvals_only=True)[1])


def _tent_strip():
    half = profiles.scale(profiles.triangular(0.5), 0.5)
    return thin_mesh(half, half, 0.1, dx0=0.02)     # boundary-heavy: 22% boundary dofs


@pytest.mark.parametrize("mesh_of", [
    lambda: polygon_mesh(geom2d.named("square"), 0.1),
    lambda: polygon_mesh(geom2d.named("T1"), 0.1),
    _tent_strip,
], ids=["square", "T1", "tent-strip"])
def test_steklov_matches_dense_schur_complement(mesh_of):
    system = assemble(mesh_of())
    assert steklov_sigma1(system).eigenvalue == pytest.approx(_schur_sigma1(system), rel=1e-10)


def test_parabolic_strip_steklov_solve_stays_sparse():
    """36k dofs, 8000 of them on the boundary, where one dense boundary block
    alone would take 512 MB; the residual certificate must still hold."""
    half = profiles.scale(profiles.resolve("parabolic"), 0.5)
    system = assemble(thin_mesh(half, half, 0.2, dx0=0.005))
    assert system.boundary_dofs.size >= 8000
    tracemalloc.start()
    try:
        pair = steklov_sigma1(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair.residual <= RESIDUAL_TOL
    assert peak < 64 * 2 ** 20


def test_matrices_share_one_pattern_and_equal_their_own_conversions(monkeypatch):
    """K and M come out of one complex COO-to-CSC conversion and B out of its
    own, placed on their pattern.  The three share one indices and indptr;
    each equals the real conversion of its own element data bit for bit, and
    B is exactly zero off the boundary."""
    made = []
    coo = sparse.coo_matrix

    def recording_coo(*args, **kwargs):
        made.append(coo(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(sparse, "coo_matrix", recording_coo)
    system = assemble(polygon_mesh(geom2d.random_hull(15, rng=np.random.default_rng(7)), 0.05))
    monkeypatch.undo()
    K, M, B = system.K, system.M, system.B
    assert all(A.format == "csc" for A in (K, M, B))
    for A in (M, B):
        assert np.shares_memory(A.indices, K.indices) and np.shares_memory(A.indptr, K.indptr)
        assert np.array_equal(A.indices, K.indices) and np.array_equal(A.indptr, K.indptr)
    km = next(m for m in made if np.iscomplexobj(m.data))
    for part, got in ((km.data.real, K), (km.data.imag, M)):
        want = sparse.coo_matrix((part, (km.row, km.col)), shape=km.shape).tocsc()
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
    b = next(m for m in made if not np.iscomplexobj(m.data))
    want = sparse.coo_matrix((b.data, (b.row, b.col)), shape=b.shape).tocsc().tocoo()
    assert np.array_equal(np.asarray(B[want.row, want.col]).ravel(), want.data)
    assert np.count_nonzero(B.data) == np.count_nonzero(want.data)
    cols = np.repeat(np.arange(B.shape[1]), np.diff(B.indptr))
    on_boundary = np.isin(B.indices, system.boundary_dofs) & np.isin(cols, system.boundary_dofs)
    assert B.nnz > 2 * want.nnz and not B.data[~on_boundary].any()


def _eigsh_first_nonzero(system, W, shift):
    """Reference route: the ARPACK call that the Lanczos run replaced, at the
    solve's shift and with its start vector, on a factor with SuperLU's
    default supernode settings; returns (eigenvalue, residual, L + U nnz).
    The shift lies in (lambda_1 / 2, lambda_1), so lambda_1 is the eigenvalue
    nearest it."""
    K = system.K
    v0 = np.random.default_rng(0x5EED).standard_normal(system.n_dofs)
    lu = splu((K - shift * W).tocsc(), permc_spec="MMD_AT_PLUS_A")
    op = LinearOperator(K.shape, matvec=lu.solve, dtype=float)
    vals, vecs = eigsh(K, k=2, M=W, sigma=shift, which="LM", OPinv=op, v0=v0)
    i = np.argmin(np.abs(vals - shift))
    return (float(vals[i]), fem_solve._relative_residual(K, W, vals[i], vecs[:, i]),
            lu.L.nnz + lu.U.nnz)


def _parabolic_strip():
    half = profiles.scale(profiles.resolve("parabolic"), 0.5)
    return thin_mesh(half, half, 0.2, dx0=0.005)


def _campaign_mesh(i):
    sample = diagram._sample_shapes(diagram.Campaign("randomPolygon", 10, seed=7))[i]
    return polygon_mesh(geom2d.ConvexPolygon(sample.vertices), 0.03)


_LANCZOS_CASES = {
    "square": lambda: polygon_mesh(geom2d.named("square"), 0.1),
    "T1": lambda: polygon_mesh(geom2d.named("T1"), 0.1),
    "disk96": lambda: polygon_mesh(geom2d.named("disk:96"), 0.12),
    "tent-strip": _tent_strip,
    "parabolic-strip": _parabolic_strip,
    **{f"randomPolygon-{i:04d}": (lambda i=i: _campaign_mesh(i)) for i in range(10)},
}


@pytest.fixture(scope="module", params=list(_LANCZOS_CASES))
def lanczos_case(request):
    """An assembled case and its (W, pair) for both pencils, solved once."""
    system = assemble(_LANCZOS_CASES[request.param]())
    return system, ((system.M, neumann_mu1(system)), (system.B, steklov_sigma1(system)))


def test_lanczos_matches_eigsh(lanczos_case):
    system, solved = lanczos_case
    for W, pair in solved:
        value, residual, lu_nnz = _eigsh_first_nonzero(system, W, pair.shift)
        assert pair.eigenvalue == pytest.approx(value, rel=1e-12)
        # the eigenvector is as accurate as ARPACK's: a looser stop rule
        # (Ritz tolerance 1e-12) leaves residuals 7 to 1200 times larger
        assert pair.residual <= 2.0 * residual
        assert 2 < pair.iterations <= 40
        # the supernode settings change the factor's cost, not its fill
        assert pair.lu_nnz == lu_nnz


def test_shift_lies_below_first_eigenvalue(lanczos_case):
    """The pencil restricted to span{1, x, y} has eigenvalues 0 <= rho <=
    rho'; rho bounds lambda_1 from above (min-max), and the shift, a fixed
    fraction of rho, lies in (0, lambda_1), so no fallback ran.  Without the
    deflation of the constants the zero mode trips the guard everywhere."""
    system, solved = lanczos_case
    V = np.column_stack([np.ones(system.n_dofs), system.nodes])
    for W, pair in solved:
        rho = eigh(V.T @ (system.K @ V), V.T @ (W @ V), eigvals_only=True)[1]
        assert pair.shift == pytest.approx(fem_solve._SHIFT_FRACTION * rho, rel=1e-10)
        assert rho >= pair.eigenvalue
        assert 0.0 < pair.shift < pair.eigenvalue


_ZERO_CASES = {
    "tent-strip": _tent_strip,
    "square-0.05": lambda: polygon_mesh(geom2d.named("square"), 0.05),
    "randomPolygon-0000": lambda: _campaign_mesh(0),
}


@pytest.mark.parametrize("mesh_of", list(_ZERO_CASES.values()), ids=list(_ZERO_CASES))
def test_factored_matrix_equals_sparse_difference(monkeypatch, mesh_of):
    """The axpy on the shared pattern hands splu the matrix that the sparse
    subtraction K - sW gives, bit for bit, for both pencils.  K holds exact
    zeros on the strip and on the square; the subtraction drops them, and so
    must the axpy, or MMD orders them and the fill grows."""
    system = assemble(mesh_of())
    handed, real_splu = [], fem_solve.splu

    def recording_splu(A, *args, **kwargs):
        handed.append(A.copy())
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(fem_solve, "splu", recording_splu)
    for W, solve in ((system.M, neumann_mu1), (system.B, steklov_sigma1)):
        pair = solve(system)
        want = (system.K - pair.shift * W).tocsc()
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(handed[-1], attr), getattr(want, attr))


@pytest.mark.parametrize("mesh_of", list(_ZERO_CASES.values()), ids=list(_ZERO_CASES))
def test_solves_leave_the_system_untouched(mesh_of):
    """K, M and B share their index arrays; dropping the zeros of K - sW in
    place on them would rewrite all three."""
    system = assemble(mesh_of())

    def arrays():
        return [getattr(A, attr).copy() for A in (system.K, system.M, system.B)
                for attr in ("data", "indices", "indptr")]

    before = arrays()
    neumann_mu1(system)
    steklov_sigma1(system)
    assert all(np.array_equal(a, b) for a, b in zip(before, arrays()))


class _KeepsZeros(sparse.csc_matrix):
    """A CSC matrix whose copies keep their stored zeros."""

    def eliminate_zeros(self):
        pass


@pytest.mark.parametrize("mesh_of", list(_ZERO_CASES.values()), ids=list(_ZERO_CASES))
def test_products_skip_the_stored_zeros(monkeypatch, mesh_of):
    """B stores zeros on K's pattern off the boundary.  Lanczos multiplies by
    a copy of W without them, and the eigenpairs are bit-identical to a run
    whose products walk the stored zeros."""
    system = assemble(mesh_of())
    received, real_lanczos = [], fem_solve._lanczos

    def recording_lanczos(solve, W, *args):
        received.append(W)
        return real_lanczos(solve, W, *args)

    monkeypatch.setattr(fem_solve, "_lanczos", recording_lanczos)
    for W, kind in ((system.M, "neumann"), (system.B, "steklov")):
        pair = fem_solve._first_nonzero(system.K, W, system.nodes, kind)
        assert received[-1].nnz == np.count_nonzero(received[-1].data) == np.count_nonzero(W.data)
        full = fem_solve._first_nonzero(system.K, _KeepsZeros(W), system.nodes, kind)
        assert received[-1].nnz == W.nnz
        assert pair == full            # eigenvalue, residual, iterations, lu_nnz, shift
        assert np.array_equal(pair.eigenvector, full.eigenvector)
    assert system.B.nnz > np.count_nonzero(system.B.data)


@pytest.mark.parametrize("mesh_of", [
    lambda: polygon_mesh(geom2d.named("T1"), 0.1),
    lambda: _campaign_mesh(0),
], ids=["T1", "randomPolygon-0000"])
def test_overshooting_shift_falls_back(monkeypatch, mesh_of):
    """At 1.6 rho the shift lies above sigma_1, whose nu turns negative; the
    largest nu then belongs to a higher eigenvalue with a residual as small
    as any, so only the guard on the smallest Ritz value catches it."""
    system = assemble(mesh_of())
    expected = steklov_sigma1(system).eigenvalue
    monkeypatch.setattr(fem_solve, "_SHIFT_FRACTION", 1.6)
    pair = steklov_sigma1(system)
    assert pair.shift < 0.0
    assert pair.eigenvalue == pytest.approx(expected, rel=1e-12)
    assert pair.residual <= RESIDUAL_TOL


def test_nonpositive_shift_bound_raises():
    """With K negated the linear functions' Rayleigh quotients turn negative,
    so rho can bound no positive eigenvalue and no shift is formed."""
    system = assemble(polygon_mesh(geom2d.named("T1"), 0.2))
    flipped = dataclasses.replace(system, K=-system.K)
    with pytest.raises(FEMError, match="neumann Rayleigh-quotient bound"):
        neumann_mu1(flipped)


def test_lanczos_step_cap_raises(monkeypatch):
    monkeypatch.setattr(fem_solve, "_MAX_STEPS", 3)
    system = assemble(polygon_mesh(geom2d.named("T1"), 0.1))
    with pytest.raises(FEMError, match="did not converge in 3 steps"):
        neumann_mu1(system)
    with pytest.raises(FEMError, match="did not converge in 3 steps"):
        steklov_sigma1(system)


def test_lanczos_basis_grows_past_one_block(monkeypatch):
    system = assemble(polygon_mesh(geom2d.named("T1"), 0.1))
    expected = steklov_sigma1(system).eigenvalue
    monkeypatch.setattr(fem_solve, "_BLOCK", 4)
    pair = steklov_sigma1(system)
    assert pair.iterations > 4 + 1
    assert pair.eigenvalue == pytest.approx(expected, rel=1e-12)
    assert pair.residual <= RESIDUAL_TOL


def test_tridiagonal_eigensolve_failure_raises(monkeypatch):
    def failing(d, e, compute_v=1):
        return np.zeros(len(d)), np.eye(len(d)), 1

    monkeypatch.setattr(fem_solve, "dstevd", failing)
    system = assemble(polygon_mesh(geom2d.named("T1"), 0.1))
    with pytest.raises(FEMError, match="steklov tridiagonal eigensolve failed"):
        steklov_sigma1(system)


def test_factor_settings_survive_many_factors():
    """SuperLU's supernode settings run 2000 factors and solves in a fresh
    process without a crash."""
    script = textwrap.dedent("""
        import numpy as np
        from scipy.sparse.linalg import splu
        from snlab import geom2d
        from snlab.fem2d import assemble, polygon_mesh
        from snlab.fem2d.solve import _PANEL, _RELAX
        assert 1 <= _RELAX <= _PANEL
        systems = [assemble(polygon_mesh(geom2d.named(s), 0.2)) for s in ("T1", "square")]
        mats = [(s.K + w * W).tocsc() for s in systems for w, W in ((1.0, s.M), (0.5, s.B))]
        for i in range(2000):
            A = mats[i % len(mats)]
            lu = splu(A, permc_spec="MMD_AT_PLUS_A", relax=_RELAX, panel_size=_PANEL)
            assert np.allclose(A @ lu.solve(np.ones(A.shape[0])), 1.0)
        """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], env=env, timeout=300)
    assert done.returncode == 0


def test_lanczos_breakdown_raises():
    """OP = 2 I leaves no direction after the first, and the stop test is
    first taken after the second step.  The start is W-orthogonal to the
    deflated constants, which would remove ones(5) at once, and its unit
    vector and alpha are exact, so the step leaves exactly zero."""
    W = sparse.identity(5, format="csr")
    z = np.full(5, 1.0 / math.sqrt(5.0))
    v0 = np.array([1.0, -1.0, 1.0, -1.0, 0.0])
    with pytest.raises(FEMError, match="broke down at step 2"):
        fem_solve._lanczos(lambda x: 2.0 * x, W, v0, z, "test")
