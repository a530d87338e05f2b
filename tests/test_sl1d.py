"""1D weighted eigenvalue solvers: exact values, convergence, dual oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve_banded, cholesky_banded, eigh

from snlab import bessel, profiles, sl1d

PI2 = math.pi ** 2


def test_constant_profile_reproduces_pi_squared():
    h = profiles.constant()
    # raw second-order values land within ~2e-6; extrapolation reaches 1e-8
    assert sl1d.mu1(h, 2048).eigenvalue == pytest.approx(PI2, abs=1e-5)
    assert sl1d.sigma1(h, 2048).eigenvalue == pytest.approx(PI2, abs=1e-5)
    assert sl1d.mu1_extrapolated(h, 2048) == pytest.approx(PI2, abs=1e-8)
    assert sl1d.sigma1_extrapolated(h, 2048) == pytest.approx(PI2, abs=1e-8)


def test_constant_profile_eigenvector_is_cosine():
    r = sl1d.mu1(profiles.constant(), 512)
    x = np.linspace(0.0, 1.0, r.eigenvector.size)
    cos = np.cos(np.pi * x)
    cos /= np.linalg.norm(cos)
    v = r.eigenvector / np.linalg.norm(r.eigenvector)
    assert min(np.max(np.abs(v - cos)), np.max(np.abs(v + cos))) < 1e-4


def test_parabolic_star_sigma_is_twelve():
    h = profiles.parabolic_star()
    assert sl1d.sigma1_extrapolated(h, 2048) == pytest.approx(12.0, abs=1e-4)


def test_residuals_certified_small():
    for h in (profiles.constant(), profiles.triangular(0.3), profiles.parabolic_star()):
        for solver in (sl1d.mu1, sl1d.sigma1):
            r = solver(h, 512)
            assert r.residual <= 1e-9
            assert r.dofs == 513


def test_richardson_extrapolation_beats_raw_value():
    h = profiles.constant()
    raw = abs(sl1d.mu1(h, 512).eigenvalue - PI2)
    extr = abs(sl1d.mu1_extrapolated(h, 512) - PI2)
    assert extr < raw / 50.0


def test_tent_galerkin_matches_bessel_closed_form():
    for x0 in (0.2, 0.5, 0.8):
        tent = profiles.triangular(x0)          # unit mass, peak 2
        mu = sl1d.mu1_extrapolated(tent, 2048)
        sg = sl1d.sigma1_extrapolated(tent, 2048)
        assert mu == pytest.approx(bessel.mu1_tent(x0).value, rel=1e-6)
        # the boundary-type eigenvalue is linear in the weight scale
        assert sg == pytest.approx(2.0 * bessel.sigma1_tent(x0).value, rel=1e-6)
        assert sl1d.F_of_h(tent, 2048) == pytest.approx(2.0, abs=1e-4)


def test_f_record_fields_consistent():
    rec = sl1d.f_record(profiles.triangular(0.4))
    assert rec["F"] == pytest.approx(rec["mu1"] * rec["integral"] / rec["sigma1"], rel=1e-12)
    assert rec["integral"] == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_F_is_scale_invariant(seed):
    h = profiles.random_profile(np.random.default_rng(seed))
    doubled = profiles.scale(h, 2.0)
    assert sl1d.F_of_h(doubled, 256) == pytest.approx(sl1d.F_of_h(h, 256), rel=1e-11)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_F_is_mirror_invariant(seed):
    h = profiles.random_profile(np.random.default_rng(seed))
    assert sl1d.F_of_h(profiles.mirror(h), 256) == pytest.approx(
        sl1d.F_of_h(h, 256), rel=1e-9)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_F_within_proved_band(seed):
    h = profiles.random_profile(np.random.default_rng(seed))
    f = sl1d.F_of_h(h, 512)
    assert PI2 / 12.0 - 1e-3 <= f <= 4.0 + 1e-3


def test_kernel_oracle_agrees_with_galerkin_on_positive_profiles():
    """Dual-route check: the Green-kernel quadrature operator shares no
    assembly code with the Galerkin pencil, so agreement certifies both."""
    rng = np.random.default_rng(123)
    for _ in range(8):
        h = profiles.random_profile(rng, strictly_positive=True)
        galerkin = sl1d.sigma1_extrapolated(h, 1024)
        oracle = sl1d.sigma1_kernel_oracle(h)
        assert abs(galerkin - oracle) <= 1e-3 * max(1.0, abs(galerkin))


def test_kernel_oracle_converges_to_pi_squared_on_constant():
    # midpoint kernel discretization is second order in the quadrature count
    coarse = sl1d.sigma1_kernel_oracle(profiles.constant(), quad=640)
    fine = sl1d.sigma1_kernel_oracle(profiles.constant(), quad=2560)
    assert coarse == pytest.approx(PI2, rel=5e-6)
    assert fine == pytest.approx(PI2, rel=5e-7)
    assert abs(fine - PI2) < abs(coarse - PI2) / 8.0


def kernel_oracle_dense(h, quad=640):
    """The oracle with its former dense ``eigh`` top-eigenvalue solve."""
    y = (np.arange(quad) + 0.5) / quad
    k1 = sl1d._cumulative_t_over_h(h, y)
    k2 = sl1d._cumulative_t_over_h(profiles.mirror(h), 1.0 - y[::-1])[::-1]
    idx = np.arange(quad)
    G = (k1[np.minimum.outer(idx, idx)] + k2[np.maximum.outer(idx, idx)]) / quad
    G -= G.mean(axis=0, keepdims=True)
    G -= G.mean(axis=1, keepdims=True)
    return 1.0 / eigh(G, eigvals_only=True, subset_by_index=(quad - 1, quad - 1))[0]


def test_kernel_oracle_lanczos_matches_dense_eigh():
    rng = np.random.default_rng(123)
    hs = [profiles.constant(), profiles.triangular(0.3)]
    hs += [profiles.random_profile(rng, strictly_positive=True) for _ in range(6)]
    for h in hs:
        want = kernel_oracle_dense(h)
        assert sl1d.sigma1_kernel_oracle(h) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_kernel_oracle_memory_is_linear_in_quad():
    """The kernel matrix is applied by cumulative sums, never formed: at quad
    2560 a dense G would take 52 MB."""
    tracemalloc.start()
    try:
        sl1d.sigma1_kernel_oracle(profiles.triangular(0.3), quad=2560)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_degenerate_inputs_rejected():
    with pytest.raises((sl1d.SolverError, profiles.ProfileError, ValueError)):
        sl1d.mu1(profiles.constant(), 1)


# --- the replaced shifted power iteration, kept as the reference route ---

def _power_iteration_reference(p, tol=1e-9, max_iter=2000):
    """Shift-inverted power iteration on the deflated pencil: one banded
    Cholesky factor of A + cB, about twenty steps."""
    n_dofs = p.a_main.size
    ones = np.ones(n_dofs)
    w = p.bmat(ones)
    wtot = float(w @ ones)

    def deflate(z):
        return z - ones * ((w @ z) / wtot)

    x = np.linspace(0.0, 1.0, n_dofs)
    smooth = deflate(x - 0.5)
    c = max(0.5 * p.a_form(smooth) / p.b_form(smooth), 1e-12)
    rng = np.random.default_rng(0xC0FFEE)
    z = smooth + 1e-2 * deflate(rng.standard_normal(n_dofs))
    z /= np.sqrt(p.b_form(z))
    ab = np.zeros((2, n_dofs))
    ab[0, 1:] = p.a_off + c * p.b_off
    ab[1, :] = p.a_main + c * p.b_main
    cb = cholesky_banded(ab)
    eps = np.finfo(float).eps
    lam_old = np.inf
    stagnant = 0
    for _ in range(max_iter):
        y = deflate(cho_solve_banded((cb, False), p.bmat(z)))
        z = y / np.sqrt(p.b_form(y))
        lam = p.a_form(z)
        Az = p.amat(z)
        Bz = p.bmat(z)
        denom = np.linalg.norm(Az) + abs(lam) * np.linalg.norm(Bz)
        res = float(np.linalg.norm(Az - lam * Bz) / denom)
        az_abs = np.abs(p.a_main) * np.abs(z)
        az_abs[:-1] += np.abs(p.a_off) * np.abs(z[1:])
        az_abs[1:] += np.abs(p.a_off) * np.abs(z[:-1])
        floor = eps * float(np.linalg.norm(az_abs)) / denom
        stagnant = stagnant + 1 if abs(lam - lam_old) <= 4 * eps * abs(lam) else 0
        if res <= max(tol, 8.0 * floor) and (stagnant >= 2 or res <= tol):
            return lam
        lam_old = lam
    raise AssertionError("reference power iteration did not converge")


# --- the solver before its set-up was hoisted, kept as the reference route ---

def _solve_pencil_reference(p):
    """``sl1d._solve_pencil`` as it was before the seeds were cached and the
    roundoff floor was evaluated only when it can end the run."""
    n_dofs = p.a_main.size
    ones = np.ones(n_dofs)
    w = p.bmat(ones)
    wtot = float(w @ ones)
    if not wtot > 0:
        raise sl1d.SolverError("mass matrix is not positive on constants")

    def deflate(z):
        return z - ones * ((w @ z) / wtot)

    # shift on the scale of the target eigenvalue keeps the contrast of the
    # inverse iteration away from 1; it comes from the smooth seed alone
    # because the random safeguard component carries huge gradient energy
    x = np.linspace(0.0, 1.0, n_dofs)
    smooth = deflate(x - 0.5)
    c = max(0.5 * p.a_form(smooth) / p.b_form(smooth), 1e-12)
    rng = np.random.default_rng(0xC0FFEE)
    z = smooth + 1e-2 * deflate(rng.standard_normal(n_dofs))
    z /= np.sqrt(p.b_form(z))
    Bz = p.bmat(z)

    eps = np.finfo(float).eps
    unit = eps * float(np.max(p.a_main) / np.max(p.b_main))
    lam_old = np.inf
    stagnant = 0
    res = np.inf
    for it in range(1, sl1d._MAX_ITER + 1):
        y = deflate(sl1d._shifted_solve(p, -c if it <= sl1d._WARM_STEPS else lam, Bz, unit))
        norm = np.sqrt(max(p.b_form(y), 0.0))
        if not norm > 0:
            raise sl1d.SolverError("iteration collapsed onto the deflated subspace")
        z = y / norm
        lam = p.a_form(z)
        Az = p.amat(z)
        Bz = p.bmat(z)          # also the next step's right-hand side
        r = Az - lam * Bz
        denom = np.linalg.norm(Az) + abs(lam) * np.linalg.norm(Bz)
        res = float(np.linalg.norm(r) / denom)
        # roundoff floor of the matvec residual in this (badly scaled) basis
        az_abs = sl1d._tridiag_mul(np.abs(p.a_main), np.abs(p.a_off), np.abs(z))
        floor = eps * float(np.linalg.norm(az_abs)) / denom
        stagnant = stagnant + 1 if abs(lam - lam_old) <= 4 * eps * abs(lam) else 0
        if res <= max(sl1d._RESIDUAL_TOL, 8.0 * floor) and (stagnant >= 2 or res <= sl1d._RESIDUAL_TOL):
            sl1d._certify_first(p, lam)
            return sl1d.SpectralResult(lam, z, res, n_dofs, it)
        lam_old = lam
    raise sl1d.SolverError(f"Rayleigh-quotient iteration did not converge (residual {res:.2e})")


def _assert_same_bits(p):
    got, want = sl1d._solve_pencil(p), _solve_pencil_reference(p)
    assert got.eigenvalue == want.eigenvalue
    assert got.residual == want.residual
    assert got.iterations == want.iterations
    assert got.dofs == want.dofs
    assert np.array_equal(got.eigenvector, want.eigenvector)
    return got


def test_solver_matches_reference_bits_on_criterion_3_stream():
    """The first 400 criterion-3 profiles, profile 388's nudged singular pivot
    among them."""
    rng = np.random.default_rng(2026)
    for _ in range(400):
        for p in sl1d._assemble(profiles.random_profile(rng), 512):
            _assert_same_bits(p)


@pytest.mark.parametrize("elements", [256, 2048])
def test_solver_matches_reference_bits_on_reference_profiles(elements):
    for h in _reference_profiles():
        for p in sl1d._assemble(h, elements):
            _assert_same_bits(p)


@pytest.mark.parametrize("name, h, which", [
    ("tent0.05 sigma1", profiles.triangular(0.05), 1),
    ("constant mu1", profiles.constant(), 0),
    ("constant sigma1", profiles.constant(), 1),
])
def test_solver_matches_reference_bits_at_roundoff_floor(name, h, which):
    """At 8192 elements these runs stagnate above the residual tolerance and
    end through the roundoff-floor test."""
    r = _assert_same_bits(sl1d._assemble(h, 8192)[which])
    assert sl1d._RESIDUAL_TOL < r.residual < 2e-8
    assert r.iterations == 6


def test_seeds_are_read_only_and_shared_per_size():
    ramp, draw = sl1d._seeds(513)
    assert sl1d._seeds(513)[0] is ramp and sl1d._seeds(513)[1] is draw
    assert not ramp.flags.writeable and not draw.flags.writeable
    with pytest.raises(ValueError):
        draw[0] = 0.0
    assert np.array_equal(ramp, np.linspace(0.0, 1.0, 513) - 0.5)
    assert np.array_equal(draw, np.random.default_rng(0xC0FFEE).standard_normal(513))
    assert [a.size for a in sl1d._seeds(257)] == [257, 257]


@pytest.mark.xfail(strict=True, raises=sl1d.SolverError,
                   reason="at 32768 elements lam stagnates from step 4 on with residual 4.27e-7, "
                          "1.1 times the accepted 8x roundoff floor, so the run never ends")
@pytest.mark.parametrize("solver", [sl1d.mu1, sl1d.sigma1], ids=["mu1", "sigma1"])
def test_constant_profile_converges_at_32768_elements(solver):
    assert solver(profiles.constant(), 32768).residual <= 1e-9


def _reference_profiles():
    rng = np.random.default_rng(77)
    named = [profiles.constant(), profiles.triangular(0.5), profiles.triangular(0.3),
             profiles.triangular(0.05), profiles.parabolic_star()]
    return named + [profiles.random_profile(rng) for _ in range(4)]


@pytest.mark.parametrize("elements", [256, 512, 2048])
def test_rayleigh_quotient_iteration_matches_power_iteration(elements):
    for h in _reference_profiles():
        for p in sl1d._assemble(h, elements):
            r = sl1d._solve_pencil(p)
            assert r.eigenvalue == pytest.approx(_power_iteration_reference(p), rel=1e-12)
            assert r.residual <= 1e-9
            assert r.iterations <= 8


def test_singular_shift_is_nudged_not_kept(monkeypatch):
    """Profile 388 of the criterion-3 stream lands the shift exactly on a
    singular pivot of A - lam B (interior pencil, 512 elements)."""
    rng = np.random.default_rng(2026)
    for _ in range(388):
        profiles.random_profile(rng)
    interior, _ = sl1d._assemble(profiles.random_profile(rng), 512)
    real, infos = sl1d.dgtsv, []

    def spy(*args):
        out = real(*args)
        infos.append(out[-1])
        return out

    monkeypatch.setattr(sl1d, "dgtsv", spy)
    r = sl1d._solve_pencil(interior)
    assert interior.a_main.size in infos          # the singular pivot occurred
    assert r.residual <= 1e-9
    assert r.iterations <= 8


def test_solver_returns_only_certified_eigenvalues(monkeypatch):
    interior, _ = sl1d._assemble(profiles.triangular(0.3), 64)
    monkeypatch.setattr(sl1d, "_count_below", lambda p, mu: 2)
    with pytest.raises(sl1d.SolverError, match="inertia certificate"):
        sl1d._solve_pencil(interior)


@pytest.mark.parametrize("elements", [16, 32, 64])
def test_inertia_count_matches_dense_eigensolve(elements):
    rng = np.random.default_rng(elements)
    for h in (profiles.constant(), profiles.triangular(0.3), profiles.random_profile(rng)):
        for p in sl1d._assemble(h, elements):
            A = np.diag(p.a_main) + np.diag(p.a_off, 1) + np.diag(p.a_off, -1)
            B = np.diag(p.b_main) + np.diag(p.b_off, 1) + np.diag(p.b_off, -1)
            w = eigh(A, B, eigvals_only=True)
            for mu in np.concatenate([[-1.0], 0.5 * (w[:-1] + w[1:]), [2.0 * w[-1]]]):
                assert sl1d._count_below(p, mu) == np.sum(w < mu)
            # first nonzero eigenvalue passes the certificate, the second does not
            sl1d._certify_first(p, w[1])
            with pytest.raises(sl1d.SolverError, match="inertia certificate"):
                sl1d._certify_first(p, w[2])


def _count_assemblies(monkeypatch) -> list:
    """Empty the pencil cache and record the grid size of every assembly."""
    sl1d._pencils.cache_clear()
    sizes, assemble = [], sl1d._assemble
    monkeypatch.setattr(sl1d, "_assemble", lambda h, n: sizes.append(n) or assemble(h, n))
    return sizes


def test_mu1_and_sigma1_share_one_assembly(monkeypatch):
    h = profiles.triangular(0.3)
    interior, boundary = sl1d._assemble(h, 256)
    sizes = _count_assemblies(monkeypatch)
    m, s = sl1d.mu1(h, 256), sl1d.sigma1(h, 256)
    assert sizes == [256]
    assert m.eigenvalue == sl1d._solve_pencil(interior).eigenvalue
    assert s.eigenvalue == sl1d._solve_pencil(boundary).eigenvalue


def test_extrapolated_pair_assembles_each_grid_once(monkeypatch):
    h = profiles.triangular(0.3)
    sizes = _count_assemblies(monkeypatch)
    sl1d.mu1_extrapolated(h, 512)
    sl1d.sigma1_extrapolated(h, 512)
    assert sizes == [512, 256, 128]


def test_extrapolated_limits_assembles_each_grid_once(monkeypatch):
    h = profiles.triangular(0.3)
    mu, sg = sl1d.mu1_extrapolated(h, 512), sl1d.sigma1_extrapolated(h, 512)
    expected = (mu, sg, mu * h.integral() / sg)
    sizes = _count_assemblies(monkeypatch)
    assert sl1d.extrapolated_limits(h, 512) == expected
    assert sorted(sizes) == [128, 256, 512]


@pytest.mark.parametrize("elements", [16, 34])
def test_extrapolation_refuses_a_bad_count_before_any_solve(monkeypatch, elements):
    """Below 32 the coarsest Richardson grid would have fewer than 8 elements;
    a count not divisible by 4 has no quarter grid.  Neither assembles."""
    sizes = _count_assemblies(monkeypatch)
    for solver in (sl1d.mu1_extrapolated, sl1d.sigma1_extrapolated):
        with pytest.raises(ValueError, match="element count must be divisible by 4"):
            solver(profiles.triangular(0.3), elements)
    assert sizes == []


def test_equal_profiles_do_not_share_pencils(monkeypatch):
    """Profiles key the cache by identity: two equal profiles are two keys."""
    a, b = profiles.triangular(0.3), profiles.triangular(0.3)
    assert a == a and a != b
    sizes = _count_assemblies(monkeypatch)
    pa, pb = sl1d._pencils(a, 64), sl1d._pencils(b, 64)
    assert pa is not pb and sl1d._pencils(a, 64) is pa
    assert sizes == [64, 64]


def test_cached_pencils_are_read_only():
    for p in sl1d._pencils(profiles.triangular(0.3), 64):
        arrays = [v for v in vars(p).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 5
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0.0


def test_failed_assembly_is_not_cached(monkeypatch):
    h = profiles.triangular(0.3)
    _count_assemblies(monkeypatch)

    def failing(h, n):
        raise sl1d.SolverError("assembly failed")

    assemble = sl1d._assemble
    monkeypatch.setattr(sl1d, "_assemble", failing)
    with pytest.raises(sl1d.SolverError, match="assembly failed"):
        sl1d.mu1(h, 64)
    monkeypatch.setattr(sl1d, "_assemble", assemble)
    assert sl1d.mu1(h, 64).residual <= 1e-9
    assert sl1d._pencils.cache_info().currsize == 1


# --- the per-point loop of the kernel integrals, kept as the reference ---

def _cumulative_t_over_h_by_loop(h, pts):
    """int_0^p t / h(t) dt for sorted pts, one closed-form call per point."""
    k, v, s = h.knots, h.values, h.slopes()

    def piece_int(i, a, b):
        if b <= a:
            return 0.0
        beta = s[i]
        alpha = v[i] - beta * k[i]
        ha = alpha + beta * a
        hb = alpha + beta * b
        if ha == 0.0 and a == 0.0 and beta > 0.0:
            return (b - a) / beta
        if min(ha, hb) <= 0.0:
            raise ValueError("weight vanishes inside (0, 1); kernel integral diverges")
        if abs(beta) * (b - a) < 1e-9 * max(ha, hb):
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            out = 0.0
            for g in (mid - half * sl1d._INV_SQRT3, mid + half * sl1d._INV_SQRT3):
                out += half * g / (alpha + beta * g)
            return out
        return (b - a) / beta - (alpha / beta ** 2) * np.log1p(beta * (b - a) / ha)

    out = np.empty(pts.size)
    total = 0.0
    j = 0
    for i in range(s.size):
        lo, hi = k[i], k[i + 1]
        while j < pts.size and pts[j] <= hi:
            out[j] = total + piece_int(i, lo, min(pts[j], hi))
            j += 1
        if j == pts.size:
            break
        total += piece_int(i, lo, hi)
    if j < pts.size:
        raise ValueError("evaluation points must lie inside [0, 1]")
    return out


def _kernel_profiles():
    """Strictly positive, vanishing at both ends, constant, nearly constant."""
    rng = np.random.default_rng(123)
    hs = {f"positive{i}": profiles.random_profile(rng, strictly_positive=True)
          for i in range(3)}
    hs.update({f"tent{x0}": profiles.triangular(x0) for x0 in (0.5, 0.3, 0.05)})
    hs["parabolic"] = profiles.parabolic_star()
    rng = np.random.default_rng(2026)
    stream = [profiles.random_profile(rng) for _ in range(12)]
    hs.update({f"stream{i}": h for i, h in enumerate(stream) if h.values[0] == 0.0})
    hs["constant"] = profiles.constant()
    hs["nearly_constant"] = profiles.ProfileH([0.0, 0.5, 1.0], [1.0, 1.0 + 1e-12, 1.0])
    return hs


@pytest.mark.parametrize("quad", [16, 640, 2560])
@pytest.mark.parametrize("name, h", list(_kernel_profiles().items()))
def test_kernel_integrals_match_per_point_loop(name, h, quad):
    y = (np.arange(quad) + 0.5) / quad
    for hh, pts in ((h, y), (profiles.mirror(h), 1.0 - y[::-1])):
        want = _cumulative_t_over_h_by_loop(hh, pts)
        got = sl1d._cumulative_t_over_h(hh, pts)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * np.max(np.abs(want))


def test_kernel_integrals_reject_interior_zero_and_outside_points():
    pts = (np.arange(16) + 0.5) / 16
    dip = profiles.ProfileH([0.0, 0.5, 1.0], [1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="vanishes inside"):
        sl1d._cumulative_t_over_h(dip, pts)
    for outside in (np.append(pts, 1.5), np.insert(pts, 0, -0.1)):
        with pytest.raises(ValueError, match="inside \\[0, 1\\]"):
            sl1d._cumulative_t_over_h(profiles.constant(), outside)
