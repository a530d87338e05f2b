"""Variation formulas at the constant profile and the pattern-search optimizer."""

import math

import mpmath
import numpy as np
import pytest

from snlab import profiles, sl1d, variations as V

PI2 = math.pi ** 2
mpmath.mp.dps = 30


def test_cosine_moment_exact_against_mpmath_quadrature():
    rng = np.random.default_rng(17)
    for _ in range(4):
        phi = profiles.random_profile(rng, n_knots=9)
        want = float(mpmath.quad(
            lambda x: float(phi(float(x))) * mpmath.cos(2 * mpmath.pi * x),
            list(map(float, phi.knots))))
        assert V.integral_cos(phi, 2.0 * math.pi) == pytest.approx(want, abs=1e-12)


def test_first_variation_closed_forms_special_directions():
    one = V.linear_direction(0.0, 1.0)
    x = V.linear_direction(1.0)
    assert V.sigma_dot(one) == pytest.approx(PI2, rel=1e-14)
    assert V.mu_dot(one) == pytest.approx(0.0, abs=1e-12)
    assert V.sigma_dot(x) == pytest.approx(PI2 / 2.0, rel=1e-14)
    assert V.mu_dot(x) == pytest.approx(0.0, abs=1e-12)
    assert V.F_dot(x) == pytest.approx(0.0, abs=1e-12)
    cos = V.cosine_direction()
    assert V.F_dot(cos) == pytest.approx(-0.5, abs=1e-5)
    assert V.mu_dot(cos) == pytest.approx(-2.0 * PI2 * 0.5, rel=1e-5)


def test_first_variations_match_finite_differences():
    rng = np.random.default_rng(3)
    for k in range(3):
        phi = profiles.random_profile(rng)
        for r in V.first_variations(phi, elements=512, label=f"rand-{k}").values():
            assert r.relative_error < 1e-4
            assert r.observed_order > 1.8 or math.isnan(r.observed_order)


def test_affine_directions_are_flat_for_F():
    r = V.first_variations(V.linear_direction(0.7, 0.3), elements=1024, label="affine")["F"]
    assert r.analytic == pytest.approx(0.0, abs=1e-14)
    assert abs(r.finite_difference) < 1e-6


def test_second_variations_match_closed_forms():
    reports = V.second_variations_linear(1.0, elements=512)
    for quantity, closed in (
            ("sigma", (3.0 - PI2) / 8.0),
            ("mu", 1.5),
            ("F", (9.0 + PI2) / (8.0 * PI2))):
        r = reports[quantity]
        assert r.analytic == pytest.approx(closed, rel=1e-13)
        assert r.relative_error < 1e-3
    # scaling: second derivative along A x grows like A^2
    rA = V.second_variations_linear(2.0, elements=256)["F"]
    assert rA.analytic == pytest.approx(4.0 * (9.0 + PI2) / (8.0 * PI2), rel=1e-13)


def test_F_second_variation_positive_at_constant_profile():
    assert V.second_variations_linear(1.0, elements=256)["F"].analytic > 0.0


def test_each_perturbed_profile_is_assembled_once(monkeypatch):
    """sigma, mu and F are differenced from one f_record per profile: 1 + t phi
    at three steps t and their negatives, plus h = 1 for second order.  A
    solve per quantity took 18 and 21 assemblies."""
    calls, real = [], sl1d._assemble
    monkeypatch.setattr(sl1d, "_assemble", lambda h, n: calls.append(n) or real(h, n))
    first = V.first_variations(V.cosine_direction(), elements=64)
    assert len(calls) == 6
    assert list(first) == [r.quantity for r in first.values()] == ["sigma", "mu", "F"]
    calls.clear()
    second = V.second_variations_linear(1.0, elements=64)
    assert len(calls) == 7
    assert list(second) == [r.quantity for r in second.values()] == ["sigma", "mu", "F"]


def test_eigenfunction_derivative_residuals_tiny():
    res = V.eigenfunction_derivative_residuals(A=1.3)
    assert max(res.values()) <= 1e-10


def test_second_variation_quadrature_reproduction():
    q = V.second_variation_quadrature_check(A=0.9)
    assert q["sigma_ddot"] == pytest.approx(q["sigma_ddot_closed"], abs=1e-12)
    assert q["mu_ddot"] == pytest.approx(q["mu_ddot_closed"], abs=1e-12)


def test_eigenfunction_derivatives_solve_their_odes_on_fresh_grid():
    """Same residuals on a coarser random grid: not an artifact of n_grid."""
    res = V.eigenfunction_derivative_residuals(A=0.7, n_grid=199)
    assert res["v_ode_sup"] <= 1e-12
    assert res["u_ode_sup"] <= 1e-12


def test_optimizer_finds_known_extremals():
    res_min = V.optimize_F(knots=9, mode="min", restarts=2, seed=3,
                           elements=192, max_sweeps=10)
    res_max = V.optimize_F(knots=9, mode="max", restarts=2, seed=3,
                           elements=192, max_sweeps=10)
    assert res_min.value <= 1.0 + 1e-6
    assert res_min.value >= PI2 / 12.0 - 1e-3
    assert res_max.value >= 1.9
    assert res_max.value <= 4.0 + 1e-3
    assert profiles.is_admissible(res_min.profile)
    assert profiles.is_admissible(res_max.profile)
    # value traces are monotone in the chosen direction
    assert all(b <= a + 1e-12 for a, b in zip(res_min.trace, res_min.trace[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(res_max.trace, res_max.trace[1:]))


def test_optimizer_rejects_bad_arguments():
    with pytest.raises(ValueError):
        V.optimize_F(knots=3)
    with pytest.raises(ValueError):
        V.optimize_F(mode="saddle")
    with pytest.raises(ValueError, match="at least 1 restart"):
        V.optimize_F(knots=5, restarts=0)
