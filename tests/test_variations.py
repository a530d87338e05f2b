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
    sl1d._pencils.cache_clear()
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
    for A in (0.7, 1.0, 1.3):
        res = V.eigenfunction_derivative_residuals(A)
        assert list(res) == ["v_ode_sup", "u_ode_sup", "v_bc0", "v_bc1", "u_bc0", "u_bc1",
                             "v_orthogonality", "u_normalization"]
        assert max(res.values()) <= 1e-12


def test_second_variation_quadrature_reproduction():
    q = V.second_variation_quadrature_check(A=0.9)
    assert q["sigma_ddot"] == pytest.approx(q["sigma_ddot_closed"], abs=1e-12)
    assert q["mu_ddot"] == pytest.approx(q["mu_ddot_closed"], abs=1e-12)


def _product_rule_residual(f, rhs, x):
    """-f'' - pi^2 f - rhs at x for f = p cos(pi x) + q sin(pi x), with f''
    from the product rule rather than the module's (p, q) rule."""
    (p, q), (rp, rq) = f, rhs
    c, s = np.cos(np.pi * x), np.sin(np.pi * x)
    f2 = ((p.deriv(2)(x) - PI2 * p(x) + 2.0 * np.pi * q.deriv()(x)) * c
          + (q.deriv(2)(x) - PI2 * q(x) - 2.0 * np.pi * p.deriv()(x)) * s)
    return -f2 - PI2 * (p(x) * c + q(x) * s) - (rp(x) * c + rq(x) * s)


def test_eigenfunction_derivatives_solve_their_odes_on_fresh_grid():
    """The reported ODE residuals bound the residual forms at every point of a
    fresh grid and at random points; an independent product-rule evaluation
    of each residual stays below 1e-12 there too."""
    A = 0.7
    res, forms = V.eigenfunction_derivative_residuals(A), V.eigenfunction_derivatives(A)
    x = np.concatenate([np.linspace(0.0, 1.0, 199), np.random.default_rng(11).random(1000)])
    for f, rhs, key in (("v_dot", "rhs_v", "v_ode_sup"), ("u_dot", "rhs_u", "u_ode_sup")):
        assert res[key] <= 1e-12
        assert np.abs(V._at(V._ode_residual(forms[f], forms[rhs]), x)).max() <= res[key]
        assert np.abs(_product_rule_residual(forms[f], forms[rhs], x)).max() <= 1e-12


_COEFFICIENTS = [("v_dot", 0, 0), ("v_dot", 0, 1), ("v_dot", 1, 0), ("v_dot", 1, 1),
                 ("v_dot", 1, 2), ("u_dot", 0, 0), ("u_dot", 0, 1), ("u_dot", 1, 0)]


@pytest.mark.parametrize("name, part, k", _COEFFICIENTS,
                         ids=[f"{n}-{'pq'[part]}{k}" for n, part, k in _COEFFICIENTS])
def test_certificate_catches_each_perturbed_coefficient(monkeypatch, name, part, k):
    """A 1e-6 change to any one coefficient of v_dot or u_dot shows.  The
    cos(pi x) and sin(pi x) terms solve the homogeneous ODE, so only the side
    conditions and endpoint checks catch those."""
    real = V.eigenfunction_derivatives

    def mutant(A):
        forms = real(A)
        forms[name][part].coef[k] += 1e-6
        return forms

    monkeypatch.setattr(V, "eigenfunction_derivatives", mutant)
    assert max(V.eigenfunction_derivative_residuals(1.0).values()) > 1e-10


def test_optimizer_finds_known_extremals():
    res_min = V.optimize_F(knots=9, mode="min", restarts=2, seed=3, elements=192)
    res_max = V.optimize_F(knots=9, mode="max", restarts=2, seed=3, elements=192)
    assert res_min.value <= 1.0 + 1e-6
    assert res_min.value >= PI2 / 12.0 - 1e-3
    assert res_max.value >= 1.9
    assert res_max.value <= 4.0 + 1e-3
    for res in (res_min, res_max):
        report = profiles.validate(res.profile)
        assert report.ok and report.normalized
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
