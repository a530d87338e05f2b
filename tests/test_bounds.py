"""Quartic bracketing, the constant K, and the uniform bound constants."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snlab import bounds

CBRT18 = 18.0 ** (1.0 / 3.0)


@pytest.mark.parametrize("tau", [1e-4, 0.01, 0.2, 0.5, math.sqrt(3) / 2, 0.87, 0.9, 0.95, 0.999])
def test_quartic_roots_certified_and_ordered(tau):
    q = bounds.quartic_roots(tau)
    assert q.roots.shape == (4,)
    assert np.all(np.diff(q.roots) >= -1e-12)
    assert np.all(q.residuals <= 1e-11 * np.maximum(q.scales, 1.0))
    for r, (lo, hi) in zip(q.roots, q.brackets):
        assert lo - 1e-12 <= r <= hi + 1e-12


@pytest.mark.parametrize("tau", [1e-6, 1e-3, 0.2, 0.5, 0.9])
def test_quartic_root_residuals_are_rounding_against_term_magnitudes(tau):
    """The scales are the sums of the quartic's term magnitudes, which stay
    bounded away from zero at the root y ~ tau/2 where (2u - 1) vanishes."""
    q = bounds.quartic_roots(tau)
    y = q.roots
    terms = np.abs([0.25 * tau * y ** 4, -2.0 * y ** 3, 5.0 * tau * y ** 2,
                    -4.0 * tau ** 2 * y, np.full(4, tau ** 3)])
    assert np.allclose(q.scales, terms.sum(axis=0), rtol=1e-15, atol=0.0)
    assert np.all(q.residuals <= 64 * np.finfo(float).eps * q.scales)


@pytest.mark.parametrize("tau", [0.05, 0.3, 0.7, 0.97])
def test_quartic_roots_against_numpy_companion_oracle(tau):
    # 1/4 tau y^4 - 2 y^3 + 5 tau y^2 - 4 tau^2 y + tau^3
    coeffs = [0.25 * tau, -2.0, 5.0 * tau, -4.0 * tau * tau, tau ** 3]
    numpy_roots = np.sort(np.roots(coeffs).real[np.abs(np.roots(coeffs).imag) < 1e-9])
    ours = bounds.quartic_roots(tau).roots
    assert np.allclose(ours, numpy_roots, rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("tau", [1e-4, 0.01, 0.2, 0.5, math.sqrt(3) / 2, 0.9, 0.95])
def test_quartic_roots_against_mpmath(tau):
    # at tau = sqrt(3)/2 the bracket end 2 tau / 3 = 1/sqrt(3) is itself a root
    with mpmath.workdps(50):
        t = mpmath.mpf(tau)
        exact = sorted(float(mpmath.re(z)) for z in mpmath.polyroots(
            [t / 4, -2, 5 * t, -4 * t * t, t ** 3], maxsteps=200, extraprec=200))
    assert bounds.quartic_roots(tau).roots == pytest.approx(exact, rel=1e-13)


def test_vieta_identities_hold():
    for tau in (0.02, 0.45, 0.93):
        r = bounds.quartic_roots(tau).roots
        assert math.fsum(r) == pytest.approx(8.0 / tau, rel=1e-11)
        assert r.prod() == pytest.approx(4.0 * tau * tau, rel=1e-9)


def test_bracket_sign_conditions_on_grid():
    taus = np.linspace(0.0, 1.0, 1002)[1:-1]
    for tau in taus:
        for lo, hi in bounds.root_brackets(float(tau)):
            plo = bounds.p_tau(float(tau), lo)
            phi = bounds.p_tau(float(tau), hi)
            assert plo * phi <= 0.0, f"no sign change in [{lo}, {hi}] at tau={tau}"


def test_constant_K_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="grid must be at least 1"):
        bounds.constant_K(0)


def test_constant_K_on_one_grid_point_searches_the_whole_interval():
    """A single grid point has no neighbours; the bounded search then spans
    [TAU_GRID_LO, TAU_GRID_HI] and finds the maximum a fine grid finds."""
    assert bounds.constant_K(1)[0] == pytest.approx(bounds.constant_K(1000)[0], abs=1e-9)


def test_f_of_tau_divides_by_the_second_quartic_root():
    for tau in np.linspace(0.0, 1.0, 52)[1:-1]:
        y2 = bounds.quartic_roots(tau).roots[1]
        assert bounds.f_of_tau(tau) == 2.0 * np.pi * tau * bounds.g_of_tau(tau) / y2


def test_constant_K_value_and_bound():
    K, tau_star = bounds.constant_K(1000)
    assert K <= 3.52
    assert 2.0 * (1.0 + K) <= 9.04
    assert 0.0 < tau_star < 1.0
    # refining the grid moves K by less than the grid resolution effect
    K2, _ = bounds.constant_K(2000)
    assert abs(K2 - K) < 5e-5
    assert K2 >= K - 1e-12      # finer grid can only find a larger maximum


def test_lower_bound_constant_and_branch_matching():
    c = bounds.lower_bound_constant()
    assert c == pytest.approx(math.pi ** 2 / (6.0 * CBRT18), abs=1e-15)
    b1, b2 = bounds.lower_bound_branches(CBRT18)
    assert abs(b1 - b2) <= 1e-12
    assert b1 == pytest.approx(c, abs=1e-12)
    # away from the crossing the two branches genuinely differ
    lo1, lo2 = bounds.lower_bound_branches(1.0)
    assert abs(lo1 - lo2) > 0.1


def test_constant_is_peak_of_branch_envelope():
    # min(pi^2/(6 delta), delta^2 pi^2/108) peaks exactly at delta = 18^(1/3)
    star = 18.0 ** (1.0 / 3.0)
    deltas = np.append(np.linspace(0.5, 6.0, 2001), star)
    envelope = [min(bounds.lower_bound_branches(d)) for d in deltas]
    c = bounds.lower_bound_constant()
    assert max(envelope) == pytest.approx(c, abs=1e-12)  # attained at the corner
    assert max(envelope[:-1]) <= c + 1e-12               # grid never exceeds it


def test_g_and_f_positive_on_interior():
    for tau in (0.05, 0.4, 0.8, 0.98):
        assert bounds.g_of_tau(tau) > 0.0
        assert bounds.f_of_tau(tau) > 0.0


def test_upper_bound_constant_consistent_with_K():
    """2 (1 + K), with K on the 1000-point grid."""
    K, _ = bounds.constant_K(1000)
    assert bounds.upper_bound_constant() == 2.0 * (1.0 + K)


def test_upper_bound_constant_is_computed_once(monkeypatch):
    calls = []
    constant_K = bounds.constant_K

    def counting_constant_K(*args):
        calls.append(args)
        return constant_K(*args)

    monkeypatch.setattr(bounds, "constant_K", counting_constant_K)
    bounds.upper_bound_constant.cache_clear()
    first = bounds.upper_bound_constant()
    assert bounds.upper_bound_constant() is first
    assert calls == [()]


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.05, max_value=5.0),
       st.floats(min_value=1.1, max_value=4.0),
       st.floats(min_value=1.0, max_value=3.0))
def test_per_domain_bound_scale_invariant(w, d_over_w, s):
    d = w * d_over_w
    r, p = 0.4 * w, 2.5 * d             # representative feasible functionals
    base = bounds.per_domain_upper_bound(w, d, r, p)
    scaled = bounds.per_domain_upper_bound(s * w, s * d, s * r, s * p)
    assert scaled == pytest.approx(base, rel=1e-12)
    assert base >= 2.0


def test_per_domain_bound_rejects_nonpositive():
    with pytest.raises(ValueError):
        bounds.per_domain_upper_bound(0.0, 1.0, 0.3, 3.0)
