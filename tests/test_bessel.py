"""Tent-profile equations and closed forms against an mpmath oracle."""

import math

import mpmath
import numpy as np
import pytest

from snlab import bessel

mpmath.mp.dps = 30


@pytest.mark.parametrize("s", [0.0, 0.3, 1.0, 2.5, 3.9, 4.0, 4.1, 7.7, 13.0, 25.0, 40.0])
def test_tent_disc_matches_mpmath(s):
    """The discriminant both tent equations solve, -(J0(a) J1(b) + J0(b) J1(a))
    at a = c s x0 and b = c s (1 - x0), against mpmath."""
    for x0, arg_scale in ((0.5, 1.0), (0.3, 2.0), (0.8, 1.0)):
        a, b = arg_scale * s * x0, arg_scale * s * (1.0 - x0)
        want = -(mpmath.besselj(0, a) * mpmath.besselj(1, b)
                 + mpmath.besselj(0, b) * mpmath.besselj(1, a))
        assert bessel._tent_disc(s, x0, arg_scale) == pytest.approx(float(want), abs=1e-14)


def test_first_zeros_against_mpmath():
    assert bessel.j0_first_zero() == pytest.approx(
        float(mpmath.besseljzero(0, 1)), abs=1e-12)
    assert bessel.j1prime_first_zero() == pytest.approx(
        float(mpmath.besseljzero(1, 1, derivative=1)), abs=1e-12)


def test_symmetric_tent_closed_forms():
    j01 = bessel.j0_first_zero()
    sg = bessel.sigma1_tent(0.5)
    mu = bessel.mu1_tent(0.5)
    assert sg.value == pytest.approx(j01 ** 2, rel=1e-12)
    assert mu.value == pytest.approx(4.0 * j01 ** 2, rel=1e-12)
    assert abs(sg.residual) < 1e-10 and abs(mu.residual) < 1e-10


@pytest.mark.parametrize("x0", np.round(np.arange(0.1, 0.95, 0.1), 2))
def test_tent_ratio_is_exactly_four(x0):
    sg = bessel.sigma1_tent(float(x0))
    mu = bessel.mu1_tent(float(x0))
    assert mu.value / sg.value == pytest.approx(4.0, abs=1e-10)
    lo, hi = sg.bracket
    assert lo <= sg.value <= hi


def test_tent_root_oracle_via_mpmath_matching():
    """Independent check of the matching equation at an asymmetric peak.

    For the tent peaking at x0 with boundary-type weight the eigenvalue
    s = sigma1 satisfies J1-type matching across the peak; here the returned
    residual is recomputed with mpmath Bessel functions.
    """
    for x0 in (0.2, 0.35, 0.5, 0.7):
        sg = bessel.sigma1_tent(x0)
        s = math.sqrt(sg.value)
        left = 2.0 * s * x0
        right = 2.0 * s * (1.0 - x0)
        f = (float(mpmath.besselj(1, left)) * float(mpmath.besselj(0, right))
             + float(mpmath.besselj(0, left)) * float(mpmath.besselj(1, right)))
        assert abs(f) < 1e-10
