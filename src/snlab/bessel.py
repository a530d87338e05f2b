"""The tent-profile eigenvalue equations in the Bessel functions J0 and J1.

J0, J1 and their first zeros come straight from ``scipy.special`` (Cephes).

The first nonzero eigenvalue of the weighted problems on a tent profile with
peak at x0 solves a transcendental equation in Bessel functions, found by a
scan for the first sign change and ``scipy.optimize.brentq``.  The two
equations differ only by a factor of two in the argument, which forces the
eigenvalue ratio mu1/sigma1 = 4 for every tent.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy import optimize, special

_SCAN_STEP = 0.05
_SCAN_MAX = 60.0


def j0_first_zero() -> float:
    """First positive zero of J0 (about 2.404826)."""
    return float(special.jn_zeros(0, 1)[0])


def j1prime_first_zero() -> float:
    """First positive zero of J1' (about 1.841184)."""
    return float(special.jnp_zeros(1, 1)[0])


@dataclass(frozen=True)
class TranscendentalRoot:
    """A root of a tent matching equation, with its certificate."""

    value: float
    bracket: tuple
    residual: float


def _tent_disc(s: float, x0: float, arg_scale: float) -> float:
    """J0(a) J0'(b) + J0(b) J0'(a) at a = c s x0, b = c s (1 - x0), with J0' = -J1."""
    a = arg_scale * s * x0
    b = arg_scale * s * (1.0 - x0)
    return -float(special.j0(a) * special.j1(b) + special.j0(b) * special.j1(a))


def _tent_root(x0: float, arg_scale: float, equation: str) -> TranscendentalRoot:
    if not 0.0 < x0 < 1.0:
        raise ValueError("tent peak must lie strictly inside (0, 1)")

    def f(s):
        return _tent_disc(s, x0, arg_scale)

    # s = 0 is the trivial eigenvalue; the function leaves zero with slope -1,
    # so the scan starts just above it and looks for the first sign change.
    a = _SCAN_STEP
    fa = f(a)
    while a < _SCAN_MAX:
        b = a + _SCAN_STEP
        fb = f(b)
        if fa * fb <= 0:
            s_root = optimize.brentq(f, a, b, xtol=1e-13)
            return TranscendentalRoot(value=s_root * s_root, bracket=(a * a, b * b),
                                      residual=abs(f(s_root)))
        a, fa = b, fb
    raise ValueError(f"no root found for {equation} with x0={x0}")


def sigma1_tent(x0: float) -> TranscendentalRoot:
    """First nonzero eigenvalue of the weighted boundary-type problem on a tent."""
    return _tent_root(x0, 2.0, "steklov-tent")


def mu1_tent(x0: float) -> TranscendentalRoot:
    """First nonzero eigenvalue of the weighted interior-type problem on a tent."""
    return _tent_root(x0, 1.0, "neumann-tent")
