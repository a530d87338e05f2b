"""Explicit bounds for the eigenvalue ratio functional on convex domains.

The lower bound comes from combining two inequalities for F in terms of the
normalized width delta: F >= pi^2/(6 delta) for wide domains and
F >= delta^2 pi^2 / 108 for narrow ones.  The branches cross at
delta = 18^(1/3), giving the constant pi^2 / (6 * 18^(1/3)).

The upper bound is F <= 2 (1 + pi w D / (r P)).  The product w D / (r P) is
controlled through tau = w / D: the perimeter satisfies
P >= D / g(tau) with g(tau) = 1 / (2 sqrt(1 - tau^2) + 2 tau arcsin tau), and
the inradius satisfies 2 r / D >= y2(tau), the second-smallest positive root
of the quartic

    P_tau(y) = tau/4 y^4 - 2 y^3 + 5 tau y^2 - 4 tau^2 y + tau^3.

Maximizing f(tau) = 2 pi tau g(tau) / y2(tau) over tau in (0, 1) gives a
constant K < 3.52, hence F <= 2 (1 + K) <= 9.04 uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy import optimize

SQRT3_2 = np.sqrt(3.0) / 2.0
TWO_MINUS_SQRT2 = 2.0 - np.sqrt(2.0)
TWO_PLUS_SQRT2 = 2.0 + np.sqrt(2.0)
TAU_GRID_LO = 1e-6
TAU_GRID_HI = 1.0 - 1e-9


def p_tau(tau: float, y):
    """The bracketing quartic, by Horner evaluation."""
    return (((0.25 * tau * y - 2.0) * y + 5.0 * tau) * y - 4.0 * tau * tau) * y + tau ** 3


def p_tau_scaled(tau: float, u):
    """P_tau(tau u) / tau^3 in the exact factored form.

    The identity  -2u^3 + 5u^2 - 4u + 1 = -(u - 1)^2 (2u - 1)  makes the
    evaluation cancellation-free near the cluster of roots at u ~ 1, where
    the raw quartic degenerates to O(tau^5) and plain Horner loses the sign
    for small tau.
    """
    return 0.25 * (tau * u) ** 2 * u * u - (u - 1.0) ** 2 * (2.0 * u - 1.0)


def _root_in(tau: float, y_lo: float, y_hi: float) -> float:
    """Brent's method on the scaled quartic u = y / tau, to full precision."""
    u = optimize.brentq(lambda u: p_tau_scaled(tau, u), y_lo / tau, y_hi / tau,
                        xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
    return tau * u


@dataclass(frozen=True)
class QuarticRoots:
    """The four positive roots of the bracketing quartic with certificates.

    ``residuals`` are |P_tau(y_i)| and ``scales`` the corresponding sums of
    term magnitudes; a certified root has residual small against its scale.
    """

    tau: float
    roots: np.ndarray
    brackets: tuple
    residuals: np.ndarray
    scales: np.ndarray


def root_brackets(tau: float) -> tuple:
    """Disjoint sign-change brackets for the four positive roots.

    Three regimes of tau; at the boundaries both adjacent bracket sets are
    valid.  The last bracket is closed by a coefficient bound on root size.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly inside (0, 1)")
    mid = tau + 0.5 * tau * tau
    y_max = 1.0 + 8.0 / tau
    if tau < SQRT3_2:
        first = 2.0 * tau / 3.0
    elif tau <= 0.9:
        first = 0.5
    else:
        first = TWO_MINUS_SQRT2
    return ((0.0, first), (first, mid), (mid, TWO_PLUS_SQRT2), (TWO_PLUS_SQRT2, y_max))


def quartic_roots(tau: float) -> QuarticRoots:
    brackets = root_brackets(tau)
    roots = np.array([_root_in(tau, lo, hi) for lo, hi in brackets])
    t3 = tau ** 3
    residuals = np.array([t3 * abs(p_tau_scaled(tau, y / tau)) for y in roots])
    scales = (0.25 * tau * roots ** 4 + 2.0 * roots ** 3 + 5.0 * tau * roots ** 2
              + 4.0 * tau ** 2 * roots + t3)
    return QuarticRoots(tau=tau, roots=roots, brackets=brackets,
                        residuals=residuals, scales=scales)


def g_of_tau(tau: float) -> float:
    """Perimeter-to-diameter control: D/P <= g(tau) for convex domains."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    return 1.0 / (2.0 * np.sqrt(1.0 - tau * tau) + 2.0 * tau * np.arcsin(tau))


def f_of_tau(tau: float) -> float:
    """The function whose maximum over (0, 1) is the constant K; it solves
    for y2 alone, in the second of ``root_brackets``."""
    return 2.0 * np.pi * tau * g_of_tau(tau) / _root_in(tau, *root_brackets(tau)[1])


def tau_grid(grid: int) -> np.ndarray:
    """The ``grid`` points of (0, 1) that ``constant_K`` scans."""
    return np.linspace(TAU_GRID_LO, TAU_GRID_HI, grid)


def constant_K(grid: int = 1000) -> tuple[float, float]:
    """Maximum of f and its argmax: grid scan, then a bounded Brent search
    between the neighbours of the best grid point; an end point's missing
    neighbour is the end of the scanned interval itself."""
    if grid < 1:
        raise ValueError("grid must be at least 1")
    taus = tau_grid(grid)
    vals = np.array([f_of_tau(t) for t in taus])
    i = int(np.argmax(vals))
    ends = np.concatenate([[TAU_GRID_LO], taus, [TAU_GRID_HI]])
    bracket = (ends[i], ends[i + 2])
    res = optimize.minimize_scalar(lambda t: -f_of_tau(t), bounds=bracket,
                                   method="bounded", options={"xatol": 1e-12})
    return f_of_tau(res.x), float(res.x)


def lower_bound_constant() -> float:
    """pi^2 / (6 * 18^(1/3)), the uniform lower bound for F on convex domains."""
    return np.pi ** 2 / (6.0 * 18.0 ** (1.0 / 3.0))


def lower_bound_branches(delta: float) -> tuple[float, float]:
    """The two lower-bound branches evaluated at normalized width delta."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return np.pi ** 2 / (6.0 * delta), delta * delta * np.pi ** 2 / 108.0


@cache
def upper_bound_constant() -> float:
    """2 (1 + K): the uniform upper bound for F on convex domains, with K from
    ``constant_K()`` on its default grid, computed once."""
    K, _ = constant_K()
    return 2.0 * (1.0 + K)


def per_domain_upper_bound(width: float, diameter: float, inradius: float,
                           perimeter: float) -> float:
    """Domain-wise upper bound 2 (1 + pi w D / (r P))."""
    if min(width, diameter, inradius, perimeter) <= 0:
        raise ValueError("geometric functionals must be positive")
    return 2.0 * (1.0 + np.pi * width * diameter / (inradius * perimeter))
