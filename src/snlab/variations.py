"""Variations of the 1D functional F at the constant profile, and a local optimizer.

At h = 1 both weighted problems share the eigenpair (pi^2, sqrt(2) cos(pi x)),
and perturbing the weight to 1 + t*phi gives closed-form derivatives:

    sigma_dot = 2 pi^2 int phi sin^2(pi x) dx = pi^2 (int phi - c1(phi)),
    mu_dot    = 2 pi^2 int phi (sin^2 - cos^2)(pi x) dx = -2 pi^2 c1(phi),
    F_dot     = mu_dot / pi^2 + int phi - sigma_dot / pi^2 = -c1(phi),

where c1(phi) = int phi cos(2 pi x) dx is the first cosine Fourier moment —
computed exactly here for piecewise-linear phi.  Along the linear direction
phi = A x the second derivatives are explicit as well:

    sigma_ddot = A^2 (3 - pi^2) / 8,   mu_ddot = 3 A^2 / 2,
    F_ddot     = A^2 (9 + pi^2) / (8 pi^2) > 0,

witnessed by closed-form eigenfunction derivatives, each held as the pair
(p, q) of polynomials in p(x) cos(pi x) + q(x) sin(pi x) and differentiated
by the one rule (p, q)' = (p' + pi q, q' - pi p).  Coefficient sums bound
their ODE residuals on all of [0, 1]; endpoint and side conditions are
checked too.  Finite differences of the Galerkin eigenvalues validate every
formula; F is scale invariant, so the perturbed weight never needs
renormalizing.

Two entry points run the finite differences: ``first_variations(phi)`` and
``second_variations_linear(A)``.  Each solves every perturbed profile once,
with ``sl1d.f_record``, and returns ``{"sigma", "mu", "F"}`` reports
differenced from the same records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import profiles, sl1d
from .profiles import ProfileH

FIRST_ORDER_STEPS = (1e-3, 5e-4, 2.5e-4)
SECOND_ORDER_STEPS = (2e-3, 1e-3, 5e-4)
_STEP0, _STEP_MIN = 0.25, 1e-4   # first and smallest pattern-search step
_MAX_SWEEPS = 40                 # pattern-search sweeps per restart
# closed-form second variations along phi = A x at h = 1
_SECOND_LINEAR = {
    "sigma": lambda A: A * A * (3.0 - math.pi ** 2) / 8.0,
    "mu": lambda A: 1.5 * A * A,
    "F": lambda A: A * A * (9.0 + math.pi ** 2) / (8.0 * math.pi ** 2),
}


@dataclass(frozen=True)
class VariationReport:
    quantity: str                # "sigma" | "mu" | "F"
    direction: str
    analytic: float
    finite_difference: float     # Richardson combination of the two finest steps
    relative_error: float
    observed_order: float


def integral_cos(phi: ProfileH, k: float) -> float:
    """Exact integral of phi(x) cos(k x) for piecewise-linear phi, k != 0."""
    a, b = phi.knots[:-1], phi.knots[1:]
    va = phi.values[:-1]
    beta = phi.slopes()
    sa, sb = np.sin(k * a), np.sin(k * b)
    ca, cb = np.cos(k * a), np.cos(k * b)
    piece = va * (sb - sa) / k + beta * ((b - a) * sb / k + (cb - ca) / k ** 2)
    return float(piece.sum())


def sigma_dot(phi: ProfileH) -> float:
    return math.pi ** 2 * (phi.integral() - integral_cos(phi, 2.0 * math.pi))


def mu_dot(phi: ProfileH) -> float:
    return -2.0 * math.pi ** 2 * integral_cos(phi, 2.0 * math.pi)


def F_dot(phi: ProfileH) -> float:
    return -integral_cos(phi, 2.0 * math.pi)


def linear_direction(A: float, B: float = 0.0) -> ProfileH:
    x = np.array([0.0, 1.0])
    return ProfileH(x, B + A * x)


def cosine_direction() -> ProfileH:
    """Piecewise-linear sampling of cos(2 pi x) on 1001 uniform knots.  Closed
    forms are evaluated on the sampled direction, so finite-difference
    comparisons stay exact-in-phi; only the comparison against the
    smooth-integral value -1/2 sees the 1.6e-6 sampling gap."""
    x = np.linspace(0.0, 1.0, 1001)
    return ProfileH(x, np.cos(2.0 * np.pi * x))


def _perturbed(phi: ProfileH, t: float) -> ProfileH:
    return ProfileH(phi.knots, 1.0 + t * phi.values)


def _fd_reports(phi: ProfileH, label: str, analytic: dict, order: int,
                elements: int) -> dict:
    """Richardson-combined central differences of sigma1, mu1 and F along
    1 + t*phi, all three from one ``sl1d.f_record`` per perturbed profile."""
    steps = FIRST_ORDER_STEPS if order == 1 else SECOND_ORDER_STEPS
    base = sl1d.f_record(_perturbed(phi, 0.0), elements) if order == 2 else None
    records = [(sl1d.f_record(_perturbed(phi, t), elements),
                sl1d.f_record(_perturbed(phi, -t), elements)) for t in steps]
    rho = steps[-3] / steps[-2]
    reports = {}
    for quantity, key in (("sigma", "sigma1"), ("mu", "mu1"), ("F", "F")):
        if order == 1:
            d = [(fp[key] - fm[key]) / (2.0 * t) for t, (fp, fm) in zip(steps, records)]
        else:
            d = [(fp[key] - 2.0 * base[key] + fm[key]) / (t * t)
                 for t, (fp, fm) in zip(steps, records)]
        num, den = d[-3] - d[-2], d[-2] - d[-1]
        observed = math.log(abs(num / den)) / math.log(rho) \
            if den != 0.0 and num / den > 0.0 else float("nan")
        rich = d[-1] + (d[-1] - d[-2]) / (rho * rho - 1.0)
        exact = analytic[quantity]
        reports[quantity] = VariationReport(
            quantity=quantity, direction=label, analytic=exact,
            finite_difference=rich,
            relative_error=abs(rich - exact) / max(abs(exact), 1e-300),
            observed_order=observed)
    return reports


def first_variations(phi: ProfileH, elements: int = 2048, label: str = "phi") -> dict:
    """{"sigma", "mu", "F"} first-variation reports along phi at h = 1."""
    analytic = {"sigma": sigma_dot(phi), "mu": mu_dot(phi), "F": F_dot(phi)}
    return _fd_reports(phi, label, analytic, 1, elements)


def second_variations_linear(A: float, elements: int = 2048) -> dict:
    """{"sigma", "mu", "F"} second-variation reports along phi = A x at h = 1."""
    analytic = {q: closed(A) for q, closed in _SECOND_LINEAR.items()}
    return _fd_reports(linear_direction(A), f"{A}*x", analytic, 2, elements)


# ---------------------------------------------------------------------------
# closed-form eigenfunction derivatives along phi = A x, as (p, q) pairs


def eigenfunction_derivatives(A: float = 1.0) -> dict:
    """u0 = sqrt(2) cos(pi x), the eigenfunction both problems share at h = 1,
    its derivatives v_dot (boundary type) and u_dot (interior type) along the
    weight 1 + t A x, and their right-hand sides rhs_v and rhs_u."""
    P, pi, s = np.polynomial.Polynomial, math.pi, A / math.sqrt(2.0)
    return {
        "u0": (P([math.sqrt(2.0)]), P([0.0])),
        "v_dot": (P([s / 4.0, -s / 2.0]), P([s / (2.0 * pi), -s * pi / 2.0, s * pi / 2.0])),
        "u_dot": (P([0.0, -s]), P([s / pi])),
        "rhs_v": (P([s * pi ** 2, -2.0 * s * pi ** 2]), P([-2.0 * s * pi])),
        "rhs_u": (P([0.0]), P([-2.0 * s * pi])),
    }


def _deriv(f):
    """(p cos + q sin)' = (p' + pi q) cos + (q' - pi p) sin: the one rule."""
    p, q = f
    return p.deriv() + math.pi * q, q.deriv() - math.pi * p


def _at(f, x):
    p, q = f
    return p(x) * np.cos(np.pi * x) + q(x) * np.sin(np.pi * x)


def _ode_residual(f, rhs):
    """-f'' - pi^2 f - rhs as a (p, q) pair."""
    return tuple(-d2 - math.pi ** 2 * c - r for d2, c, r in zip(_deriv(_deriv(f)), f, rhs))


def _sup_bound(f) -> float:
    """Sum of |coefficients|: a bound on [0, 1], where |x^k|, |cos|, |sin| <= 1."""
    return float(sum(np.abs(part.coef).sum() for part in f))


def _gauss01(n: int = 200):
    z, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (z + 1.0), 0.5 * w


def eigenfunction_derivative_residuals(A: float = 1.0) -> dict:
    """Analytic certification of the closed-form derivatives v_dot and u_dot.

    The boundary-type derivative solves  -v'' - pi^2 v = rhs_v  with
    rhs_v = (A pi^2/sqrt(2) - sqrt(2) A pi^2 x) cos(pi x) - sqrt(2) A pi sin(pi x);
    the interior-type one solves  -u'' - pi^2 u = -sqrt(2) A pi sin(pi x).
    Each ODE residual is reported as a bound on all of [0, 1] (``_sup_bound``).
    Both derivatives have vanishing endpoint derivatives.  Side conditions fix
    the free cos(pi x) component: v_dot is L2-orthogonal to the eigenfunction,
    while differentiating the weighted normalization of u along the weight
    1 + t A x forces  int u_dot u0 dx = -A/4.
    """
    f = eigenfunction_derivatives(A)
    vbc, ubc = (np.abs(_at(_deriv(f[k]), np.array([0.0, 1.0]))) for k in ("v_dot", "u_dot"))
    g, w = _gauss01()
    u0 = _at(f["u0"], g)
    return {
        "v_ode_sup": _sup_bound(_ode_residual(f["v_dot"], f["rhs_v"])),
        "u_ode_sup": _sup_bound(_ode_residual(f["u_dot"], f["rhs_u"])),
        "v_bc0": float(vbc[0]), "v_bc1": float(vbc[1]),
        "u_bc0": float(ubc[0]), "u_bc1": float(ubc[1]),
        "v_orthogonality": abs(float(np.sum(w * _at(f["v_dot"], g) * u0))),
        "u_normalization": abs(float(np.sum(w * _at(f["u_dot"], g) * u0)) + A / 4.0),
    }


def second_variation_quadrature_check(A: float = 1.0) -> dict:
    """Integral reproduction of the closed-form second derivatives.

    For the boundary-type problem (fixed mass) the perturbation series gives
    sigma_ddot = 2 int Ax v0' v_dot' dx - 2 sigma_dot int v0 v_dot dx, and for
    the interior-type problem (weight on both sides) mu_ddot =
    2 int Ax (u0' u_dot' - pi^2 u0 u_dot) dx - 2 mu_dot int u0 u_dot dx —
    all explicit trigonometric integrals, evaluated by Gauss quadrature and
    compared with A^2 (3 - pi^2)/8 and 3 A^2/2.
    """
    g, w = _gauss01()
    f = eigenfunction_derivatives(A)
    u0, v, u = (_at(f[k], g) for k in ("u0", "v_dot", "u_dot"))
    u0p, vp, up = (_at(_deriv(f[k]), g) for k in ("u0", "v_dot", "u_dot"))
    sigma_ddot = 2.0 * float(np.sum(w * A * g * u0p * vp)) \
        - 2.0 * sigma_dot(linear_direction(A)) * float(np.sum(w * u0 * v))
    mu_ddot = 2.0 * float(np.sum(w * A * g * (u0p * up - np.pi ** 2 * u0 * u))) \
        - 2.0 * mu_dot(linear_direction(A)) * float(np.sum(w * u0 * u))
    return {
        "sigma_ddot": sigma_ddot,
        "sigma_ddot_closed": _SECOND_LINEAR["sigma"](A),
        "mu_ddot": mu_ddot,
        "mu_ddot_closed": _SECOND_LINEAR["mu"](A),
    }


# ---------------------------------------------------------------------------
# local optimizer


@dataclass(frozen=True)
class OptimizeResult:
    mode: str
    value: float
    profile: ProfileH
    trace: tuple
    evaluations: int


def optimize_F(knots: int = 21, mode: str = "min", restarts: int = 20,
               seed: int = 0, elements: int = 512) -> OptimizeResult:
    """Pattern search over the tent weights of a profile on uniform knots (see
    ``profiles``), with at most ``_MAX_SWEEPS`` sweeps per restart.

    Local and best-effort by design: each move is clamped at zero weight, so
    every iterate is a nonnegative concave profile, normalized before it is
    evaluated; the value trace is monotone in the chosen direction, and the
    step shrinks whenever no coordinate move helps.
    """
    if knots < 5:
        raise ValueError("need at least 5 knots")
    if mode not in ("min", "max"):
        raise ValueError("mode must be 'min' or 'max'")
    if restarts < 1:
        raise ValueError("need at least 1 restart")
    sign = 1.0 if mode == "min" else -1.0
    grid = np.linspace(0.0, 1.0, knots)
    rng = np.random.default_rng(seed)

    best = None
    evals = 0
    for r in range(restarts):
        y = np.ones(knots) if r == 0 else profiles.random_profile(rng)(grid)
        h = profiles.normalize(ProfileH(grid, y))
        w, f = profiles.tent_weights(h), sl1d.F_of_h(h, elements)
        evals += 1
        trace = [f]
        step = _STEP0
        sweeps = 0
        while step >= _STEP_MIN and sweeps < _MAX_SWEEPS:
            sweeps += 1
            improved = False
            for i in range(knots):
                for sgn in (1.0, -1.0):
                    cand = w.copy()
                    cand[i] = max(cand[i] + sgn * step, 0.0)
                    if cand[i] == w[i] or not cand.any():
                        continue
                    hc = profiles.normalize(profiles.from_tents(cand, grid))
                    fc = sl1d.F_of_h(hc, elements)
                    evals += 1
                    if sign * fc < sign * f - 1e-14:
                        w, f, h = profiles.tent_weights(hc), fc, hc
                        trace.append(f)
                        improved = True
            if not improved:
                step *= 0.5
        if best is None or sign * f < sign * best[1]:
            best = (h, f, tuple(trace))
    return OptimizeResult(mode=mode, value=best[1], profile=best[0],
                          trace=best[2], evaluations=evals)
