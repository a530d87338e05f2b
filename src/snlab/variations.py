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

witnessed by closed-form eigenfunction derivatives whose ODE, endpoint, and
side-condition residuals this module evaluates analytically.  Finite
differences of the Galerkin eigenvalues validate every formula; F is scale
invariant, so the perturbed weight never needs renormalizing.

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
_SQRT2 = math.sqrt(2.0)
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


def linear_direction(A: float, B: float = 0.0, n: int = 2) -> ProfileH:
    x = np.linspace(0.0, 1.0, max(2, n))
    return ProfileH(x, B + A * x)


def cosine_direction(n: int = 1001) -> ProfileH:
    """Piecewise-linear sampling of cos(2 pi x).  Closed forms are evaluated on
    the sampled direction, so finite-difference comparisons stay exact-in-phi;
    only the comparison against the smooth-integral value -1/2 sees the O(n^-2)
    sampling gap."""
    x = np.linspace(0.0, 1.0, n)
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
# closed-form eigenfunction derivatives along phi = A x


def u0(x):
    """Shared normalized eigenfunction of both problems at h = 1."""
    return _SQRT2 * np.cos(np.pi * x)


def u0_prime(x):
    return -_SQRT2 * np.pi * np.sin(np.pi * x)


def _v_dot_coefficients(A: float):
    return (A / (4.0 * _SQRT2), -A / (2.0 * _SQRT2),
            A / (2.0 * _SQRT2 * math.pi), A * math.pi / (2.0 * _SQRT2))


def v_dot(x, A: float = 1.0):
    a, b, c, d = _v_dot_coefficients(A)
    return (a + b * x) * np.cos(np.pi * x) + (c + d * (x * x - x)) * np.sin(np.pi * x)


def v_dot_prime(x, A: float = 1.0):
    a, b, c, d = _v_dot_coefficients(A)
    pi = np.pi
    return (b * np.cos(pi * x) - pi * (a + b * x) * np.sin(pi * x)
            + d * (2.0 * x - 1.0) * np.sin(pi * x)
            + pi * (c + d * (x * x - x)) * np.cos(pi * x))


def _v_dot_second(x, A: float):
    a, b, c, d = _v_dot_coefficients(A)
    pi = np.pi
    return (-2.0 * pi * b * np.sin(pi * x) - pi ** 2 * (a + b * x) * np.cos(pi * x)
            + 2.0 * d * np.sin(pi * x) + 2.0 * pi * d * (2.0 * x - 1.0) * np.cos(pi * x)
            - pi ** 2 * (c + d * (x * x - x)) * np.sin(pi * x))


def u_dot(x, A: float = 1.0):
    return (A / _SQRT2) * (np.sin(np.pi * x) / np.pi - x * np.cos(np.pi * x))


def u_dot_prime(x, A: float = 1.0):
    return (A / _SQRT2) * np.pi * x * np.sin(np.pi * x)


def _u_dot_second(x, A: float):
    return (A / _SQRT2) * (np.pi * np.sin(np.pi * x) + np.pi ** 2 * x * np.cos(np.pi * x))


def _gauss01(n: int = 200):
    z, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (z + 1.0), 0.5 * w


def eigenfunction_derivative_residuals(A: float = 1.0, n_grid: int = 4001) -> dict:
    """Analytic certification of the closed-form derivatives v_dot and u_dot.

    The boundary-type derivative solves  -v'' - pi^2 v = rhs_v  with
    rhs_v = (A pi^2/sqrt(2) - sqrt(2) A pi^2 x) cos(pi x) - sqrt(2) A pi sin(pi x);
    the interior-type one solves  -u'' - pi^2 u = -sqrt(2) A pi sin(pi x).
    Both have vanishing endpoint derivatives (evaluated from the analytic
    first-derivative formulas, not finite differences).  Side conditions fix
    the free cos(pi x) component: v_dot is L2-orthogonal to the eigenfunction,
    while differentiating the weighted normalization of u along the weight
    1 + t A x forces  int u_dot u0 dx = -A/4.
    """
    x = np.linspace(0.0, 1.0, n_grid)
    pi = np.pi
    rhs_v = (A * pi ** 2 / _SQRT2 - _SQRT2 * A * pi ** 2 * x) * np.cos(pi * x) \
        - _SQRT2 * A * pi * np.sin(pi * x)
    res_v = -_v_dot_second(x, A) - pi ** 2 * v_dot(x, A) - rhs_v
    rhs_u = -_SQRT2 * A * pi * np.sin(pi * x)
    res_u = -_u_dot_second(x, A) - pi ** 2 * u_dot(x, A) - rhs_u

    ends = np.array([0.0, 1.0])
    vbc = np.abs(v_dot_prime(ends, A))
    ubc = np.abs(u_dot_prime(ends, A))
    g, w = _gauss01()
    return {
        "v_ode_sup": float(np.abs(res_v).max()),
        "u_ode_sup": float(np.abs(res_u).max()),
        "v_bc0": float(vbc[0]), "v_bc1": float(vbc[1]),
        "u_bc0": float(ubc[0]), "u_bc1": float(ubc[1]),
        "v_orthogonality": abs(float(np.sum(w * v_dot(g, A) * u0(g)))),
        "u_normalization": abs(float(np.sum(w * u_dot(g, A) * u0(g))) + A / 4.0),
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
    pi = np.pi
    direction = linear_direction(A)
    sd, md = sigma_dot(direction), mu_dot(direction)
    sigma_ddot = 2.0 * float(np.sum(w * (A * g * u0_prime(g) * v_dot_prime(g, A))))
    sigma_ddot -= 2.0 * sd * float(np.sum(w * u0(g) * v_dot(g, A)))
    mu_ddot = 2.0 * float(np.sum(w * (A * g * (u0_prime(g) * u_dot_prime(g, A)
                                               - pi ** 2 * u0(g) * u_dot(g, A)))))
    mu_ddot -= 2.0 * md * float(np.sum(w * u0(g) * u_dot(g, A)))
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


def _project_eval(grid: np.ndarray, y: np.ndarray, elements: int):
    try:
        h = profiles.normalize(profiles.project_concave(y, knots=grid))
    except (profiles.ProfileError, ValueError):
        return None, None
    return h, sl1d.F_of_h(h, elements)


def optimize_F(knots: int = 21, mode: str = "min", restarts: int = 20,
               seed: int = 0, elements: int = 512, max_sweeps: int = 40) -> OptimizeResult:
    """Pattern search over knot ordinates, projected into the admissible class.

    Local and best-effort by design: every iterate is projected to a
    nonnegative concave normalized profile, the value trace is monotone in the
    chosen direction, and the step shrinks whenever no coordinate move helps.
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
        if r == 0:
            y = np.ones(knots)
        else:
            y = np.asarray(profiles.random_profile(rng)(grid), dtype=float)
        h, f = _project_eval(grid, y, elements)
        evals += 1
        if h is None:
            continue
        y = np.asarray(h(grid), dtype=float)
        trace = [f]
        step = _STEP0
        sweeps = 0
        while step >= _STEP_MIN and sweeps < max_sweeps:
            sweeps += 1
            improved = False
            for i in range(knots):
                for sgn in (1.0, -1.0):
                    cand = y.copy()
                    cand[i] += sgn * step
                    hc, fc = _project_eval(grid, cand, elements)
                    evals += 1
                    if hc is not None and sign * fc < sign * f - 1e-14:
                        y, f, h = np.asarray(hc(grid), dtype=float), fc, hc
                        trace.append(f)
                        improved = True
            if not improved:
                step *= 0.5
        if best is None or sign * f < sign * best[1]:
            best = (h, f, tuple(trace))
    if best is None:
        raise RuntimeError("no admissible starting profile")
    return OptimizeResult(mode=mode, value=best[1], profile=best[0],
                          trace=best[2], evaluations=evals)
