"""Weighted Sturm-Liouville solvers on [0, 1] for thin-domain limit problems.

Two eigenvalue problems share the stiffness form integral(h u' v'):

* interior type (limit of the Neumann problem): weighted mass integral(h u v),
  first nonzero eigenvalue mu1(h);
* boundary type (limit of the Steklov problem scaled by the thickness):
  unweighted mass integral(u v), first nonzero eigenvalue sigma1(h).

Discretization is P1 on a uniform grid with the piecewise-linear weight
integrated exactly (segments split at the profile knots, two-point Gauss on
each cubic integrand).  The solver sees only the pencil's tridiagonals A and
B.  With the constant mode deflated in the B inner product, two shifted
inverse-iteration steps warm-start a Rayleigh-quotient iteration; every step
is one LAPACK tridiagonal solve, its shift nudged off exactly singular
pivots, about four in all (``SpectralResult.iterations``).  Only A's form is
summed cancellation-free, from the element weight integrals, since its O(n^2)
entries cancel on smooth vectors; B's form is z^T B z.  The residual
certifies the eigenpair, and a Sturm count (inertia of A - 0.999 lam B) that
it is the first.  The start vector's seeds depend on the grid size alone and
are drawn once per size; the residual's roundoff floor is evaluated only when
it can end the run.  Each (profile, grid) is assembled once: ``_pencils``
caches the last four pencil pairs, read-only and keyed by the profile's
identity, and mu1, sigma1 and the Richardson grids share them.

An independent route for sigma1 discretizes the equivalent integral operator
with Green kernel

    g(x, y) = int_0^min t/h dt + int_max^1 (1-t)/h dt

by the midpoint rule; 1/sigma1 is the largest eigenvalue of the kernel matrix
restricted to mean-zero functions.  The two routes share no code beyond the
profile container, which is what makes the cross-check meaningful.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv, dstebz
from scipy.sparse.linalg import LinearOperator, eigsh

from . import profiles
from .profiles import ProfileH

_INV_SQRT3 = 1.0 / np.sqrt(3.0)
_WARM_STEPS = 2                  # inverse-iteration steps before the RQI
_NUDGES = (16.0, 1e4, 1e7)       # see _shifted_solve
_CERT_MARGIN = 1e-3              # inertia is counted at lam * (1 - margin)
_RESIDUAL_TOL = 1e-9             # relative residual that certifies an eigenpair
_MAX_ITER = 50                   # solves allowed per eigenvalue


class SolverError(RuntimeError):
    """Eigenvalue iteration failed to converge or produced inconsistent data."""


@dataclass(frozen=True)
class SpectralResult:
    """First nonzero eigenvalue of a 1-d pencil with its certificate."""

    eigenvalue: float
    eigenvector: np.ndarray
    residual: float
    dofs: int
    iterations: int


def _tridiag_mul(main, off, z):
    """Product of the symmetric tridiagonal (main, off) with z."""
    out = main * z
    out[:-1] += off * z[1:]
    out[1:] += off * z[:-1]
    return out


@dataclass(frozen=True)
class _Pencil:
    """Tridiagonal stiffness/mass pair (A, B) of one weighted problem.

    A's entries are of size n^2 and its matvec cancels on smooth vectors, so
    A's form sums the per-element weight integrals ``stiff_w`` instead; B is
    a well-conditioned mass matrix and its form is z^T B z.
    """

    a_main: np.ndarray
    a_off: np.ndarray
    b_main: np.ndarray
    b_off: np.ndarray
    stiff_w: np.ndarray
    n: int

    def amat(self, z):
        return _tridiag_mul(self.a_main, self.a_off, z)

    def bmat(self, z):
        return _tridiag_mul(self.b_main, self.b_off, z)

    def a_form(self, z):
        slope = (z[1:] - z[:-1]) * self.n
        return float(np.dot(self.stiff_w, slope * slope))

    def b_form(self, z):
        return float(z @ self.bmat(z))


def _assemble(h: ProfileH, n: int):
    """Exact P1 forms on a uniform n-element grid.

    Returns (interior_pencil, boundary_pencil): same weighted stiffness,
    weighted respectively unweighted mass.  The piecewise-linear weight is
    integrated exactly by splitting elements at the profile knots and using
    two-point Gauss on each cubic mass integrand.
    """
    if n < 8:
        raise ValueError("need at least 8 elements")
    grid = np.linspace(0.0, 1.0, n + 1)
    bp = np.union1d(grid, h.knots)
    a, b = bp[:-1], bp[1:]
    keep = b > a
    a, b = a[keep], b[keep]
    mid = 0.5 * (a + b)
    e = np.minimum((mid * n).astype(int), n - 1)
    length = b - a

    # stiffness needs only the weight integral per element (gradients constant)
    acc = np.bincount(e, weights=0.5 * (h(a) + h(b)) * length, minlength=n)
    inv_dx2 = float(n) * float(n)
    a_main = (np.concatenate([acc, [0.0]]) + np.concatenate([[0.0], acc])) * inv_dx2
    a_off = -acc * inv_dx2

    half = 0.5 * length
    gauss_x = np.concatenate([mid - half * _INV_SQRT3, mid + half * _INV_SQRT3])
    g_elem = np.concatenate([e, e])
    g_w = np.concatenate([half, half])
    g_phi_r = (gauss_x - grid[g_elem]) * n
    g_phi_l = 1.0 - g_phi_r

    def mass_pencil(hg):
        coef = g_w * hg
        mLL, mRR, mLR = (np.bincount(g_elem, weights=coef * u * v, minlength=n)
                         for u, v in ((g_phi_l, g_phi_l), (g_phi_r, g_phi_r),
                                      (g_phi_l, g_phi_r)))
        b_main = np.concatenate([mLL, [0.0]]) + np.concatenate([[0.0], mRR])
        return _Pencil(a_main, a_off, b_main, mLR, acc, n)

    return mass_pencil(h(gauss_x)), mass_pencil(np.ones_like(gauss_x))


@functools.lru_cache(maxsize=8)
def _seeds(n_dofs: int) -> tuple:
    """Smooth ramp and random safeguard of the start vector on n_dofs nodes,
    shared read-only by every solve of that size."""
    ramp = np.linspace(0.0, 1.0, n_dofs) - 0.5
    draw = np.random.default_rng(0xC0FFEE).standard_normal(n_dofs)
    ramp.flags.writeable = draw.flags.writeable = False
    return ramp, draw


def _solve_pencil(p: _Pencil) -> SpectralResult:
    """Smallest nonzero eigenvalue of the pencil with constants deflated.

    Each step maps z to deflate(T^-1 B z), B-normalised, with one tridiagonal
    solve (``_shifted_solve``): the first ``_WARM_STEPS`` take T = A + cB,
    then Rayleigh-quotient iteration takes T = A - lam B.  The reported
    eigenvalue is A's cancellation-free form of the B-normalised vector.  The
    start vector's seeds come from ``_seeds``, drawn once per grid size.  A
    residual above ``_RESIDUAL_TOL`` is still accepted once lam has stagnated
    and the residual sits at the roundoff floor of the matvec; the floor is
    evaluated only then.  The result has passed the inertia certificate;
    ``iterations`` counts the solves, warm start included.
    """
    n_dofs = p.a_main.size
    ones = np.ones(n_dofs)
    w = p.bmat(ones)
    wtot = float(w @ ones)
    if not wtot > 0:
        raise SolverError("mass matrix is not positive on constants")

    def deflate(z):
        return z - (w @ z) / wtot

    # shift on the scale of the target eigenvalue keeps the contrast of the
    # inverse iteration away from 1; it comes from the smooth seed alone
    # because the random safeguard component carries huge gradient energy
    ramp, draw = _seeds(n_dofs)
    smooth = deflate(ramp)
    c = max(0.5 * p.a_form(smooth) / p.b_form(smooth), 1e-12)
    z = smooth + 1e-2 * deflate(draw)
    z /= np.sqrt(p.b_form(z))
    Bz = p.bmat(z)

    eps = np.finfo(float).eps
    unit = eps * float(np.max(p.a_main) / np.max(p.b_main))
    abs_main, abs_off = np.abs(p.a_main), np.abs(p.a_off)
    lam_old = np.inf
    stagnant = 0
    res = np.inf
    for it in range(1, _MAX_ITER + 1):
        y = deflate(_shifted_solve(p, -c if it <= _WARM_STEPS else lam, Bz, unit))
        norm = np.sqrt(max(p.b_form(y), 0.0))
        if not norm > 0:
            raise SolverError("iteration collapsed onto the deflated subspace")
        z = y / norm
        lam = p.a_form(z)
        Az = p.amat(z)
        Bz = p.bmat(z)          # also the next step's right-hand side
        r = Az - lam * Bz
        denom = np.sqrt(Az @ Az) + abs(lam) * np.sqrt(Bz @ Bz)
        res = float(np.sqrt(r @ r) / denom)
        stagnant = stagnant + 1 if abs(lam - lam_old) <= 4 * eps * abs(lam) else 0
        converged = res <= _RESIDUAL_TOL
        if not converged and stagnant >= 2:
            # roundoff floor of the matvec residual in this (badly scaled) basis
            az_abs = _tridiag_mul(abs_main, abs_off, np.abs(z))
            converged = res <= 8.0 * (eps * np.sqrt(az_abs @ az_abs) / denom)
        if converged:
            _certify_first(p, lam)
            return SpectralResult(lam, z, res, n_dofs, it)
        lam_old = lam
    raise SolverError(f"Rayleigh-quotient iteration did not converge (residual {res:.2e})")


def _shifted_solve(p: _Pencil, lam: float, rhs: np.ndarray, unit: float) -> np.ndarray:
    """(A - lam B)^-1 rhs by LAPACK dgtsv.  A's entries scale like n^2 h and
    lam B's like lam h / n, so near convergence T can be exactly singular and
    ulps of lam would not change it: the shift moves by ``_NUDGES`` times
    ``unit``, eps max(A's diagonal) / max(B's diagonal), the smallest change
    of lam that A's largest diagonal entry can show."""
    for nudge in (0.0,) + _NUDGES:
        s = lam - nudge * unit
        off = p.a_off - s * p.b_off
        _, _, _, y, info = dgtsv(off, p.a_main - s * p.b_main, off, rhs)
        if info == 0:
            return y
    raise SolverError(f"A - lam B singular at lam = {lam!r} after every nudge")


def _count_below(p: _Pencil, mu: float) -> int:
    """Pencil eigenvalues below mu, i.e. negative eigenvalues of A - mu B (B is
    SPD; Sylvester's law of inertia), by LAPACK dstebz.  All lie in [-g, g] for
    the Gershgorin bound g, so bisecting (-2g, 0] to tolerance g needs only
    the two Sturm counts."""
    d, e = p.a_main - mu * p.b_main, p.a_off - mu * p.b_off
    g = float(np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)))
    below, _, _, _, info = dstebz(d, e, 1, -2.0 * g, 0.0, 0, 0, g, "E")
    if info != 0:
        raise SolverError(f"dstebz failed with info {info}")
    return int(below)


def _certify_first(p: _Pencil, lam: float) -> None:
    """Raise unless only the constant mode lies below lam (1 - _CERT_MARGIN)."""
    below = _count_below(p, lam * (1.0 - _CERT_MARGIN))
    if below != 1:
        raise SolverError(f"inertia certificate failed: {below} eigenvalues below 0.999 lam")


@functools.lru_cache(maxsize=4)
def _pencils(h: ProfileH, elements: int):
    """(interior, boundary) pencils of an admissible weight, read-only.  A
    profile's arrays are read-only too, so its identity keys the cache, whose
    four entries hold one Richardson ladder and one raw grid."""
    if np.any(h.values < -1e-12):
        raise ValueError("weight must be nonnegative")
    if h.integral() <= 0:
        raise ValueError("weight must have positive integral")
    pair = _assemble(h, elements)
    for p in pair:
        for a in (p.a_main, p.a_off, p.b_main, p.b_off, p.stiff_w):
            a.flags.writeable = False
    return pair


def mu1(h: ProfileH, elements: int = 1024) -> SpectralResult:
    """First nonzero eigenvalue of the interior-type weighted problem."""
    return _solve_pencil(_pencils(h, elements)[0])


def sigma1(h: ProfileH, elements: int = 1024) -> SpectralResult:
    """First nonzero eigenvalue of the boundary-type weighted problem."""
    return _solve_pencil(_pencils(h, elements)[1])


def _richardson_grids(elements: int) -> tuple[int, int, int]:
    """The grids n = elements, elements/2, elements/4 of a Richardson limit,
    the last at least 8; raises ``ValueError`` for any other count."""
    if elements % 4 or elements < 32:
        raise ValueError("element count must be divisible by 4 and at least 32")
    return elements, elements // 2, elements // 4


def _extrapolate(solver, h: ProfileH, elements: int) -> float:
    """Two-step Richardson extrapolation of the order-2 discretization on
    ``_richardson_grids(elements)``."""
    v4, v2, v1 = (solver(h, n).eigenvalue for n in _richardson_grids(elements))
    e2 = (4.0 * v4 - v2) / 3.0
    e1 = (4.0 * v2 - v1) / 3.0
    return (16.0 * e2 - e1) / 15.0


def mu1_extrapolated(h: ProfileH, elements: int = 2048) -> float:
    """Richardson limit of mu1."""
    return _extrapolate(mu1, h, elements)


def sigma1_extrapolated(h: ProfileH, elements: int = 2048) -> float:
    return _extrapolate(sigma1, h, elements)


def extrapolated_limits(h: ProfileH, elements: int = 2048) -> tuple:
    """(mu1, sigma1, F) Richardson limits, F = mu1 * integral(h) / sigma1."""
    mu = mu1_extrapolated(h, elements)
    sg = sigma1_extrapolated(h, elements)
    return mu, sg, mu * h.integral() / sg


def F_of_h(h: ProfileH, elements: int = 1024) -> float:
    """Scale-invariant ratio mu1(h) * integral(h) / sigma1(h) on matched grids."""
    return f_record(h, elements)["F"]


def f_record(h: ProfileH, elements: int = 1024) -> dict:
    """mu1, sigma1 and F with solver certificates, for reporting."""
    m = mu1(h, elements)
    s = sigma1(h, elements)
    integ = h.integral()
    return {
        "integral": integ,
        "mu1": m.eigenvalue,
        "sigma1": s.eigenvalue,
        "F": m.eigenvalue * integ / s.eigenvalue,
        "mu1_residual": m.residual,
        "sigma1_residual": s.residual,
        "mu1_iterations": m.iterations,
        "sigma1_iterations": s.iterations,
    }


def _t_over_h(h: ProfileH, piece: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """int_a^b t / h(t) dt for each [a, b] inside linear piece ``piece``, in
    closed form with the log taken through log1p against the left endpoint;
    nearly constant pieces take two-point Gauss on t/h."""
    beta = h.slopes()[piece]
    alpha = h.values[piece] - beta * h.knots[piece]  # h(t) = alpha + beta t
    ha = alpha + beta * a
    hb = alpha + beta * b
    length = b - a
    # profile vanishing at t = 0: the linear factor t cancels the decay
    from_zero = (ha == 0.0) & (a == 0.0) & (beta > 0.0)
    if np.any((np.minimum(ha, hb) <= 0.0) & ~from_zero):
        raise ValueError("weight vanishes inside (0, 1); kernel integral diverges")
    flat = np.abs(beta) * length < 1e-9 * np.maximum(ha, hb)
    mid = 0.5 * (a + b)
    half = 0.5 * length
    g1, g2 = mid - half * _INV_SQRT3, mid + half * _INV_SQRT3
    with np.errstate(divide="ignore", invalid="ignore"):
        gauss = half * g1 / (alpha + beta * g1) + half * g2 / (alpha + beta * g2)
        exact = length / beta - (alpha / beta ** 2) * np.log1p(beta * length / ha)
        return np.where(from_zero, length / beta, np.where(flat, gauss, exact))


def _cumulative_t_over_h(h: ProfileH, pts: np.ndarray) -> np.ndarray:
    """int_0^p t / h(t) dt for each p in pts (inside [0, 1]): the whole pieces
    before p by ``cumsum``, the piece that holds p by one ``_t_over_h`` call.

    The integral diverges where h vanishes inside (0, 1), and at p = 1 when
    h(1) = 0; admissible profiles vanish at most at the endpoints, and at 0
    the factor t cancels the linear decay.
    """
    k = h.knots
    if not np.all((pts >= 0.0) & (pts <= 1.0)):
        raise ValueError("evaluation points must lie inside [0, 1]")
    piece = np.searchsorted(k[1:], pts)  # k[i] < p <= k[i + 1], or p = 0 in piece 0
    whole = np.arange(piece.max(initial=0))
    before = np.concatenate([[0.0], np.cumsum(_t_over_h(h, whole, k[whole], k[whole + 1]))])
    return before[piece] + _t_over_h(h, piece, k[piece], pts)


def sigma1_kernel_oracle(h: ProfileH, quad: int = 640) -> float:
    """Boundary-type eigenvalue via the Green-kernel integral operator.

    Independent of the Galerkin route: midpoint discretization of the kernel,
    projection onto mean-zero vectors, Lanczos (``eigsh``) for the largest
    eigenvalue; sigma1 is its reciprocal.  The kernel matrix G_ij =
    (k1[min(i, j)] + k2[max(i, j)]) / quad is never formed: its product with
    a vector is four cumulative sums, O(quad) work and memory.
    """
    if quad < 16:
        raise ValueError("need at least 16 quadrature points")
    y = (np.arange(quad) + 0.5) / quad
    k1 = _cumulative_t_over_h(h, y)
    hm = profiles.mirror(h)
    k2 = _cumulative_t_over_h(hm, 1.0 - y[::-1])[::-1]

    def after(v):
        # sums over j > i, accumulated from the right
        return np.concatenate([np.cumsum(v[:0:-1])[::-1], [0.0]])

    def centred_g(x):
        # restrict to mean-zero functions: P G P with P the centring projector
        x = x.ravel() - x.mean()
        gx = (np.cumsum(k1 * x) + k2 * np.cumsum(x) + k1 * after(x) + after(k2 * x)) / quad
        return gx - gx.mean()

    op = LinearOperator((quad, quad), matvec=centred_g, dtype=float)
    # the constants span G's kernel, so the seed must not be constant
    lam_max = float(eigsh(op, k=1, which="LA", v0=y - 0.5, return_eigenvectors=False)[0])
    if not lam_max > 0:
        raise SolverError("kernel operator has no positive eigenvalue")
    return 1.0 / lam_max
