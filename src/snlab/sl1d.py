"""Weighted Sturm-Liouville solvers on [0, 1] for thin-domain limit problems.

Two eigenvalue problems share the stiffness form integral(h u' v'):

* interior type (limit of the Neumann problem): weighted mass integral(h u v),
  first nonzero eigenvalue mu1(h);
* boundary type (limit of the Steklov problem scaled by the thickness):
  unweighted mass integral(u v), first nonzero eigenvalue sigma1(h).

Discretization is P1 on a uniform grid with the piecewise-linear weight
integrated exactly (segments split at the profile knots, two-point Gauss on
each cubic integrand).  The first nonzero eigenvalue comes from the pencil
with the constant mode deflated in the mass inner product: two steps of
shifted inverse iteration warm-start a Rayleigh-quotient iteration on LAPACK
tridiagonal solves, its shift nudged off exactly singular pivots, about four
solves in all (``SpectralResult.iterations``).  The residual certifies the
eigenpair, and a Sturm count (inertia of A - 0.999 lam B) that it is the first.

An independent route for sigma1 discretizes the equivalent integral operator
with Green kernel

    g(x, y) = int_0^min t/h dt + int_max^1 (1-t)/h dt

by the midpoint rule; 1/sigma1 is the largest eigenvalue of the kernel matrix
restricted to mean-zero functions.  The two routes share no code beyond the
profile container, which is what makes the cross-check meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky_banded, cho_solve_banded
from scipy.linalg.lapack import dgtsv, dstebz
from scipy.sparse.linalg import LinearOperator, eigsh

from . import profiles
from .profiles import ProfileH

_INV_SQRT3 = 1.0 / np.sqrt(3.0)
_WARM_STEPS = 2                  # inverse-iteration steps before the RQI
_NUDGES = (16.0, 1e4, 1e7)       # see _shifted_solve
_CERT_MARGIN = 1e-3              # inertia is counted at lam * (1 - margin)


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


@dataclass(frozen=True)
class _Pencil:
    """Tridiagonal stiffness/mass pair plus cancellation-free quadratic forms.

    ``stiff_w`` holds the per-element weight integrals; the mass form is kept
    as its defining Gauss sum (element index, coefficient w*h(g), hat values
    at g), so both Rayleigh forms are sums of nonnegative terms.  The
    tridiagonal matvec (entries of size n^2) is used only for directions and
    residuals, never for the reported eigenvalue.
    """

    a_main: np.ndarray
    a_off: np.ndarray
    b_main: np.ndarray
    b_off: np.ndarray
    stiff_w: np.ndarray
    g_elem: np.ndarray
    g_coef: np.ndarray
    g_phi_l: np.ndarray
    g_phi_r: np.ndarray
    n: int

    def amat(self, z):
        out = self.a_main * z
        out[:-1] += self.a_off * z[1:]
        out[1:] += self.a_off * z[:-1]
        return out

    def bmat(self, z):
        out = self.b_main * z
        out[:-1] += self.b_off * z[1:]
        out[1:] += self.b_off * z[:-1]
        return out

    def a_form(self, z):
        slope = (z[1:] - z[:-1]) * self.n
        return float(np.dot(self.stiff_w, slope * slope))

    def b_form(self, z):
        zg = z[self.g_elem] * self.g_phi_l + z[self.g_elem + 1] * self.g_phi_r
        return float(np.dot(self.g_coef, zg * zg))


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
    seg_int = 0.5 * (h(a) + h(b)) * length
    acc = np.zeros(n)
    np.add.at(acc, e, seg_int)
    inv_dx2 = float(n) * float(n)
    a_main = np.zeros(n + 1)
    a_main[:-1] += acc
    a_main[1:] += acc
    a_main *= inv_dx2
    a_off = -acc * inv_dx2

    xl = grid[e]
    half = 0.5 * length
    gauss_x = np.concatenate([mid - half * _INV_SQRT3, mid + half * _INV_SQRT3])
    g_elem = np.concatenate([e, e])
    g_w = np.concatenate([half, half])
    g_phi_r = (gauss_x - np.concatenate([xl, xl])) * n
    g_phi_l = 1.0 - g_phi_r

    def mass_pencil(hg):
        coef = g_w * hg
        mLL = np.zeros(n)
        mRR = np.zeros(n)
        mLR = np.zeros(n)
        np.add.at(mLL, g_elem, coef * g_phi_l * g_phi_l)
        np.add.at(mRR, g_elem, coef * g_phi_r * g_phi_r)
        np.add.at(mLR, g_elem, coef * g_phi_l * g_phi_r)
        b_main = np.zeros(n + 1)
        b_main[:-1] += mLL
        b_main[1:] += mRR
        return _Pencil(a_main, a_off, b_main, mLR, acc,
                       g_elem, coef, g_phi_l, g_phi_r, n)

    interior = mass_pencil(h(gauss_x))
    boundary = mass_pencil(np.ones_like(gauss_x))
    return interior, boundary


def _solve_pencil(p: _Pencil, tol: float = 1e-9, max_iter: int = 50) -> SpectralResult:
    """Smallest nonzero eigenvalue of the pencil with constants deflated.

    Each step maps z to deflate(T^-1 B z), B-normalised; the cancellation-free
    forms alone give the reported eigenvalue.  The first ``_WARM_STEPS`` use
    T = A + cB (one banded Cholesky factor), then Rayleigh-quotient iteration
    takes T = A - lam B (``_shifted_solve``).  The result has passed the
    inertia certificate; ``iterations`` counts the solves, warm start included.
    """
    n_dofs = p.a_main.size
    ones = np.ones(n_dofs)
    w = p.bmat(ones)
    wtot = float(w @ ones)
    if not wtot > 0:
        raise SolverError("mass matrix is not positive on constants")

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
    ab = np.zeros((2, n_dofs))
    ab[0, 1:] = p.a_off + c * p.b_off
    ab[1, :] = p.a_main + c * p.b_main
    try:
        cb = cholesky_banded(ab)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"shifted pencil not positive definite: {exc}") from exc

    eps = np.finfo(float).eps
    lam_old = np.inf
    stagnant = 0
    lam = 0.0
    res = np.inf
    for it in range(1, max_iter + 1):
        if it <= _WARM_STEPS:
            y = cho_solve_banded((cb, False), p.bmat(z))
        else:
            y = _shifted_solve(p, lam, p.bmat(z))
        y = deflate(y)
        norm = np.sqrt(max(p.b_form(y), 0.0))
        if not norm > 0:
            raise SolverError("iteration collapsed onto the deflated subspace")
        z = y / norm
        lam = p.a_form(z)
        Az = p.amat(z)
        Bz = p.bmat(z)
        r = Az - lam * Bz
        denom = np.linalg.norm(Az) + abs(lam) * np.linalg.norm(Bz)
        res = float(np.linalg.norm(r) / denom)
        # roundoff floor of the matvec residual in this (badly scaled) basis
        az_abs = np.abs(p.a_main) * np.abs(z)
        az_abs[:-1] += np.abs(p.a_off) * np.abs(z[1:])
        az_abs[1:] += np.abs(p.a_off) * np.abs(z[:-1])
        floor = eps * float(np.linalg.norm(az_abs)) / denom
        stagnant = stagnant + 1 if abs(lam - lam_old) <= 4 * eps * abs(lam) else 0
        if res <= max(tol, 8.0 * floor) and (stagnant >= 2 or res <= tol):
            _certify_first(p, lam)
            return SpectralResult(lam, z, res, n_dofs, it)
        lam_old = lam
    raise SolverError(f"Rayleigh-quotient iteration did not converge (residual {res:.2e})")


def _shifted_solve(p: _Pencil, lam: float, rhs: np.ndarray) -> np.ndarray:
    """(A - lam B)^-1 rhs by LAPACK dgtsv.  A's entries scale like n^2 h and
    lam B's like lam h / n, so near convergence T can be exactly singular and
    ulps of lam would not change it: the shift moves by ``_NUDGES`` times the
    smallest change of lam that A's largest diagonal entry can show."""
    unit = np.finfo(float).eps * float(np.max(p.a_main) / np.max(p.b_main))
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


def _pencils(h: ProfileH, elements: int):
    """(interior, boundary) pencils of an admissible weight."""
    if np.any(h.values < -1e-12):
        raise ValueError("weight must be nonnegative")
    if h.integral() <= 0:
        raise ValueError("weight must have positive integral")
    return _assemble(h, elements)


def mu1(h: ProfileH, elements: int = 1024, *, pencils=None) -> SpectralResult:
    """First nonzero eigenvalue of the interior-type weighted problem; pass
    ``pencils=_pencils(h, elements)`` to reuse an assembly."""
    return _solve_pencil((pencils or _pencils(h, elements))[0])


def sigma1(h: ProfileH, elements: int = 1024, *, pencils=None) -> SpectralResult:
    """First nonzero eigenvalue of the boundary-type weighted problem."""
    return _solve_pencil((pencils or _pencils(h, elements))[1])


def _grids(h: ProfileH, elements: int) -> tuple:
    """(n, pencils) on the three grids n = elements, elements/2, elements/4
    of the Richardson extrapolation."""
    if elements % 4:
        raise ValueError("element count must be divisible by 4")
    return tuple((n, _pencils(h, n)) for n in (elements, elements // 2, elements // 4))


def _extrapolate(solver, h: ProfileH, grids) -> float:
    """Two-step Richardson extrapolation of the order-2 discretization."""
    v4, v2, v1 = (solver(h, n, pencils=p).eigenvalue for n, p in grids)
    e2 = (4.0 * v4 - v2) / 3.0
    e1 = (4.0 * v2 - v1) / 3.0
    return (16.0 * e2 - e1) / 15.0


def mu1_extrapolated(h: ProfileH, elements: int = 2048, *, grids=None) -> float:
    """Richardson limit of mu1; pass ``grids=_grids(h, elements)`` to reuse
    assemblies."""
    return _extrapolate(mu1, h, grids or _grids(h, elements))


def sigma1_extrapolated(h: ProfileH, elements: int = 2048, *, grids=None) -> float:
    return _extrapolate(sigma1, h, grids or _grids(h, elements))


def extrapolated_pair(h: ProfileH, elements: int = 2048) -> tuple:
    """(mu1, sigma1) Richardson limits, both from one assembly per grid."""
    grids = _grids(h, elements)
    return (mu1_extrapolated(h, elements, grids=grids),
            sigma1_extrapolated(h, elements, grids=grids))


def F_of_h(h: ProfileH, elements: int = 1024) -> float:
    """Scale-invariant ratio mu1(h) * integral(h) / sigma1(h) on matched grids."""
    return f_record(h, elements)["F"]


def f_record(h: ProfileH, elements: int = 1024, *, pencils=None) -> dict:
    """mu1, sigma1 and F with solver certificates, for reporting; pass
    ``pencils=_pencils(h, elements)`` to reuse an assembly."""
    pair = pencils or _pencils(h, elements)
    m = mu1(h, elements, pencils=pair)
    s = sigma1(h, elements, pencils=pair)
    integ = h.integral()
    return {
        "elements": elements,
        "integral": integ,
        "mu1": m.eigenvalue,
        "sigma1": s.eigenvalue,
        "F": m.eigenvalue * integ / s.eigenvalue,
        "mu1_residual": m.residual,
        "sigma1_residual": s.residual,
        "mu1_iterations": m.iterations,
        "sigma1_iterations": s.iterations,
    }


def _cumulative_t_over_h(h: ProfileH, pts: np.ndarray) -> np.ndarray:
    """int_0^p t / h(t) dt for each p in pts (pts sorted, inside [0, 1]).

    Closed form per linear piece; the log is taken through log1p against the
    left endpoint to stay accurate for nearly constant pieces.  Pieces where h
    vanishes at an interior point would make the integral diverge; admissible
    profiles vanish at most at the endpoints, where the integrand t/h stays
    integrable against the linear decay.
    """
    k, v, s = h.knots, h.values, h.slopes()

    def piece_int(i, a, b):
        # integral over [a, b] contained in piece i
        if b <= a:
            return 0.0
        beta = s[i]
        alpha = v[i] - beta * k[i]  # h(t) = alpha + beta t
        ha = alpha + beta * a
        hb = alpha + beta * b
        if ha == 0.0 and a == 0.0 and beta > 0.0:
            # profile vanishing at t = 0: the linear factor t cancels the decay
            return (b - a) / beta
        if min(ha, hb) <= 0.0:
            raise ValueError("weight vanishes inside (0, 1); kernel integral diverges")
        if abs(beta) * (b - a) < 1e-9 * max(ha, hb):
            # nearly constant piece: two-point Gauss on t/h is exact enough
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            out = 0.0
            for g in (mid - half * _INV_SQRT3, mid + half * _INV_SQRT3):
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
