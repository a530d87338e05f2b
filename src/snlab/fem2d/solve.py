"""Eigenvalue extraction from assembled P2 systems.

Both pencils take one path: the Neumann pencil (K, M) and the Steklov pencil
(K, B), written (K, W) below, are solved by shift-inverted Lanczos at a shift
s just below the first nonzero eigenvalue lambda_1.  K is singular with the
constants in its kernel, and W is positive on constants.  Let X be the node
coordinates, each column minus its W-weighted mean, and rho the smaller
eigenvalue of the 2x2 pencil (X.K X, X.W X).  Linear functions lie in the P2
space and X is W-orthogonal to the constants, so rho >= lambda_1 by min-max;
s = ``_SHIFT_FRACTION`` * rho.  K - sW is factored once, by one of two
factors, and the system chooses which:

- A stretched strip, each system of ``thin_sweep``, carries a band layout
  (``FEMSystem.band``).  A strip is a chain of columns, and its system
  numbers its P2 dofs by x and then y where it is assembled: each couples
  only to its own and the neighbouring columns, so K - sW is narrowly
  banded as numbered (half-bandwidth kl = 20 on every strip measured).  Its
  entries are scattered straight from K's and W's stored entries into
  LAPACK's (3 kl + 1) x n band array, which ``dgbtrf`` factors in place with
  partial pivoting; ``dgbtrs`` solves.  On the tent-0.3 strip at eps 0.2
  (3603 dofs, one BLAS thread) the factor took 1.0 ms against SuperLU's
  2.0-2.6 ms, and a solve 0.13 ms against 0.15-0.17 ms.
- Every other system goes to SuperLU, polygon meshes above all, whose band
  stays wide: the square at hmax 0.03 (7953 dofs) has RCM half-bandwidth
  267, and ``dgbtrf`` took 70-122 ms against SuperLU's 16 ms.  K - sW is
  scipy's sparse subtraction, which drops exact zeros; MMD would otherwise
  order them (on a strip they grew the factor by 23%).  SuperLU factors it
  with the MMD ordering of its symmetric pattern, supernodes smaller than
  its defaults (``_RELAX``, ``_PANEL``) and its threshold pivoting, which
  the indefinite K - sW needs (unpivoted, a disk's residual grew 25-fold).

The operator is

    OP = (K - sW)^-1 W,    OP x = nu x  with  nu = 1 / (lambda - s),

self-adjoint in the W inner product <x, y>_W = x.W y.  The zero mode,
nu = -1/s, is deflated: the W-unit constant vector is a fixed first basis
vector, and lambda_1 = s + 1/nu for the largest nu.

Lanczos (Nour-Omid, Parlett, Ericsson & Jensen, "How to implement the
spectral transformation", Math. Comp. 48, 1987) builds a W-orthonormal basis
q_1, q_2, ... with

    beta_j q_{j+1} = OP q_j - alpha_j q_j - beta_{j-1} q_{j-1},

reorthogonalized in full: after the recurrence, one classical Gram-Schmidt
pass against the constants and the whole basis, repeated only when it leaves
less than 1/sqrt(2) of the vector's W-norm (the test of Daniel, Gragg,
Kaufman & Stewart, Math. Comp. 30, 1976), so that OP acts on the basis as the
symmetric tridiagonal matrix T_j = tridiag(beta, alpha, beta).  From the
second step on, the eigenpairs (nu, y) of T_j, from LAPACK ``dstevd`` called
directly, give Ritz values, and the run stops as soon as the largest
satisfies ARPACK's default test (Lehoucq, Sorensen & Yang, ARPACK Users'
Guide, 1998)

    |beta_j y_j| <= eps |nu|,    eps the machine epsilon,

where |beta_j y_j|, y_j the last entry of y, is the W-norm of the Ritz
pair's residual in OP.  It also stops when beta_j <= sqrt(eps) |OP q_j|_W,
|OP q_j|_W^2 = alpha_j^2 + beta_{j-1}^2 + beta_j^2: the basis then spans an
invariant subspace, as on a pencil with fewer distinct eigenvalues than steps
(the 9-dof square at hmax 2), and its Ritz pairs are eigenpairs.  A breakdown
(beta_1 zero, or beta_j not finite) or reaching ``_MAX_STEPS`` raises
``FEMError``.  An eigenvalue lambda' in (0, s) would show as
nu' = 1 / (lambda' - s) < -1/s, and the largest nu would then belong to a
higher eigenvalue, with a residual as small as any.  So when the smallest
Ritz value at the stop is negative, the pencil is solved again at
s = -rho/2, where K - sW is positive definite.

B is supported on boundary dofs only, so it is singular: semidefinite, not
definite.  OP maps every vector to the discrete harmonic extension of W times
it, and <., .>_W is an inner product on that range (a harmonic extension with
zero boundary values is zero).  The run therefore starts from OP v0 rather
than v0, as ARPACK's ``dgetv0`` does when B may be singular: every basis
vector then lies in the range of OP, the W-norms are true norms, and the
infinite eigenvalues of the pencil (nu = 0) never enter.  No dense boundary
block is formed, and the basis holds only the steps taken, so memory stays
proportional to the sparse or band factor.

Residuals are always reported against the full pencil.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dgbtrf, dgbtrs, dstevd
from scipy.sparse.linalg import splu

from .assemble import BandLayout, FEMSystem

RESIDUAL_TOL = 1e-9
_MAX_STEPS = 100                 # Lanczos step cap; campaign and strip solves take 9-21
_BLOCK = 32                      # basis rows allocated at a time
_EPS = np.finfo(float).eps
# SuperLU supernode settings; its defaults are relax 10, panel_size 20.  Mean
# factor time over 20 campaign and 12 strip matrices fell from 12-14 to 10 ms
# and from 5 to 3.3 ms at (1, 2), level with (1, 1), (2, 2) and (2, 4); (1, 4),
# (1, 8), (4, 8) and (5, 10) were slower, and the fill never changed.  The
# sweep is in CHANGES.md.  Keep relax <= panel_size.
_RELAX, _PANEL = 1, 2
# The shift as a fraction of the bound rho >= lambda_1.  On 470 polygons and
# strips rho / lambda_1 <= 1.472, so the shift lay in [0.6, 0.88] lambda_1.
_SHIFT_FRACTION = 0.6


class FEMError(RuntimeError):
    """Eigenvalue solve failed to converge or to certify its residual."""


@dataclass(frozen=True)
class EigenPair2D:
    eigenvalue: float
    residual: float
    eigenvector: np.ndarray = field(repr=False, compare=False, default=None)
    iterations: int = 0          # operator applications, the start included
    lu_nnz: int = 0              # entries of the factor of K - sW: SuperLU's L and U
                                 # nonzeros, or the n (3 kl + 1) of the band array
    shift: float = 0.0           # s; negative after the guard's fallback


def _relative_residual(K, W, lam, vec) -> float:
    kv = K @ vec
    wv = W @ vec
    return float(np.linalg.norm(kv - lam * wv)
                 / (np.linalg.norm(kv) + abs(lam) * np.linalg.norm(wv)))


def _lanczos(solve, W, v0, z, kind: str):
    """Largest eigenpair (nu, x) of OP = solve(W .) in the W inner product,
    on the W-orthogonal complement of the W-unit vector z, started from
    OP v0; returns (all Ritz values ascending, x, operator applications)."""
    Q = np.empty((_BLOCK, z.size))             # rows z, q_1, q_2, ...
    WQ = np.empty((_BLOCK, z.size))            # rows W z, W q_i
    Q[0], WQ[0] = z, W @ z
    q = solve(W @ v0)
    q -= (WQ[0] @ q) * z
    wq = W @ q
    norm = np.sqrt(q @ wq)
    alpha, beta = [], []
    for j in range(1, _MAX_STEPS + 1):
        if not 0 < norm < np.inf:
            raise FEMError(f"{kind} Lanczos broke down at step {j}")
        if j == len(Q):
            Q = np.concatenate([Q, np.empty((_BLOCK, z.size))])
            WQ = np.concatenate([WQ, np.empty((_BLOCK, z.size))])
        Q[j], WQ[j] = q / norm, wq / norm
        q = solve(WQ[j])
        alpha.append(q @ WQ[j])
        q -= alpha[-1] * Q[j]
        if beta:
            q -= beta[-1] * Q[j - 1]
        coef = WQ[:j + 1] @ q
        q -= coef @ Q[:j + 1]
        wq = W @ q
        norm = np.sqrt(q @ wq)
        # DGKS: repeat the pass when it left less than 1/sqrt(2) of the
        # W-norm, whose square before it was norm^2 + |coef|^2
        if norm * norm < coef @ coef:
            q -= (WQ[:j + 1] @ q) @ Q[:j + 1]
            wq = W @ q
            norm = np.sqrt(q @ wq)
        if beta:
            nu, S, info = dstevd(alpha, beta, compute_v=1)
            if info:
                raise FEMError(f"{kind} tridiagonal eigensolve failed (LAPACK info {info})")
            # beta_j at rounding level against |OP q_j|_W: an invariant subspace
            invariant = norm * norm <= _EPS * (alpha[-1] ** 2 + beta[-1] ** 2 + norm * norm)
            if invariant or abs(norm * S[-1, -1]) <= _EPS * abs(nu[-1]):
                return nu, Q[1:j + 1].T @ S[:, -1], j + 1
        beta.append(norm)
    raise FEMError(f"{kind} Lanczos did not converge in {_MAX_STEPS} steps")


def _superlu(K, W, shift, kind: str):
    """SuperLU's factor of the sparse difference K - sW: (solve, L and U nonzeros)."""
    try:
        lu = splu(K - shift * W, permc_spec="MMD_AT_PLUS_A", relax=_RELAX, panel_size=_PANEL)
    except RuntimeError as exc:   # singular factor
        raise FEMError(f"{kind} eigensolve failed: {exc}") from exc
    # lu.nnz is L.nnz + U.nnz at relax 1 (no padded supernodes), without copies
    return lu.solve, lu.nnz


def _banded(K, W, w_flat, shift, band: BandLayout, kind: str):
    """LAPACK's banded LU of K - sW in the system's own numbering, scattered
    straight from K's and W's stored entries at ``band.k_flat`` and ``w_flat``:
    (solve, band array entries)."""
    kl = band.kl
    ab = np.zeros((K.shape[0], 3 * kl + 1)).T      # Fortran-ordered, factored in place
    flat = ab.reshape(-1, order="F")               # a view of ab
    flat[band.k_flat] = K.data
    flat[w_flat] -= shift * W.data
    ab, piv, info = dgbtrf(ab, kl, kl, overwrite_ab=1)
    if info:
        raise FEMError(f"{kind} eigensolve failed: banded LU info {info}")

    def solve(b):
        return dgbtrs(ab, kl, kl, b, piv)[0]

    return solve, ab.size


def _first_nonzero(K, W, coords, kind: str, band, w_flat) -> EigenPair2D:
    """Smallest nonzero eigenvalue of (K, W), CSC matrices, with the dofs at
    ``coords``; certified by the guard and the full-pencil residual.  With a
    ``band`` layout, in which W's entries sit at ``w_flat``, K - sW takes the
    banded factor; with None, SuperLU's."""
    n = K.shape[0]
    w1 = W @ np.ones(n)
    X = coords - (w1 @ coords) / w1.sum()
    rho = float(eigh(X.T @ (K @ X), X.T @ (W @ X), eigvals_only=True)[0])
    if not 0 < rho < np.inf:
        raise FEMError(f"{kind} Rayleigh-quotient bound {rho} is not finite and positive")
    z = np.full(n, 1.0 / np.sqrt(w1.sum()))
    v0 = np.random.default_rng(0x5EED).standard_normal(n)
    for shift in (_SHIFT_FRACTION * rho, -0.5 * rho):
        if band is None:
            solve, lu_nnz = _superlu(K, W, shift, kind)
        else:
            solve, lu_nnz = _banded(K, W, w_flat, shift, band, kind)
        nu, vec, steps = _lanczos(solve, W, v0, z, kind)
        if nu[0] >= 0:               # no eigenvalue in (0, s)
            break
    lam = shift + 1.0 / float(nu[-1])
    res = _relative_residual(K, W, lam, vec)
    if res > RESIDUAL_TOL:
        raise FEMError(f"{kind} residual {res:.2e} above {RESIDUAL_TOL}")
    return EigenPair2D(eigenvalue=lam, residual=res, eigenvector=vec,
                       iterations=steps, lu_nnz=lu_nnz, shift=shift)


def neumann_mu1(system: FEMSystem) -> EigenPair2D:
    m_flat = None if system.band is None else system.band.k_flat   # M lies on K's pattern
    return _first_nonzero(system.K, system.M, system.nodes, "neumann", system.band, m_flat)


def steklov_sigma1(system: FEMSystem) -> EigenPair2D:
    b_flat = None if system.band is None else system.band.b_flat
    return _first_nonzero(system.K, system.B, system.nodes, "steklov", system.band, b_flat)
