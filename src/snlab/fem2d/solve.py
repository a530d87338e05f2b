"""Eigenvalue extraction from assembled P2 systems.

Both pencils take one path: the Neumann pencil (K, M) and the Steklov pencil
(K, B), written (K, W) below, are solved by shift-inverted Lanczos at a shift
s just below the first nonzero eigenvalue lambda_1.  K is singular with the
constants in its kernel, and W is positive on constants.  Let X be the node
coordinates, each column minus its W-weighted mean, and rho the smaller
eigenvalue of the 2x2 pencil (X.K X, X.W X).  Linear functions lie in the P2
space and X is W-orthogonal to the constants, so rho >= lambda_1 by min-max;
s = ``_SHIFT_FRACTION`` * rho.  K and W are CSC on one pattern (see
``assemble``), so K - sW is an axpy on their data arrays; its exact zeros
are dropped, or MMD would order them (on a strip they grew the factor by
23%).  B stores zeros on that pattern off the boundary (on a seed-7 campaign
polygon, 40,312 of its 41,248 entries), so every product by W goes through a
copy of W with its zeros dropped, one code path for both pencils (the copy of
M drops nothing).  Adding a stored zero changes no sum, so the products are
bit-identical, at a quarter of the cost.  SuperLU factors K - sW once, with
the MMD ordering of its symmetric pattern, supernodes smaller than its
defaults (``_RELAX``, ``_PANEL``) and its threshold pivoting, which the
indefinite K - sW needs (unpivoted, a disk's residual grew 25-fold).  The operator is

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
pair's residual in OP.  A breakdown (beta_j zero or not finite) before that
test holds, or reaching ``_MAX_STEPS``, raises ``FEMError``.  An eigenvalue
lambda' in (0, s) would show as nu' = 1 / (lambda' - s) < -1/s, and the
largest nu would then belong to a higher eigenvalue, with a residual as small
as any.  So when the smallest Ritz value at the stop is negative, the pencil
is solved again at s = -rho/2, where K - sW is positive definite.

B is supported on boundary dofs only, so it is singular: semidefinite, not
definite.  OP maps every vector to the discrete harmonic extension of W times
it, and <., .>_W is an inner product on that range (a harmonic extension with
zero boundary values is zero).  The run therefore starts from OP v0 rather
than v0, as ARPACK's ``dgetv0`` does when B may be singular: every basis
vector then lies in the range of OP, the W-norms are true norms, and the
infinite eigenvalues of the pencil (nu = 0) never enter.  No dense boundary
block is formed, and the basis holds only the steps taken, so memory stays
proportional to the sparse factor.

Residuals are always reported against the full pencil.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.linalg.lapack import dstevd
from scipy.sparse.linalg import splu

from .assemble import FEMSystem

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
    lu_nnz: int = 0              # nonzeros of the L and U factors of K - sW
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
            if abs(norm * S[-1, -1]) <= _EPS * abs(nu[-1]):
                return nu, Q[1:j + 1].T @ S[:, -1], j + 1
        beta.append(norm)
    raise FEMError(f"{kind} Lanczos did not converge in {_MAX_STEPS} steps")


def _first_nonzero(K, W, coords, kind: str) -> EigenPair2D:
    """Smallest nonzero eigenvalue of (K, W), CSC matrices on one pattern, with
    the dofs at ``coords``; certified by the guard and the full-pencil residual."""
    n = K.shape[0]
    Wp = W.copy()                # own index arrays; products skip the stored zeros
    Wp.eliminate_zeros()
    w1 = Wp @ np.ones(n)
    X = coords - (w1 @ coords) / w1.sum()
    rho = float(eigh(X.T @ (K @ X), X.T @ (Wp @ X), eigvals_only=True)[0])
    if not 0 < rho < np.inf:
        raise FEMError(f"{kind} Rayleigh-quotient bound {rho} is not finite and positive")
    z = np.full(n, 1.0 / np.sqrt(w1.sum()))
    v0 = np.random.default_rng(0x5EED).standard_normal(n)
    for shift in (_SHIFT_FRACTION * rho, -0.5 * rho):
        # copies, as dropping zeros in place would rewrite every matrix sharing them
        A = sparse.csc_matrix((K.data - shift * W.data, K.indices.copy(), K.indptr.copy()),
                              shape=K.shape)
        A.eliminate_zeros()
        try:
            lu = splu(A, permc_spec="MMD_AT_PLUS_A", relax=_RELAX, panel_size=_PANEL)
        except RuntimeError as exc:   # singular factor
            raise FEMError(f"{kind} eigensolve failed: {exc}") from exc
        nu, vec, steps = _lanczos(lu.solve, Wp, v0, z, kind)
        if nu[0] >= 0:               # no eigenvalue in (0, s)
            break
    lam = shift + 1.0 / float(nu[-1])
    res = _relative_residual(K, Wp, lam, vec)
    if res > RESIDUAL_TOL:
        raise FEMError(f"{kind} residual {res:.2e} above {RESIDUAL_TOL}")
    # lu.nnz is L.nnz + U.nnz at relax 1 (no padded supernodes), without copies
    return EigenPair2D(eigenvalue=lam, residual=res, eigenvector=vec,
                       iterations=steps, lu_nnz=lu.nnz, shift=shift)


def neumann_mu1(system: FEMSystem) -> EigenPair2D:
    return _first_nonzero(system.K, system.M, system.nodes, "neumann")


def steklov_sigma1(system: FEMSystem) -> EigenPair2D:
    return _first_nonzero(system.K, system.B, system.nodes, "steklov")
