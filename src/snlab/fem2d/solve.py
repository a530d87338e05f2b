"""Eigenvalue extraction from assembled P2 systems.

Both pencils take one path: the Neumann pencil (K, M) and the Steklov pencil
(K, B), written (K, W) below, are solved by shift-inverted Lanczos at a small
negative shift s.  K is singular with the constants in its kernel and W is
positive on constants, so K - sW is positive definite.  SuperLU factors it
once, with the MMD ordering of its symmetric pattern and supernodes smaller
than its defaults (``_RELAX``, ``_PANEL``), and the operator is

    OP = (K - sW)^-1 W,    OP x = nu x  with  nu = 1 / (lambda - s),

self-adjoint in the W inner product <x, y>_W = x.W y.  The zero mode and the
first nontrivial mode are the two largest nu; the shift is fixed by the
domain's length scale L, as -(pi/L)^2 / 2 for mu (units 1/length^2) and
-(pi/L) / 2 for sigma (units 1/length).

Lanczos (Nour-Omid, Parlett, Ericsson & Jensen, "How to implement the
spectral transformation", Math. Comp. 48, 1987) builds a W-orthonormal basis
q_1, q_2, ... with

    beta_j q_{j+1} = OP q_j - alpha_j q_j - beta_{j-1} q_{j-1},

reorthogonalized in full: after the recurrence, one classical Gram-Schmidt
pass against the whole basis, repeated only when it leaves less than 1/sqrt(2)
of the vector's W-norm (the test of Daniel, Gragg, Kaufman & Stewart, Math.
Comp. 30, 1976), so that OP acts on the basis as the symmetric tridiagonal
matrix T_j = tridiag(beta, alpha, beta).  After every step the eigenpairs
(nu, y) of T_j, from LAPACK ``dstevd`` called directly, give Ritz values, and
the run stops as soon as the two largest satisfy ARPACK's default test
(Lehoucq, Sorensen & Yang, ARPACK Users' Guide, 1998)

    |beta_j y_j| <= eps |nu|,    eps the machine epsilon,

where |beta_j y_j|, y_j the last entry of y, is the W-norm of the Ritz
pair's residual in OP.  A breakdown (beta_j zero or not finite) before that
test holds, or reaching ``_MAX_STEPS``, raises ``FEMError``.

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
from scipy.linalg.lapack import dstevd
from scipy.sparse.linalg import splu

from .assemble import FEMSystem

RESIDUAL_TOL = 1e-9
_MAX_STEPS = 100                 # Lanczos step cap; campaign and strip solves take 12-29
_BLOCK = 32                      # basis rows allocated at a time
_EPS = np.finfo(float).eps
# SuperLU supernode settings; its defaults are relax 10, panel_size 20.  Mean
# factor time over 20 campaign and 12 strip matrices fell from 12-14 to 10 ms
# and from 5 to 3.3 ms at (1, 2), level with (1, 1), (2, 2) and (2, 4); (1, 4),
# (1, 8), (4, 8) and (5, 10) were slower, and the fill never changed.  The
# sweep is in CHANGES.md.  Keep relax <= panel_size.
_RELAX, _PANEL = 1, 2


class FEMError(RuntimeError):
    """Eigenvalue solve failed to converge or to certify its residual."""


@dataclass(frozen=True)
class EigenPair2D:
    eigenvalue: float
    residual: float
    eigenvector: np.ndarray = field(repr=False, compare=False, default=None)
    iterations: int = 0          # operator applications, the start included
    lu_nnz: int = 0              # nonzeros of the L and U factors of K - sW


def _relative_residual(K, W, lam, vec) -> float:
    kv = K @ vec
    wv = W @ vec
    return float(np.linalg.norm(kv - lam * wv)
                 / (np.linalg.norm(kv) + abs(lam) * np.linalg.norm(wv)))


def _lanczos(solve, W, v0, kind: str):
    """Two largest eigenpairs (nu, x) of OP = solve(W .) in the W inner
    product, started from OP v0; returns (nu, X, operator applications)."""
    q = solve(W @ v0)
    wq = W @ q
    norm = np.sqrt(q @ wq)
    Q = np.empty((_BLOCK, q.size))             # rows q_i
    WQ = np.empty((_BLOCK, q.size))            # rows W q_i
    alpha, beta = [], []
    for j in range(_MAX_STEPS):
        if not 0 < norm < np.inf:
            raise FEMError(f"{kind} Lanczos broke down at step {j}")
        if j == len(Q):
            Q = np.concatenate([Q, np.empty((_BLOCK, q.size))])
            WQ = np.concatenate([WQ, np.empty((_BLOCK, q.size))])
        Q[j], WQ[j] = q / norm, wq / norm
        q = solve(WQ[j])
        alpha.append(q @ WQ[j])
        q -= alpha[-1] * Q[j]
        if j:
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
        if j:
            nu, S, info = dstevd(alpha, beta, compute_v=1)
            if info:
                raise FEMError(f"{kind} tridiagonal eigensolve failed (LAPACK info {info})")
            nu, S = nu[-2:], S[:, -2:]
            if np.all(np.abs(norm * S[-1]) <= _EPS * np.abs(nu)):
                return nu, Q[:j + 1].T @ S, j + 2
        beta.append(norm)
    raise FEMError(f"{kind} Lanczos did not converge in {_MAX_STEPS} steps")


def _first_nonzero(system: FEMSystem, W, kind: str, length_power: int) -> EigenPair2D:
    """Smallest nonzero eigenvalue of (K, W), certified by the zero mode and
    the full-pencil residual; ``length_power`` is the eigenvalue's dimension
    in 1/length."""
    K = system.K
    span = system.nodes.max(axis=0) - system.nodes.min(axis=0)
    shift = -0.5 * (np.pi / float(np.sqrt(span @ span))) ** length_power
    v0 = np.random.default_rng(0x5EED).standard_normal(system.n_dofs)
    try:
        lu = splu((K - shift * W).tocsc(), permc_spec="MMD_AT_PLUS_A",
                  relax=_RELAX, panel_size=_PANEL)
    except RuntimeError as exc:   # singular factor
        raise FEMError(f"{kind} eigensolve failed: {exc}") from exc
    nu, vecs, steps = _lanczos(lu.solve, W, v0, kind)
    vals = shift + 1.0 / nu
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    lam = float(vals[1])
    if lam <= 0 or abs(vals[0]) > 1e-6 * lam:
        raise FEMError(f"unexpected low {kind} spectrum {vals}: zero mode not resolved")
    vec = vecs[:, 1]
    res = _relative_residual(K, W, lam, vec)
    if res > RESIDUAL_TOL:
        raise FEMError(f"{kind} residual {res:.2e} above {RESIDUAL_TOL}")
    return EigenPair2D(eigenvalue=lam, residual=res, eigenvector=vec,
                       iterations=steps, lu_nnz=lu.L.nnz + lu.U.nnz)


def neumann_mu1(system: FEMSystem) -> EigenPair2D:
    return _first_nonzero(system, system.M, "neumann", 2)


def steklov_sigma1(system: FEMSystem) -> EigenPair2D:
    return _first_nonzero(system, system.B, "steklov", 1)
