"""Eigenvalue extraction from assembled P2 systems.

Both pencils take one path: the Neumann pencil (K, M) and the Steklov pencil
(K, B), written (K, W) below, are solved by shift-inverted Lanczos (ARPACK
mode 3) at a small negative shift s.  K is singular with the constants in its
kernel and W is positive on constants, so K - sW is positive definite.  It is
factored once, with an ordering for its symmetric pattern, and the factor is
ARPACK's inverse operator.  The zero mode and the first nontrivial mode are
the two eigenvalues nearest the shift; the shift is fixed by the domain's
length scale L, as -(pi/L)^2 / 2 for mu (units 1/length^2) and -(pi/L) / 2
for sigma (units 1/length).

B is supported on boundary dofs only, so it is singular: semidefinite, not
definite.  Shift-invert mode allows that (Lehoucq, Sorensen & Yang, ARPACK
Users' Guide, 1998): the operator (K - sB)^-1 B maps every vector to the
discrete harmonic extension of its boundary values, and the infinite
eigenvalues of the pencil map to 1/(lambda - s) = 0, so the largest-magnitude
Ritz values are never among them.  No dense boundary block is formed, so
memory stays proportional to the sparse factor.

Residuals are always reported against the full pencil.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from .assemble import FEMSystem

RESIDUAL_TOL = 1e-9


class FEMError(RuntimeError):
    """Eigenvalue solve failed to converge or to certify its residual."""


@dataclass(frozen=True)
class EigenPair2D:
    eigenvalue: float
    kind: str                    # "neumann" | "steklov"
    dofs: int
    h_max: float
    residual: float
    eigenvector: np.ndarray = field(repr=False, compare=False, default=None)


def _relative_residual(K, W, lam, vec) -> float:
    kv = K @ vec
    wv = W @ vec
    return float(np.linalg.norm(kv - lam * wv)
                 / (np.linalg.norm(kv) + abs(lam) * np.linalg.norm(wv)))


def _first_nonzero(system: FEMSystem, W, kind: str, length_power: int) -> EigenPair2D:
    """Smallest nonzero eigenvalue of (K, W), certified by the zero mode and
    the full-pencil residual; ``length_power`` is the eigenvalue's dimension
    in 1/length."""
    K = system.K
    span = system.nodes.max(axis=0) - system.nodes.min(axis=0)
    shift = -0.5 * (np.pi / float(np.sqrt(span @ span))) ** length_power
    v0 = np.random.default_rng(0x5EED).standard_normal(system.n_dofs)
    try:
        lu = splu((K - shift * W).tocsc(), permc_spec="MMD_AT_PLUS_A")
        op = LinearOperator(K.shape, matvec=lu.solve, dtype=float)
        vals, vecs = eigsh(K, k=2, M=W, sigma=shift, which="LM", OPinv=op, v0=v0)
    except RuntimeError as exc:   # singular factor or ARPACK failure
        raise FEMError(f"{kind} eigensolve failed: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    lam = float(vals[1])
    if lam <= 0 or abs(vals[0]) > 1e-6 * lam:
        raise FEMError(f"unexpected low {kind} spectrum {vals}: zero mode not resolved")
    vec = vecs[:, 1]
    res = _relative_residual(K, W, lam, vec)
    if res > RESIDUAL_TOL:
        raise FEMError(f"{kind} residual {res:.2e} above {RESIDUAL_TOL}")
    return EigenPair2D(eigenvalue=lam, kind=kind, dofs=system.n_dofs,
                       h_max=system.mesh.hmax(), residual=res, eigenvector=vec)


def neumann_mu1(system: FEMSystem) -> EigenPair2D:
    return _first_nonzero(system, system.M, "neumann", 2)


def steklov_sigma1(system: FEMSystem) -> EigenPair2D:
    return _first_nonzero(system, system.B, "steklov", 1)
