"""P2 Lagrange assembly: stiffness, domain mass, and boundary mass matrices.

Elements are affine triangles with six nodes (corners plus edge midpoints).
The 7-point degree-5 triangle rule integrates the quadratic stiffness and
quartic mass integrands exactly, so assembly introduces no quadrature error.
The boundary mass matrix uses the exact one-dimensional P2 mass matrix per
boundary edge and is supported on boundary degrees of freedom only.
K and M are CSC matrices on the P2 elements' pattern and share its index
arrays; B is a CSC matrix on its own pattern, the boundary-dof pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .mesh import TriangleMesh, _p2_connectivity

_S15 = np.sqrt(15.0)
_QA = (6.0 - _S15) / 21.0
_QB = (6.0 + _S15) / 21.0
QUAD_POINTS = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [1 - 2 * _QA, _QA, _QA], [_QA, 1 - 2 * _QA, _QA], [_QA, _QA, 1 - 2 * _QA],
    [1 - 2 * _QB, _QB, _QB], [_QB, 1 - 2 * _QB, _QB], [_QB, _QB, 1 - 2 * _QB],
])
QUAD_WEIGHTS = np.array([9 / 40] + 3 * [(155 - _S15) / 1200] + 3 * [(155 + _S15) / 1200])

# gradients of the barycentric coordinates on the reference triangle
_GRAD_L = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])

# exact 1D P2 mass matrix / L, ordering (end a, end b, midpoint)
_EDGE_MASS = np.array([[4.0, -1.0, 2.0], [-1.0, 4.0, 2.0], [2.0, 2.0, 16.0]]) / 30.0


def _shape_values(lam: np.ndarray) -> np.ndarray:
    """P2 basis at barycentric points; columns (v0,v1,v2,m01,m12,m20)."""
    l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
    return np.stack([
        l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
        4 * l0 * l1, 4 * l1 * l2, 4 * l2 * l0,
    ], axis=1)


def _shape_gradients(lam: np.ndarray) -> np.ndarray:
    """Reference gradients, shape (n_points, 6, 2)."""
    n = lam.shape[0]
    g = np.zeros((n, 6, 2))
    for i in range(3):
        g[:, i] = (4 * lam[:, i, None] - 1) * _GRAD_L[i]
    for k, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
        g[:, 3 + k] = 4 * (lam[:, i, None] * _GRAD_L[j] + lam[:, j, None] * _GRAD_L[i])
    return g


# reference tensors: mass = sum_q w N N^T, stiffness R[i,j,a,b] = sum_q w dN_i,a dN_j,b
_N = _shape_values(QUAD_POINTS)
_MASS_REF = np.einsum("q,qi,qj->ij", QUAD_WEIGHTS, _N, _N)
_G = _shape_gradients(QUAD_POINTS)
_STIFF_REF = np.einsum("q,qia,qjb->ijab", QUAD_WEIGHTS, _G, _G)
# (ab, ij) columns: an element's 36 stiffness entries are its 4 entries of area C times this
_STIFF_COLS = np.ascontiguousarray(_STIFF_REF.reshape(36, 4).T)


@dataclass(frozen=True)
class BandLayout:
    """Where K - sW goes in a LAPACK band array: its half-bandwidth is ``kl`` on
    both sides, and the stored entries of K (and M) and of B sit at ``k_flat``
    and ``b_flat`` of the Fortran-ordered (3 kl + 1) x n array that ``dgbtrf``
    factors, entry (i, j) in row 2 kl + i - j of column j."""

    kl: int
    k_flat: np.ndarray
    b_flat: np.ndarray


@dataclass(frozen=True)
class FEMSystem:
    """Assembled P2 system for one mesh."""

    nodes: np.ndarray            # all P2 node coordinates: corners first, a strip's by column
    boundary_dofs: np.ndarray    # sorted unique boundary degrees of freedom
    K: sparse.csc_matrix         # K and M share one indices and indptr:
    M: sparse.csc_matrix         # change them in place on neither
    B: sparse.csc_matrix         # own pattern, within boundary_dofs pairs
    band: BandLayout | None = None   # set on stretched strips only

    @property
    def n_dofs(self) -> int:
        return self.nodes.shape[0]


def _element_terms(mesh: TriangleMesh):
    """``_p2_connectivity`` with the (rows, cols) of the element matrices, and per
    element its area and the columns gx, gy of J^-1, which give d/dx and d/dy."""
    nodes, tri6, btriples = _p2_connectivity(mesh)
    corners = mesh.nodes[mesh.triangles]
    (j11, j21), (j12, j22) = (corners[:, 1] - corners[:, 0]).T, (corners[:, 2] - corners[:, 0]).T
    det = j11 * j22 - j12 * j21
    gx, gy = (np.stack(g, axis=1) / det[:, None] for g in ((j22, -j21), (-j12, j11)))
    pattern = np.repeat(tri6, 6, axis=1).ravel(), np.tile(tri6, (1, 6)).ravel()
    return nodes, pattern, btriples, 0.5 * det, gx, gy


def _boundary_mass(nodes: np.ndarray, btriples: np.ndarray) -> sparse.csc_matrix:
    """B: each boundary edge's length times ``_EDGE_MASS`` on its triple."""
    lengths = np.hypot(*(nodes[btriples[:, 1]] - nodes[btriples[:, 0]]).T)
    be = lengths[:, None, None] * _EDGE_MASS
    brows, bcols = np.repeat(btriples, 3, axis=1).ravel(), np.tile(btriples, (1, 3)).ravel()
    return sparse.coo_matrix((be.ravel(), (brows, bcols)), shape=(len(nodes),) * 2).tocsc()


def _stiffness(area: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Per element the 36 entries of sum_ab area C[ab] R[ij ab], R = ``_STIFF_REF``."""
    return (area[:, None, None] * C).reshape(-1, 4) @ _STIFF_COLS


def assemble(mesh: TriangleMesh, *, _terms=None) -> FEMSystem:
    """The P2 system of ``mesh``; ``_terms``, when given, is its
    ``_element_terms``, which a caller that needs them as well computed once,
    and may number the dofs otherwise: the system is numbered as its terms."""
    nodes, pattern, btriples, area, gx, gy = _element_terms(mesh) if _terms is None else _terms
    # C = Jinv Jinv^T per element, the sum of its x and y parts
    C = gx[:, :, None] * gx[:, None] + gy[:, :, None] * gy[:, None]
    ke = _stiffness(area, C)
    me = area[:, None] * _MASS_REF.ravel()

    n = nodes.shape[0]
    # one conversion sorts the pattern and sums duplicates for K (real part) and
    # M (imaginary part); complex addition rounds each part as real addition
    # does, so both equal their separate conversions bit for bit
    KM = sparse.coo_matrix(((ke + 1j * me).ravel(), pattern), shape=(n, n)).tocsc()
    K, M = (sparse.csc_matrix((data, KM.indices, KM.indptr), shape=(n, n))
            for data in (KM.data.real.copy(), KM.data.imag.copy()))
    return FEMSystem(nodes=nodes, boundary_dofs=np.unique(btriples.ravel()), K=K, M=M,
                     B=_boundary_mass(nodes, btriples))


def _band_layout(K: sparse.csc_matrix, B: sparse.csc_matrix) -> BandLayout:
    """The band layout of K - sW as numbered, read from K's and B's CSC arrays."""
    def rows_cols(A):
        return A.indices, np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))

    (ki, kj), (bi, bj) = rows_cols(K), rows_cols(B)
    kl = int(np.abs(ki - kj).max())    # B's entries lie on boundary edges, within K's
    ldab = 3 * kl + 1
    return BandLayout(kl=kl, k_flat=2 * kl + ki - kj + ldab * kj,
                      b_flat=2 * kl + bi - bj + ldab * bj)


def _stretched(mesh: TriangleMesh, eps_list):
    """For each eps, the image of ``mesh`` under (x, y) -> (x, eps y) and its system,
    from one element pass shared with the unit strip's assembly: on its pattern
    K = eps (K - Ky) + Ky / eps, Ky the y part, and M = eps M; B is rebuilt
    from the stretched boundary edges.  The systems number the dofs in column
    order, by x and then y, not in the yielded mesh's P2 numbering: a strip is
    a chain of columns, each coupled only to its neighbours, so K - sW is
    narrowly banded as numbered, and every system carries one band layout."""
    nodes, pattern, btriples, area, gx, gy = _element_terms(mesh)
    order = np.lexsort((nodes[:, 1], nodes[:, 0]))
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    pattern, btriples = (pos[pattern[0]], pos[pattern[1]]), pos[btriples]
    system = assemble(mesh, _terms=(nodes[order], pattern, btriples, area, gx, gy))
    ky = _stiffness(area, gy[:, :, None] * gy[:, None]).ravel()
    ky = sparse.coo_matrix((ky, pattern), shape=system.K.shape).tocsc().data   # K's pattern
    K, kx = system.K, system.K.data - ky
    band = _band_layout(K, system.B)    # B's pattern is the same at every eps
    for eps in eps_list:
        nodes = system.nodes * [1.0, eps]
        Ke, Me = (sparse.csc_matrix((data, K.indices, K.indptr), shape=K.shape)
                  for data in (eps * kx + ky / eps, eps * system.M.data))
        B = _boundary_mass(nodes, btriples)
        yield (TriangleMesh(mesh.nodes * [1.0, eps], mesh.triangles),
               FEMSystem(nodes, system.boundary_dofs, Ke, Me, B, band))
