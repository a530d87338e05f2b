"""P2 Lagrange assembly: stiffness, domain mass, and boundary mass matrices.

Elements are affine triangles with six nodes (corners plus edge midpoints).
The 7-point degree-5 triangle rule integrates the quadratic stiffness and
quartic mass integrands exactly, so assembly introduces no quadrature error.
The boundary mass matrix uses the exact one-dimensional P2 mass matrix per
boundary edge and is supported on boundary degrees of freedom only.
K, M and B are CSC matrices on the P2 elements' pattern and share its index
arrays; a boundary edge lies in a triangle, so B fits it with zeros elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .mesh import TriangleMesh, _edge_table

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


@dataclass(frozen=True)
class FEMSystem:
    """Assembled P2 system for one mesh."""

    nodes: np.ndarray            # all P2 node coordinates, corners first
    boundary_dofs: np.ndarray    # sorted unique boundary degrees of freedom
    K: sparse.csc_matrix         # K, M and B share one indices and indptr:
    M: sparse.csc_matrix         # change them in place on none of the three
    B: sparse.csc_matrix         # zero outside boundary_dofs

    @property
    def n_dofs(self) -> int:
        return self.nodes.shape[0]


def _p2_connectivity(mesh: TriangleMesh):
    t = mesh.triangles
    n = mesh.n_nodes
    edges, uniq, inverse, first, counts = _edge_table(t, n)
    tri6 = np.concatenate([t, inverse.reshape(3, -1).T + n], axis=1)
    midpoints = 0.5 * (mesh.nodes[uniq[:, 0]] + mesh.nodes[uniq[:, 1]])
    nodes = np.concatenate([mesh.nodes, midpoints])

    # boundary edges are the single-owner rows of the table; a row's index is its midpoint dof
    bmid = np.flatnonzero(counts == 1)
    bedges = edges[first[bmid]]
    btriples = np.stack([bedges[:, 0], bedges[:, 1], bmid + n], axis=1)
    return nodes, tri6, btriples


def assemble(mesh: TriangleMesh) -> FEMSystem:
    nodes, tri6, btriples = _p2_connectivity(mesh)
    corners = mesh.nodes[mesh.triangles]
    (j11, j21), (j12, j22) = (corners[:, 1] - corners[:, 0]).T, (corners[:, 2] - corners[:, 0]).T
    det = j11 * j22 - j12 * j21
    area = 0.5 * det
    # C = Jinv Jinv^T per element
    inv11, inv12, inv21, inv22 = j22 / det, -j12 / det, -j21 / det, j11 / det
    c01 = inv11 * inv21 + inv12 * inv22
    C = np.stack([inv11 * inv11 + inv12 * inv12, c01, c01, inv21 * inv21 + inv22 * inv22],
                 axis=1).reshape(-1, 2, 2)
    ke = np.einsum("e,eab,ijab->eij", area, C, _STIFF_REF)
    me = area[:, None, None] * _MASS_REF

    rows, cols = np.repeat(tri6, 6, axis=1).ravel(), np.tile(tri6, (1, 6)).ravel()
    n = nodes.shape[0]
    # one conversion sorts the pattern and sums duplicates for K (real part) and
    # M (imaginary part); complex addition rounds each part as real addition
    # does, so both equal their separate conversions bit for bit
    KM = sparse.coo_matrix(((ke + 1j * me).ravel(), (rows, cols)), shape=(n, n)).tocsc()

    lengths = np.hypot(*(nodes[btriples[:, 1]] - nodes[btriples[:, 0]]).T)
    be = lengths[:, None, None] * _EDGE_MASS
    brows, bcols = np.repeat(btriples, 3, axis=1).ravel(), np.tile(btriples, (1, 3)).ravel()
    Bb = sparse.coo_matrix((be.ravel(), (brows, bcols)), shape=(n, n)).tocsc()
    # B's entries lie in the pattern: place them by their sorted column-major keys
    keys = [A.indices + n * np.repeat(np.arange(n), np.diff(A.indptr)) for A in (KM, Bb)]
    bdata = np.zeros(KM.nnz)
    bdata[np.searchsorted(*keys)] = Bb.data
    K, M, B = (sparse.csc_matrix((data, KM.indices, KM.indptr), shape=(n, n))
               for data in (KM.data.real.copy(), KM.data.imag.copy(), bdata))
    return FEMSystem(nodes=nodes, boundary_dofs=np.unique(btriples.ravel()), K=K, M=M, B=B)
