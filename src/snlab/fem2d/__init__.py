"""Quadratic finite elements for Neumann and Steklov eigenvalues on convex polygons."""

from .mesh import MeshError, TriangleMesh, polygon_mesh, refine, thin_mesh
from .assemble import FEMSystem, assemble
from .solve import EigenPair2D, FEMError, neumann_mu1, steklov_sigma1
from .functional import (DomainRecord, ThinSweep, F_of_domain, record_from_mesh,
                         record_from_system, refinement_ladder, thin_sweep)

__all__ = [
    "MeshError", "TriangleMesh", "polygon_mesh", "refine", "thin_mesh",
    "FEMSystem", "assemble",
    "EigenPair2D", "FEMError", "neumann_mu1", "steklov_sigma1",
    "DomainRecord", "ThinSweep", "F_of_domain", "record_from_mesh",
    "record_from_system", "refinement_ladder", "thin_sweep",
]
