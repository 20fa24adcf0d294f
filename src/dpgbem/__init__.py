"""Ultra-weak DPG finite elements coupled with boundary elements for the
2D Laplace transmission problem, plus the classical nonsymmetric coupling
as an independent reference solver."""

from .errors import ConfigError, MeshError, NumericalError
from .mesh import (Mesh, BoundaryLoop, build_mesh, boundary_loop,
                   make_lshape_mesh, make_square_mesh, refine_uniform)

__all__ = [
    "ConfigError", "MeshError", "NumericalError",
    "Mesh", "BoundaryLoop", "build_mesh", "boundary_loop",
    "make_lshape_mesh", "make_square_mesh", "refine_uniform",
]

__version__ = "0.1.0"
