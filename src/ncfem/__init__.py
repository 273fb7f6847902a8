"""ncfem: nonconforming finite elements for fourth-order semilinear problems
(Morley) and second-order non-selfadjoint indefinite problems (Crouzeix-
Raviart), with Newton-Kantorovich solver diagnostics, explicit residual error
estimators and adaptive newest-vertex bisection."""

from .mesh import (Triangulation, MeshGeometry, build_from_arrays, bisect,
                   uniform_refine, refine, geometry, builtin_domain,
                   read_mesh, write_mesh)
from .quadrature import QuadRule, quad_triangle, quad_edge
from .spaces import SpaceTag, DofMap, build_dofmap
from .problems import (ProblemKind, ProblemSpec, Field, manufactured,
                       registry_names, ns_unit_load, polynomial_field)
from .assembly import Assembler, assembler
from .interpolation import interpolate, oscillation, transfer_morley
from .solve import (sparse_solve, newton_solve, NewtonTrace,
                    KantorovichReport, kantorovich_report, infsup_constant,
                    gamma_norm_lower_bound, discrete_embedding_ratio,
                    fd_jacobian)
from .estimators import EstimatorReport, broken_energy_error
from .afem import (ConvergenceRecord, dorfler_mark, afem_loop, AfemResult,
                   uniform_study, corner_fraction, NewtonDivergence)

__version__ = "0.1.0"
