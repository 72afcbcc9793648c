"""P1 finite elements for semilinear elliptic problems -Δu + d(x, u) = f
with homogeneous Dirichlet conditions on convex polygons.

The reaction term d only needs to be continuous and monotone
non-decreasing in u; non-Lipschitz power laws are handled directly,
without regularization, by a damped Newton method built on a floored
difference-quotient linearization.
"""

from .mesh import (GEOM_TOL, MeshError, Polygon, PRESET_POLYGONS, TriMesh,
                   locate_point, mesh_size, min_angle, preset_polygon,
                   read_mesh, read_polygon, refine_uniform,
                   triangulate_convex_polygon, write_mesh)
from .quadrature import (QuadRule, centroid_rule, edge_midpoint_rule,
                         interior_three_point_rule, reference_monomial_mean,
                         rule_of_degree, seven_point_rule, shipped_rules)
from .femfunction import (FemFunction, interpolate, prolongate,
                          read_function, write_function)
from .assembly import (apply_dirichlet, assemble_load, assemble_mass,
                       assemble_nonlinear_residual, assemble_slope_matrix,
                       assemble_stiffness)
from .nonlinearity import (CutNonlinearity, MonotoneReport, Nonlinearity,
                           PowerLaw, check_monotone, cut)
from .solver import (CgError, IndefiniteSystemError, NewtonError, SolveStats,
                     SolverConfig, SolverError, cg_solve, solve_semilinear,
                     verify_uniform_bound)
from .analysis import (UNIT_SQUARE_SINE, ExactSolution, StudyError, StudyRecord,
                       StudyReport, eoc, eoc_log_corrected, error_h1semi,
                       error_l2, error_linf, ritz_project, run_convergence_study)

__version__ = "0.1.0"

__all__ = [
    "GEOM_TOL", "MeshError", "Polygon", "PRESET_POLYGONS", "TriMesh",
    "locate_point", "mesh_size", "min_angle", "preset_polygon", "read_mesh",
    "read_polygon", "refine_uniform", "triangulate_convex_polygon", "write_mesh",
    "QuadRule", "centroid_rule", "edge_midpoint_rule", "interior_three_point_rule",
    "reference_monomial_mean", "rule_of_degree", "seven_point_rule", "shipped_rules",
    "FemFunction", "interpolate", "prolongate", "read_function", "write_function",
    "apply_dirichlet", "assemble_load", "assemble_mass",
    "assemble_nonlinear_residual", "assemble_slope_matrix", "assemble_stiffness",
    "CutNonlinearity", "MonotoneReport", "Nonlinearity", "PowerLaw",
    "check_monotone", "cut",
    "CgError", "IndefiniteSystemError", "NewtonError", "SolveStats",
    "SolverConfig", "SolverError", "cg_solve", "solve_semilinear",
    "verify_uniform_bound",
    "UNIT_SQUARE_SINE", "ExactSolution", "StudyError", "StudyRecord",
    "StudyReport", "eoc", "eoc_log_corrected", "error_h1semi", "error_l2",
    "error_linf", "ritz_project", "run_convergence_study",
]
