"""Built-in desk-scale oracle checks, runnable as `semifem validate`.

Each check compares a library operation against an independent reference:
hand-integrated element matrices, closed-form monomial integrals, a dense
direct solve, and uniqueness and cut-consistency of the Newton solver.
"""

import numpy as np

from .assembly import (assemble_load, assemble_mass, assemble_nonlinear_residual,
                       assemble_slope_matrix, assemble_stiffness)
from .femfunction import interpolate, prolongate
from .mesh import preset_polygon, refine_uniform, triangulate_convex_polygon
from .nonlinearity import PowerLaw, cut
from .quadrature import reference_monomial_mean, shipped_rules, rule_of_degree
from .solver import SolverConfig, cg_solve, solve_semilinear

HAND_STIFFNESS = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
HAND_MASS = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0


def _single_triangle_mesh():
    # The reference right triangle as a one-element mesh.
    from .mesh import TriMesh
    return TriMesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])


def check_stiffness_oracle():
    mesh = _single_triangle_mesh()
    matrix = assemble_stiffness(mesh).toarray()
    return np.max(np.abs(matrix - HAND_STIFFNESS)) <= 1e-14


def check_mass_oracle():
    mesh = _single_triangle_mesh()
    matrix = assemble_mass(mesh).toarray()
    return np.max(np.abs(matrix - HAND_MASS)) <= 1e-14


def check_quadrature_exactness():
    for rule in shipped_rules():
        for a in range(rule.degree + 1):
            for b in range(rule.degree + 1 - a):
                x = rule.points[:, 1]
                y = rule.points[:, 2]
                approx = float(rule.weights @ (x ** a * y ** b))
                exact = reference_monomial_mean(a, b)
                if abs(approx - exact) > 1e-13 * abs(exact):
                    return False
    return True


def check_load_oracle():
    mesh = _single_triangle_mesh()
    load = assemble_load(mesh, lambda x, y: 1.0, rule_of_degree(2))
    return np.max(np.abs(load - 1.0 / 6.0)) <= 1e-14


def check_reaction_matches_mass():
    mesh = refine_uniform(triangulate_convex_polygon(preset_polygon("unit-square")))
    u = interpolate(mesh, lambda x, y: 1.0 + x - 2.0 * y)
    identity = PowerLaw()
    residual = assemble_nonlinear_residual(mesh, identity, u, rule_of_degree(2))
    target = assemble_mass(mesh) @ u.coeffs
    return np.max(np.abs(residual - target)) <= 1e-13 * max(1.0, np.max(np.abs(target)))


def check_slope_matches_mass():
    mesh = refine_uniform(triangulate_convex_polygon(preset_polygon("unit-square")))
    up = interpolate(mesh, lambda x, y: 1.0 + 0.0 * x)
    down = interpolate(mesh, lambda x, y: -1.0 + 0.0 * x)
    identity = PowerLaw()
    slope = assemble_slope_matrix(mesh, identity, up, down, 1e-6, rule_of_degree(5))
    diff = (slope - assemble_mass(mesh)).toarray()
    return np.max(np.abs(diff)) <= 1e-13


def check_cut_agreement():
    d = PowerLaw(scale=50.0, exponent=1.0 / 3.0, shift=-1.0)
    clamped = cut(d, 2.0)
    u = np.linspace(-2.0, 2.0, 41)
    x = np.zeros_like(u)
    if np.max(np.abs(clamped(x, x, u) - d(x, x, u))) > 0.0:
        return False
    outside = clamped(x[:2], x[:2], np.array([5.0, -7.0]))
    expected = d(np.zeros(2), np.zeros(2), np.array([2.0, -2.0]))
    return np.max(np.abs(outside - expected)) == 0.0


def check_cg_oracle():
    from scipy import sparse
    matrix = sparse.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    x, _ = cg_solve(matrix, np.array([1.0, 2.0]), tol=1e-14)
    return np.max(np.abs(x - np.array([1.0 / 11.0, 7.0 / 11.0]))) <= 1e-12


def check_prolongation_preserves_l2():
    coarse = refine_uniform(triangulate_convex_polygon(preset_polygon("unit-square")))
    fine = refine_uniform(refine_uniform(coarse))
    u = interpolate(coarse, lambda x, y: np.sin(x) + y * y)
    w = prolongate(u, fine)
    nc = np.sqrt(u.coeffs @ (assemble_mass(coarse) @ u.coeffs))
    nf = np.sqrt(w.coeffs @ (assemble_mass(fine) @ w.coeffs))
    return abs(nc - nf) <= 1e-13 * nc


def _small_kink_problem():
    mesh = triangulate_convex_polygon(preset_polygon("pentagon"))
    for _ in range(2):
        mesh = refine_uniform(mesh)
    d = PowerLaw(scale=50.0, exponent=1.0 / 3.0, shift=-1.0)
    f = lambda x, y: np.ones_like(x)
    return mesh, d, f


def check_uniqueness():
    mesh, d, f = _small_kink_problem()
    cfg = SolverConfig()
    u1, _ = solve_semilinear(mesh, d, f, cfg)
    guess = interpolate(mesh, lambda x, y: 0.1 * x * y)
    u2, _ = solve_semilinear(mesh, d, f, cfg, initial=guess)
    return np.max(np.abs(u1.coeffs - u2.coeffs)) <= 10 * cfg.residual_tol


def check_cut_consistency():
    mesh, d, f = _small_kink_problem()
    cfg = SolverConfig()
    u, _ = solve_semilinear(mesh, d, f, cfg)
    bound = 2.0 * u.max_norm() + 1.0
    v, _ = solve_semilinear(mesh, cut(d, bound), f, cfg)
    return np.max(np.abs(u.coeffs - v.coeffs)) <= 10 * cfg.residual_tol


CHECKS = (
    ("stiffness element oracle", check_stiffness_oracle),
    ("mass element oracle", check_mass_oracle),
    ("quadrature exactness", check_quadrature_exactness),
    ("load vector oracle", check_load_oracle),
    ("reaction integral matches mass matrix", check_reaction_matches_mass),
    ("slope matrix matches mass matrix", check_slope_matches_mass),
    ("cut nonlinearity agreement", check_cut_agreement),
    ("conjugate gradient oracle", check_cg_oracle),
    ("prolongation preserves the L2 norm", check_prolongation_preserves_l2),
    ("solver uniqueness", check_uniqueness),
    ("solver cut-consistency", check_cut_consistency),
)


def run_all(out=print):
    """Run every check, print one line each, return a process exit code."""
    failed = 0
    for name, check in CHECKS:
        try:
            ok = check()
        except Exception as exc:  # a crashed check is a failed check
            ok = False
            out(f"FAIL {name}: {exc}")
            failed += 1
            continue
        if ok:
            out(f"ok   {name}")
        else:
            out(f"FAIL {name}")
            failed += 1
    out(f"{len(CHECKS) - failed}/{len(CHECKS)} checks passed")
    return 0 if failed == 0 else 1
