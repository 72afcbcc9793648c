"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the kink-problem study (criteria 4, 6, 10) dominates the runtime.
"""

import time

import numpy as np
import pytest

from semifem.analysis import (ExactSolution, eoc, error_h1semi, error_l2,
                              ritz_project, run_convergence_study)
from semifem.assembly import (apply_dirichlet, assemble_load, assemble_mass,
                              assemble_nonlinear_residual, assemble_stiffness)
from semifem.femfunction import interpolate
from semifem.mesh import (TriMesh, mesh_size, preset_polygon, refine_uniform,
                          triangulate_convex_polygon)
from semifem.nonlinearity import PowerLaw, cut
from semifem.quadrature import (edge_midpoint_rule, reference_monomial_mean,
                                rule_of_degree, shipped_rules)
from semifem.solver import SolverConfig, solve_semilinear, verify_uniform_bound

PI = np.pi
ONE = lambda x, y: np.ones_like(x)


def kink_term():
    return PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)


def report_pass(number, text):
    print(f"ACCEPTANCE {number}: {text}: PASS")


@pytest.fixture(scope="module")
def kink_study():
    """Criterion 4's study, shared with criteria 6 and 10."""
    start = time.perf_counter()
    report = run_convergence_study("pentagon", kink_term(), ONE,
                                   range(2, 7), extra_refinements=2)
    elapsed = time.perf_counter() - start
    return report, elapsed


@pytest.fixture(scope="module")
def pentagon_level4():
    mesh = triangulate_convex_polygon(preset_polygon("pentagon"))
    for _ in range(4):
        mesh = refine_uniform(mesh)
    return mesh


def test_criterion_1_element_oracles():
    start = time.perf_counter()
    mesh = TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
    hand_stiffness = np.array([[1.0, -0.5, -0.5],
                               [-0.5, 0.5, 0.0],
                               [-0.5, 0.0, 0.5]])
    hand_mass = np.array([[2.0, 1.0, 1.0],
                          [1.0, 2.0, 1.0],
                          [1.0, 1.0, 2.0]]) / 24.0
    assert np.max(np.abs(assemble_stiffness(mesh).toarray() - hand_stiffness)) <= 1e-14
    assert np.max(np.abs(assemble_mass(mesh).toarray() - hand_mass)) <= 1e-14
    assert time.perf_counter() - start < 1.0
    report_pass(1, "element matrices match hand integration within 1e-14")


def test_criterion_2_quadrature_exactness():
    start = time.perf_counter()
    for rule in shipped_rules():
        x = rule.points[:, 1]
        y = rule.points[:, 2]
        for a in range(rule.degree + 1):
            for b in range(rule.degree + 1 - a):
                approx = float(rule.weights @ (x ** a * y ** b))
                exact = reference_monomial_mean(a, b)
                assert abs(approx - exact) <= 1e-13 * abs(exact), (rule.name, a, b)
    assert time.perf_counter() - start < 1.0
    report_pass(2, "all shipped rules integrate their monomials within 1e-13")


def test_criterion_3_manufactured_study():
    start = time.perf_counter()
    d = PowerLaw(scale=1.0, exponent=0.5)

    def value(x, y):
        return np.sin(PI * x) * np.sin(PI * y)

    def grad(x, y):
        return (PI * np.cos(PI * x) * np.sin(PI * y),
                PI * np.sin(PI * x) * np.cos(PI * y))

    def f(x, y):
        u = value(x, y)
        return 2.0 * PI ** 2 * u + d(x, y, u)

    report = run_convergence_study("unit-square", d, f, range(2, 6),
                                   exact=ExactSolution(value, grad))
    final = report.final()
    assert 1.85 <= final.eoc_l2 <= 2.15, final.eoc_l2
    assert 0.9 <= final.eoc_h1 <= 1.1, final.eoc_h1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report_pass(3, f"manufactured study: eoc_l2={final.eoc_l2:.3f}, "
                   f"eoc_h1={final.eoc_h1:.3f} in {elapsed:.1f} s")


def test_criterion_4_kink_study_rates(kink_study):
    report, elapsed = kink_study
    final = report.final()
    assert 1.15 <= final.eoc_linf <= 1.6, final.eoc_linf
    assert final.eoc_l2 >= 1.75, final.eoc_l2
    # Discrete-reference errors decrease monotonically across levels.
    for name in ("err_l2", "err_h1", "err_linf"):
        values = [getattr(r, name) for r in report.records]
        assert all(a > b for a, b in zip(values[:-1], values[1:])), name
    assert elapsed < 300.0
    report_pass(4, f"kink study: eoc_linf={final.eoc_linf:.3f}, "
                   f"eoc_l2={final.eoc_l2:.3f} in {elapsed:.1f} s")


def test_criterion_4_reference_solve(kink_study):
    # The level-8 reference starts from the level-6 solution and is solved
    # through level 7; one Newton step on level 8 reaches residual_tol.
    # Its residual, recomputed from public assemblies, must meet the
    # tolerance: a reference that stops short moves every error digit.
    report, _ = kink_study
    stats = report.reference_stats
    assert [s.level for s in stats.levels] == [7, 8]
    assert stats.levels[-1].newton_iterations == 1
    u, cfg = report.reference_solution, SolverConfig()
    mesh = u.mesh
    res = (assemble_stiffness(mesh) @ u.coeffs
           + assemble_nonlinear_residual(mesh, kink_term(), u, rule_of_degree(cfg.quad_degree))
           - assemble_load(mesh, ONE, edge_midpoint_rule()))
    res[mesh.boundary_vertex] = 0.0
    residual = np.linalg.norm(res) / np.sqrt(mesh.num_vertices)
    assert residual <= cfg.residual_tol, residual
    report_pass(4, f"level-8 reference: residual {residual:.2e} after "
                   f"{stats.newton_iterations} Newton steps on levels 7 and 8")


def test_criterion_5_uniqueness(pentagon_level4):
    start = time.perf_counter()
    mesh = pentagon_level4
    u1, _ = solve_semilinear(mesh, kink_term(), ONE)
    guess = interpolate(mesh, lambda x, y: 0.1 * x * y)
    u2, _ = solve_semilinear(mesh, kink_term(), ONE, initial=guess)
    gap = np.max(np.abs(u1.coeffs - u2.coeffs))
    assert gap <= 1e-8, gap
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report_pass(5, f"two initial guesses agree within {gap:.2e}")


def test_criterion_6_uniform_bound(kink_study):
    report, _ = kink_study
    reference = report.reference_solution
    for level, u in sorted(report.solutions.items()):
        passed, ratio = verify_uniform_bound(u, reference)
        assert passed, (level, ratio)
    report_pass(6, "sup norm of every level bounded by twice the reference")


def test_criterion_7_cut_consistency(pentagon_level4):
    start = time.perf_counter()
    mesh = pentagon_level4
    d = kink_term()
    u, _ = solve_semilinear(mesh, d, ONE)
    bound = 2.0 * u.max_norm() + 1.0
    v, _ = solve_semilinear(mesh, cut(d, bound), ONE)
    gap = np.max(np.abs(u.coeffs - v.coeffs))
    assert gap <= 1e-8, gap
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report_pass(7, f"clamped nonlinearity reproduces the solution within {gap:.2e}")


def test_criterion_8_ritz_rates():
    start = time.perf_counter()

    def value(x, y):
        return np.sin(PI * x) * np.sin(PI * y)

    def grad(x, y):
        return (PI * np.cos(PI * x) * np.sin(PI * y),
                PI * np.sin(PI * x) * np.cos(PI * y))

    mesh = triangulate_convex_polygon(preset_polygon("unit-square"))
    meshes = [mesh]
    for _ in range(6):
        meshes.append(refine_uniform(meshes[-1]))
    errors = []
    for level in range(3, 7):
        m = meshes[level]
        proj = ritz_project(m, grad)
        errors.append((mesh_size(m), error_l2(proj, value),
                       error_h1semi(proj, grad)))
    (h0, l0, s0), (h1, l1, s1) = errors[-2], errors[-1]
    eoc_l2 = eoc(l0, l1, h0, h1)
    eoc_h1 = eoc(s0, s1, h0, h1)
    assert 1.9 <= eoc_l2 <= 2.1, eoc_l2
    assert 0.9 <= eoc_h1 <= 1.1, eoc_h1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report_pass(8, f"Ritz projection rates: L2 {eoc_l2:.3f}, H1 {eoc_h1:.3f}")


def test_criterion_9_tiny_instance_oracle():
    start = time.perf_counter()
    mesh = triangulate_convex_polygon(preset_polygon("unit-square"))
    for _ in range(2):
        mesh = refine_uniform(mesh)
    u, _ = solve_semilinear(mesh, PowerLaw(), ONE)
    lhs, rhs = apply_dirichlet(
        (assemble_stiffness(mesh) + assemble_mass(mesh)).tocsr(),
        assemble_load(mesh, ONE, edge_midpoint_rule()), mesh)
    dense = np.linalg.solve(lhs.toarray(), rhs)
    gap = np.max(np.abs(u.coeffs - dense))
    assert gap <= 1e-9, gap
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report_pass(9, f"Newton solution matches the dense direct solve within {gap:.2e}")


def test_criterion_10_determinism(kink_study, tmp_path):
    report_first, _ = kink_study
    start = time.perf_counter()
    report_second = run_convergence_study("pentagon", kink_term(), ONE,
                                          range(2, 7), extra_refinements=2)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0

    def strip_wall_time(text):
        return "\n".join(",".join(line.split(",")[:-1])
                         for line in text.strip().splitlines())

    first = strip_wall_time(report_first.csv_text())
    second = strip_wall_time(report_second.csv_text())
    assert first == second
    report_pass(10, "repeated study runs produce byte-identical CSVs")
