import math

import numpy as np
import pytest

from semifem import analysis
from semifem.analysis import (ExactSolution, StudyError, eoc, eoc_log_corrected,
                              error_h1semi, error_l2, error_linf, ritz_project,
                              run_convergence_study)
from semifem.assembly import apply_dirichlet, assemble_stiffness, \
    basis_gradients, quadrature_points, scatter_vector
from semifem.femfunction import FemFunction, interpolate, prolongate
from semifem.mesh import preset_polygon, refine_uniform, triangulate_convex_polygon
from semifem.nonlinearity import PowerLaw
from semifem.quadrature import rule_of_degree
from semifem.solver import NewtonError, SolverConfig

PI = np.pi


def sine(x, y):
    return np.sin(PI * x) * np.sin(PI * y)


def sine_grad(x, y):
    return (PI * np.cos(PI * x) * np.sin(PI * y),
            PI * np.sin(PI * x) * np.cos(PI * y))


def whole_mesh_geometry(mesh):
    """Corners, areas and basis gradients of all triangles at once, unblocked."""
    corners = np.take(mesh.vertices.T, mesh.triangles, axis=1)
    areas = mesh.signed_areas()
    return corners, areas, basis_gradients(corners, areas)


def square_mesh(level):
    mesh = triangulate_convex_polygon(preset_polygon("unit-square"))
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


class TestErrorL2:
    def test_zero_against_sine(self):
        # Exact value 1/2 from the closed-form integral of sin^2 sin^2.
        mesh = square_mesh(4)
        err = error_l2(FemFunction.zeros(mesh), sine)
        assert err == pytest.approx(0.5, abs=2e-6)

    def test_same_function_is_zero(self):
        mesh = square_mesh(2)
        u = interpolate(mesh, lambda x, y: x * y)
        assert error_l2(u, u) <= 1e-14

    def test_constant_shift(self):
        mesh = square_mesh(2)
        u = interpolate(mesh, lambda x, y: np.sin(x) * y)
        shifted = FemFunction(mesh, u.coeffs + 0.75)
        assert error_l2(u, shifted) == pytest.approx(0.75, rel=1e-12)

    def test_discrete_truth_on_finer_mesh(self):
        coarse = square_mesh(2)
        fine = refine_uniform(coarse)
        u = interpolate(coarse, lambda x, y: x + 2 * y)
        w = prolongate(u, fine)
        assert error_l2(u, w) <= 1e-14

    def test_non_nested_truth_rejected(self):
        from semifem.mesh import MeshError
        coarse = square_mesh(2)
        fine = refine_uniform(coarse)
        u = interpolate(fine, lambda x, y: x)
        truth = interpolate(coarse, lambda x, y: x)
        with pytest.raises(MeshError, match="descendant"):
            error_l2(u, truth)
        with pytest.raises(MeshError, match="descendant"):
            error_h1semi(u, truth)


class TestErrorH1:
    def test_same_function_is_zero(self):
        mesh = square_mesh(2)
        u = interpolate(mesh, lambda x, y: x * x + y)
        assert error_h1semi(u, u) <= 1e-14

    def test_zero_against_affine(self):
        mesh = square_mesh(2)
        err = error_h1semi(FemFunction.zeros(mesh),
                           lambda x, y: (np.ones_like(x), np.zeros_like(x)))
        assert err == pytest.approx(1.0, rel=1e-13)

    def test_affine_reproduced(self):
        mesh = square_mesh(2)
        u = interpolate(mesh, lambda x, y: 1.0 - 2.0 * x + 0.5 * y)
        err = error_h1semi(u, lambda x, y: (np.full_like(x, -2.0),
                                            np.full_like(x, 0.5)))
        assert err <= 1e-13


class TestErrorLinf:
    def test_same_function_is_zero(self):
        mesh = square_mesh(2)
        u = interpolate(mesh, lambda x, y: np.cos(x * y))
        assert error_linf(u, u) == 0.0

    def test_zero_against_sine_hits_center(self):
        # (0.5, 0.5) is a mesh vertex, so the sampled maximum is exactly 1.
        mesh = square_mesh(1)
        assert error_linf(FemFunction.zeros(mesh), sine) == pytest.approx(1.0, abs=1e-15)

    def test_constant_difference(self):
        mesh = square_mesh(2)
        u = interpolate(mesh, lambda x, y: x)
        assert error_linf(u, lambda x, y: x + 0.3) == pytest.approx(0.3, abs=1e-14)


class TestRitz:
    def test_identity_on_discrete_function(self):
        # A hat function projected through its own piecewise gradient.
        mesh = square_mesh(2)
        v = int(np.flatnonzero(~mesh.boundary_vertex)[0])
        hat = np.zeros(mesh.num_vertices)
        hat[v] = 1.0
        u = FemFunction(mesh, hat)
        _, _, grads = whole_mesh_geometry(mesh)
        cell_grad = np.einsum("kj,djk->kd", hat[mesh.triangles], grads)

        def hat_grad(x, y):
            from semifem.mesh import locate_point
            gx = np.empty_like(x)
            gy = np.empty_like(x)
            for i, (px, py) in enumerate(zip(x, y)):
                k, _ = locate_point(mesh, (px, py))
                gx[i], gy[i] = cell_grad[k]
            return gx, gy

        r = ritz_project(mesh, hat_grad)
        assert np.max(np.abs(r.coeffs - hat)) <= 1e-12

    def test_zero_gradient(self):
        mesh = square_mesh(2)
        r = ritz_project(mesh, lambda x, y: (np.zeros_like(x), np.zeros_like(x)))
        assert np.max(np.abs(r.coeffs)) <= 1e-14

    def test_galerkin_orthogonality(self):
        mesh = square_mesh(3)
        tol = 1e-12
        r = ritz_project(mesh, sine_grad)
        rule = rule_of_degree(4)
        corners, areas, (hx, hy) = whole_mesh_geometry(mesh)
        local = np.zeros((3, mesh.num_triangles))
        for bary, wq in zip(rule.points, rule.weights):
            x, y = quadrature_points(corners, bary)
            gx, gy = sine_grad(x, y)
            local += wq * areas * (hx * gx + hy * gy)
        rhs = scatter_vector(mesh, local.T)
        lhs, crhs = apply_dirichlet(assemble_stiffness(mesh), rhs, mesh)
        defect = crhs - lhs @ r.coeffs
        assert np.linalg.norm(defect[~mesh.boundary_vertex]) <= \
            tol * np.linalg.norm(crhs)


class TestEoc:
    def test_second_order(self):
        assert eoc(0.04, 0.01, 0.1, 0.05) == pytest.approx(2.0, abs=1e-14)

    def test_first_order(self):
        assert eoc(0.2, 0.1, 0.2, 0.1) == pytest.approx(1.0, abs=1e-14)

    def test_equal_errors(self):
        assert eoc(0.1, 0.1, 0.2, 0.1) == 0.0

    def test_zero_error_gives_nan(self):
        assert math.isnan(eoc(0.0, 0.1, 0.2, 0.1))
        assert math.isnan(eoc(0.1, 0.0, 0.2, 0.1))

    def test_bad_mesh_sizes(self):
        with pytest.raises(ValueError):
            eoc(0.1, 0.05, 0.1, 0.2)

    def test_log_corrected_inverts_model(self):
        for h0, h1 in ((0.25, 0.125), (0.1, 0.05)):
            e0 = h0 ** 2 * math.log(h0) ** 2
            e1 = h1 ** 2 * math.log(h1) ** 2
            assert eoc_log_corrected(e0, e1, h0, h1, 2) == pytest.approx(2.0, abs=1e-13)

    def test_log_power_zero_matches_plain(self):
        assert eoc_log_corrected(0.04, 0.01, 0.25, 0.125, 0) == pytest.approx(
            eoc(0.04, 0.01, 0.25, 0.125), abs=1e-14)

    def test_four_thirds_with_single_log(self):
        h0, h1 = 0.125, 0.0625
        e0 = h0 ** (4 / 3) * abs(math.log(h0))
        e1 = h1 ** (4 / 3) * abs(math.log(h1))
        assert eoc_log_corrected(e0, e1, h0, h1, 1) == pytest.approx(4 / 3, abs=1e-13)


class TestNormConsistency:
    def test_all_norms_vanish_on_self(self):
        mesh = square_mesh(2)
        u = interpolate(mesh, lambda x, y: np.exp(x) - y)
        assert error_l2(u, u) <= 1e-13
        assert error_h1semi(u, u) <= 1e-13
        assert error_linf(u, u) <= 1e-13

    def test_triangle_inequality(self):
        coarse = square_mesh(1)
        mid = refine_uniform(coarse)
        fine = refine_uniform(mid)
        a = interpolate(coarse, lambda x, y: x * y)
        b = interpolate(mid, lambda x, y: np.sin(x) + y)
        c = interpolate(fine, lambda x, y: x - y * y)
        assert error_l2(a, c) <= error_l2(a, b) + error_l2(b, c) + 1e-12


class TestStudy:
    def test_single_level_has_empty_eoc(self):
        d = PowerLaw(weight=0.0)
        report = run_convergence_study(
            "unit-square", d, lambda x, y: np.ones_like(x), [3],
            exact=ExactSolution(lambda x, y: np.zeros_like(x),
                                lambda x, y: (np.zeros_like(x), np.zeros_like(x))))
        assert len(report.records) == 1
        rec = report.records[0]
        assert rec.eoc_l2 is None and rec.eoc_h1 is None and rec.eoc_linf is None
        row = report.csv_text().splitlines()[1]
        assert ",,,," in row  # four empty EOC fields

    def test_csv_structure(self):
        d = PowerLaw(weight=0.0)
        exact = ExactSolution(sine, sine_grad)
        f = lambda x, y: 2 * PI ** 2 * sine(x, y)
        report = run_convergence_study("unit-square", d, f, range(2, 4), exact=exact)
        lines = report.csv_text().splitlines()
        assert lines[0] == ("level,h,ndof,err_l2,err_h1,err_linf,eoc_l2,eoc_h1,"
                            "eoc_linf,eoc_l2_logcorr,newton_iters,wall_time_s")
        assert len(lines) == 3
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert len(first) == 12 and len(second) == 12
        assert first[6] == "" and second[6] != ""
        assert "e" in first[3]  # scientific notation
        assert report.reference_stats is None

    def test_h_halves_between_records(self):
        d = PowerLaw(weight=0.0)
        exact = ExactSolution(sine, sine_grad)
        f = lambda x, y: 2 * PI ** 2 * sine(x, y)
        report = run_convergence_study("unit-square", d, f, range(1, 4), exact=exact)
        hs = [r.h for r in report.records]
        for h0, h1 in zip(hs[:-1], hs[1:]):
            assert h1 == pytest.approx(h0 / 2, rel=1e-14)

    def test_discrete_reference_errors_match_public_norms(self):
        # The study assembles the reference operators once and transfers
        # each level once; its errors are those of the public functions.
        d = PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)
        report = run_convergence_study("pentagon", d, lambda x, y: np.ones_like(x),
                                       range(1, 4))
        reference = report.reference_solution
        assert reference.mesh.level == 5
        # Solved from the level-3 solution through level 4.
        assert [s.level for s in report.reference_stats.levels] == [4, 5]
        for record in report.records:
            u = report.solutions[record.level]
            assert record.err_l2 == error_l2(u, reference)
            assert record.err_h1 == error_h1semi(u, reference)
            assert record.err_linf == error_linf(u, reference)

    @pytest.mark.parametrize("root", [
        preset_polygon("pentagon"),
        triangulate_convex_polygon(preset_polygon("pentagon"))])
    def test_custom_domain_matches_preset(self, root):
        d = PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)
        one = lambda x, y: np.ones_like(x)
        custom = run_convergence_study(root, d, one, range(1, 3))
        preset = run_convergence_study("pentagon", d, one, range(1, 3))
        assert custom.domain.startswith("custom-")
        for record in custom.records + preset.records:
            record.wall_time = 0.0
        assert custom.csv_text() == preset.csv_text()

    def test_levels_must_be_nonempty(self):
        with pytest.raises(ValueError, match="nonempty"):
            run_convergence_study("unit-square", PowerLaw(),
                                  lambda x, y: np.ones_like(x), [])

    def test_levels_must_be_consecutive(self):
        with pytest.raises(ValueError, match="consecutive"):
            run_convergence_study("unit-square", PowerLaw(),
                                  lambda x, y: np.ones_like(x), [2, 4])

    @pytest.mark.parametrize("levels", [[-1], [-3, -2]])
    def test_negative_levels_rejected(self, levels):
        zero = ExactSolution(lambda x, y: np.zeros_like(x),
                             lambda x, y: (np.zeros_like(x), np.zeros_like(x)))
        with pytest.raises(ValueError, match="nonnegative"):
            run_convergence_study("unit-square", PowerLaw(weight=0.0),
                                  lambda x, y: np.zeros_like(x), levels, exact=zero)

    def test_discrete_reference_needs_two_extra(self):
        with pytest.raises(ValueError, match="extra_refinements"):
            run_convergence_study("unit-square", PowerLaw(),
                                  lambda x, y: np.ones_like(x), [2, 3],
                                  extra_refinements=1)

    def test_failure_carries_partial_report(self):
        d = PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)
        cfg = SolverConfig(max_newton=1)
        with pytest.raises(StudyError) as err:
            run_convergence_study("pentagon", d, lambda x, y: np.ones_like(x),
                                  range(2, 4), cfg=cfg)
        assert err.value.report.records == []

    def test_reference_failure_carries_the_levels(self, monkeypatch):
        solve = analysis.solve_semilinear

        def failing_on_reference(mesh, *args, **kwargs):
            if mesh.level == 4:
                raise NewtonError("forced failure")
            return solve(mesh, *args, **kwargs)

        monkeypatch.setattr(analysis, "solve_semilinear", failing_on_reference)
        with pytest.raises(StudyError, match="reference level 4 failed: forced failure") \
                as err:
            run_convergence_study("unit-square", PowerLaw(), lambda x, y: np.ones_like(x),
                                  range(1, 3))
        assert [r.level for r in err.value.report.records] == [1, 2]
