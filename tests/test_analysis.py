import math
import re

import numpy as np
import pytest

from semifem import analysis, assembly
from semifem.analysis import (LINF_LATTICE, NORM_RULE, UNIT_SQUARE_SINE as SINE,
                              ExactSolution, StudyError, eoc, eoc_log_corrected,
                              error_h1semi, error_l2, error_linf, ritz_project,
                              run_convergence_study)
from semifem.assembly import apply_dirichlet, assemble_stiffness, \
    basis_gradients, quadrature_points, scatter_vector
from semifem.femfunction import FemFunction, interpolate, prolongate
from semifem.mesh import preset_polygon, refine_uniform, triangulate_convex_polygon
from semifem.nonlinearity import PowerLaw
from semifem.quadrature import rule_of_degree
from semifem.solver import NewtonError, SolverConfig

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
        err = error_l2(FemFunction.zeros(mesh), SINE.value)
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
        err = error_linf(FemFunction.zeros(mesh), SINE.value)
        assert err == pytest.approx(1.0, abs=1e-15)

    def test_constant_difference(self):
        mesh = square_mesh(2)
        u = interpolate(mesh, lambda x, y: x)
        assert error_linf(u, lambda x, y: x + 0.3) == pytest.approx(0.3, abs=1e-14)

    def test_nan_sample_propagates(self):
        # The other norms return nan for this truth; a dropped sample would
        # read as a zero error.
        zero = FemFunction.zeros(square_mesh(1))
        truth = lambda x, y: np.where(x > 0.9, np.nan, 0.0)
        assert math.isnan(error_l2(zero, truth))
        assert math.isnan(error_linf(zero, truth))


class TestExactSolution:
    def test_rhs_needs_laplacian(self):
        exact = ExactSolution(SINE.value, SINE.grad)
        with pytest.raises(ValueError, match="laplacian"):
            exact.rhs(PowerLaw())

    def test_sine_laplacian_matches_five_point_difference(self):
        # The 5-point stencil errs by at most h^2 (max|u_xxxx| + max|u_yyyy|) / 12
        # = h^2 pi^4 / 6, plus rounding of order 8 eps / h^2.
        h = 1e-3
        x, y = np.random.default_rng(0).uniform(0.05, 0.95, size=(2, 200))
        u = SINE.value
        stencil = (u(x + h, y) + u(x - h, y) + u(x, y + h) + u(x, y - h)
                   - 4.0 * u(x, y)) / h ** 2
        gap = np.max(np.abs(stencil - SINE.laplacian(x, y)))
        assert gap <= h ** 2 * np.pi ** 4 / 6 + 1e-8, gap


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

    def test_non_finite_field_names_point(self):
        # A NaN sample is reported at its point, as the assembly kernels
        # report theirs, not as a CG failure on a non-finite load.
        mesh = square_mesh(1)
        field = lambda x, y: (np.where(x > 0.5, np.nan, 0.0), 0.0 * x)
        with pytest.raises(assembly.NonFiniteError, match="gradient field") as info:
            ritz_project(mesh, field)
        x, y = map(float, re.search(r"point \(([^,]+), ([^)]+)\)", str(info.value)).groups())
        assert 0.5 < x < 1.0 and 0.0 < y < 1.0

    def test_galerkin_orthogonality(self):
        mesh = square_mesh(3)
        tol = 1e-12
        r = ritz_project(mesh, SINE.grad)
        rule = rule_of_degree(4)
        corners, areas, (hx, hy) = whole_mesh_geometry(mesh)
        local = np.zeros((3, mesh.num_triangles))
        for wq, x, y in zip(rule.weights, *quadrature_points(corners, rule.points)):
            gx, gy = SINE.grad(x, y)
            local += wq * areas * (hx * gx + hy * gy)
        rhs = scatter_vector(mesh, local.T)
        lhs, crhs = apply_dirichlet(assemble_stiffness(mesh), rhs, mesh)
        defect = crhs - lhs @ r.coeffs
        assert np.linalg.norm(defect[~mesh.boundary_vertex]) <= \
            tol * np.linalg.norm(crhs)


def pentagon_mesh(level):
    mesh = triangulate_convex_polygon(preset_polygon("pentagon"))
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def smooth_value(x, y):
    return np.sin(3 * x) * np.cos(y) + x * y


def smooth_grad(x, y):
    return 3 * np.cos(3 * x) * np.cos(y) + y, -np.sin(3 * x) * np.sin(y) + x


def per_point_norms(u, value, grad):
    """L2, H1-semi and max errors by one loop over the points of each rule,
    all triangles at once."""
    corners, areas, grads = whole_mesh_geometry(u.mesh)
    uloc = u.coeffs[u.mesh.triangles]
    gux, guy = np.einsum("kj,djk->dk", uloc, grads)
    l2 = h1 = 0.0
    for bary, wq, x, y in zip(NORM_RULE.points, NORM_RULE.weights,
                              *quadrature_points(corners, NORM_RULE.points)):
        diff = uloc @ bary - value(x, y)
        gx, gy = grad(x, y)
        l2 += wq * np.sum(areas * diff * diff)
        h1 += wq * np.sum(areas * ((gux - gx) ** 2 + (guy - gy) ** 2))
    linf = max(np.max(np.abs(uloc @ bary - value(x, y)))
               for bary, x, y in zip(LINF_LATTICE, *quadrature_points(corners, LINF_LATTICE)))
    return math.sqrt(l2), math.sqrt(h1), linf


@pytest.mark.parametrize("mesh", [pentagon_mesh(4), square_mesh(3)],
                         ids=["pentagon4", "square3"])
def test_closed_form_norms_match_per_point_loop(mesh):
    u = interpolate(mesh, lambda x, y: np.sin(2 * x) - 0.5 * y)
    got = (error_l2(u, smooth_value), error_h1semi(u, smooth_grad),
           error_linf(u, smooth_value))
    for name, a, b in zip(("l2", "h1", "linf"), got, per_point_norms(u, smooth_value,
                                                                     smooth_grad)):
        assert a == pytest.approx(b, rel=1e-14, abs=0.0), name


def test_truth_called_once_per_block(monkeypatch):
    # Each closed-form norm and the Ritz load call their truth once per
    # block of `assembly.BLOCK` triangles, on flat arrays of all its points.
    monkeypatch.setattr(assembly, "BLOCK", 99)
    mesh = pentagon_mesh(4)
    nt = mesh.num_triangles
    blocks = [min(99, nt - start) for start in range(0, nt, 99)]
    assert len(blocks) == 13
    sizes = []

    def recorded(base):
        def evaluate(x, y):
            assert x.ndim == 1 and x.shape == y.shape
            sizes.append(x.size)
            return base(x, y)
        return evaluate

    u = interpolate(mesh, lambda x, y: x - y)
    for run, points in ((lambda: error_l2(u, recorded(smooth_value)), NORM_RULE.points),
                        (lambda: error_h1semi(u, recorded(smooth_grad)), NORM_RULE.points),
                        (lambda: error_linf(u, recorded(smooth_value)), LINF_LATTICE),
                        (lambda: ritz_project(mesh, recorded(smooth_grad)), NORM_RULE.points)):
        sizes.clear()
        run()
        assert sizes == [len(points) * n for n in blocks]


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
        report = run_convergence_study("unit-square", d, SINE.rhs(d), [3], exact=SINE)
        assert len(report.records) == 1
        rec = report.records[0]
        assert rec.eoc_l2 is None and rec.eoc_h1 is None and rec.eoc_linf is None
        row = report.csv_text().splitlines()[1]
        assert ",,,," in row  # four empty EOC fields

    def test_csv_structure(self):
        d = PowerLaw(weight=0.0)
        report = run_convergence_study("unit-square", d, SINE.rhs(d), range(2, 4),
                                       exact=SINE)
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
        report = run_convergence_study("unit-square", d, SINE.rhs(d), range(1, 4),
                                       exact=SINE)
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
            # The max-error vertex: |e| there is err_linf.
            k = np.flatnonzero((reference.mesh.vertices == record.linf_vertex).all(axis=1))
            assert k.size == 1
            e = reference.coeffs - prolongate(u, reference.mesh).coeffs
            assert abs(e[k[0]]) == record.err_linf

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
        with pytest.raises(ValueError, match="nonnegative"):
            run_convergence_study("unit-square", PowerLaw(weight=0.0),
                                  lambda x, y: np.zeros_like(x), levels, exact=SINE)

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
