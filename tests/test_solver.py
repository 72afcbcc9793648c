import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse

import semifem

from semifem import assembly, solver
from semifem.analysis import run_convergence_study
from semifem.assembly import (apply_dirichlet, assemble_load, assemble_mass,
                              assemble_nonlinear_residual, assemble_stiffness)
from semifem.femfunction import FemFunction, interpolate, prolongate
from semifem.mesh import (TriMesh, preset_polygon, refine_uniform,
                          triangulate_convex_polygon)
from semifem.nonlinearity import PowerLaw, cut
from semifem.quadrature import edge_midpoint_rule, rule_of_degree
from semifem.solver import (ANCESTOR_REDUCTION, CG_TOL, FORCING, LINE_SEARCH_REDUCTION,
                            LINE_SEARCH_RESIDUALS, MAX_HALF_WIDTH, MIN_HALF_WIDTH, CgError,
                            IndefiniteSystemError, LevelStats, NewtonError, SolverConfig,
                            _line_search, cg_solve, solve_semilinear, verify_uniform_bound)


def square_mesh(level):
    mesh = triangulate_convex_polygon(preset_polygon("unit-square"))
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def pentagon_mesh(level):
    mesh = triangulate_convex_polygon(preset_polygon("pentagon"))
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def parentless(mesh):
    """The same triangulation as a root mesh, as `read_mesh` returns it."""
    return TriMesh(mesh.vertices, mesh.triangles)


def level_histories(stats):
    """stats.residual_history split per mesh: its start, then one per step."""
    ends = np.cumsum([s.newton_iterations + 1 for s in stats.levels])
    return np.split(np.asarray(stats.residual_history), ends[:-1])


def kink_term():
    return PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)


ONE = lambda x, y: np.ones_like(x)


class TestCg:
    def test_identity_converges_immediately(self):
        matrix = sparse.identity(6, format="csr")
        rhs = np.arange(1.0, 7.0)
        x, iters = cg_solve(matrix, rhs, tol=1e-12)
        np.testing.assert_allclose(x, rhs, rtol=1e-14)
        assert iters <= 1

    def test_two_by_two_oracle(self):
        matrix = sparse.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        x, _ = cg_solve(matrix, np.array([1.0, 2.0]), tol=1e-14)
        np.testing.assert_allclose(x, [1.0 / 11.0, 7.0 / 11.0], atol=1e-13)

    def test_zero_rhs(self):
        matrix = sparse.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        x, iters = cg_solve(matrix, np.zeros(2))
        assert not np.any(x)
        assert iters == 0

    def test_residual_bound_honored(self):
        mesh = square_mesh(3)
        lhs, rhs = apply_dirichlet(assemble_stiffness(mesh),
                                   assemble_load(mesh, ONE, edge_midpoint_rule()),
                                   mesh)
        tol = 1e-11
        x, _ = cg_solve(lhs, rhs, tol=tol)
        assert np.linalg.norm(lhs @ x - rhs) <= tol * np.linalg.norm(rhs)

    def test_indefinite_detected(self):
        matrix = sparse.csr_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(IndefiniteSystemError):
            cg_solve(matrix, np.array([1.0, 1.0]))

    def test_negative_curvature_detected(self):
        # Positive diagonal, but p^T A p = -2 along the first direction (1, -1).
        matrix = sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(IndefiniteSystemError, match="curvature"):
            cg_solve(matrix, np.array([1.0, -1.0]))

    def test_nonconvergence_raises_with_history(self):
        mesh = square_mesh(3)
        lhs, rhs = apply_dirichlet(assemble_stiffness(mesh),
                                   assemble_load(mesh, ONE, edge_midpoint_rule()),
                                   mesh)
        with pytest.raises(CgError) as err:
            cg_solve(lhs, rhs, tol=1e-14, maxit=3)
        assert len(err.value.residual_history) == 3

    def test_stagnation_returns_best_iterate(self):
        # A tolerance below the attainable accuracy of the 1D Laplacian
        # (condition number about 1.6e4) once restarted CG until maxit.
        n = 200
        matrix = sparse.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                              [-1, 0, 1], format="csr")
        rhs = np.random.default_rng(5).standard_normal(n)
        x, iters = cg_solve(matrix, rhs, tol=1e-15)
        assert iters < 5 * n
        assert np.linalg.norm(matrix @ x - rhs) <= 1e-13 * np.linalg.norm(rhs)

    def test_indefinite_preconditioner_raises(self):
        matrix = sparse.csr_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        with pytest.raises(CgError, match="preconditioner"):
            cg_solve(matrix, np.array([1.0, 2.0]), preconditioner=lambda r: -r)


class TestSolve:
    def test_trivial_problem_one_step(self):
        mesh = square_mesh(2)
        u, stats = solve_semilinear(mesh, PowerLaw(weight=0.0),
                                    lambda x, y: np.zeros_like(x))
        assert not np.any(u.coeffs)
        assert stats.newton_iterations == 1
        assert stats.final_residual_norm == 0.0

    def test_linear_reaction_matches_dense_oracle(self):
        # d(x, u) = u with f = 1: the fixed point solves (A + M) u = F;
        # oracle is a dense direct solve of the closed-form matrices.
        mesh = square_mesh(3)
        u, _ = solve_semilinear(mesh, PowerLaw(), ONE)
        lhs, rhs = apply_dirichlet(
            (assemble_stiffness(mesh) + assemble_mass(mesh)).tocsr(),
            assemble_load(mesh, ONE, edge_midpoint_rule()), mesh)
        dense = np.linalg.solve(lhs.toarray(), rhs)
        assert np.max(np.abs(u.coeffs - dense)) <= 1e-9

    def test_linear_consistency_single_newton_step(self):
        # With an exact slope matrix, one step from zero lands on the
        # solution up to the inner CG tolerance.
        mesh = square_mesh(3)
        d = PowerLaw(scale=2.0)
        u, stats = solve_semilinear(mesh, d, ONE, initial=FemFunction.zeros(mesh))
        assert stats.newton_iterations == 1
        lhs, rhs = apply_dirichlet(
            (assemble_stiffness(mesh) + 2.0 * assemble_mass(mesh)).tocsr(),
            assemble_load(mesh, ONE, edge_midpoint_rule()), mesh)
        dense = np.linalg.solve(lhs.toarray(), rhs)
        assert np.max(np.abs(u.coeffs - dense)) <= 1e-9

    def test_solution_in_dirichlet_space(self):
        mesh = pentagon_mesh(2)
        u, _ = solve_semilinear(mesh, kink_term(), ONE)
        assert u.in_dirichlet_space()

    def test_uniqueness_from_two_guesses(self):
        cfg = SolverConfig()
        mesh = pentagon_mesh(3)
        u1, _ = solve_semilinear(mesh, kink_term(), ONE, cfg)
        guess = interpolate(mesh, lambda x, y: 0.1 * x * y)
        u2, _ = solve_semilinear(mesh, kink_term(), ONE, cfg, initial=guess)
        assert np.max(np.abs(u1.coeffs - u2.coeffs)) <= 10 * cfg.residual_tol

    def test_residual_certificate(self):
        mesh = pentagon_mesh(3)
        d = kink_term()
        u, stats = solve_semilinear(mesh, d, ONE)
        fresh = np.where(
            ~mesh.boundary_vertex,
            assemble_stiffness(mesh) @ u.coeffs
            + assemble_nonlinear_residual(mesh, d, u,
                                          rule_of_degree(SolverConfig().quad_degree))
            - assemble_load(mesh, ONE, edge_midpoint_rule()),
            0.0)
        norm = np.linalg.norm(fresh) / np.sqrt(mesh.num_vertices)
        assert abs(norm - stats.final_residual_norm) <= 1e-13 * max(norm, 1e-300)

    def test_cut_consistency(self):
        cfg = SolverConfig()
        mesh = pentagon_mesh(3)
        d = kink_term()
        u, _ = solve_semilinear(mesh, d, ONE, cfg)
        bound = 2.0 * u.max_norm() + 1.0
        v, _ = solve_semilinear(mesh, cut(d, bound), ONE, cfg)
        assert np.max(np.abs(u.coeffs - v.coeffs)) <= 10 * cfg.residual_tol

    def test_newton_failure_carries_best_iterate(self):
        cfg = SolverConfig(max_newton=1)
        mesh = pentagon_mesh(2)
        with pytest.raises(NewtonError) as err:
            solve_semilinear(mesh, kink_term(), ONE, cfg)
        # The ancestors fail too and hand their best iterates on; the
        # error is raised on the requested mesh.
        assert err.value.best.mesh is mesh
        assert len(err.value.residual_history) >= 2

    @pytest.mark.filterwarnings("error")
    def test_nonfinite_residual_raises_newton_error(self):
        # The frozen-reaction start is finite (d(x, 0) = 0), but the
        # reaction at it overflows the residual norm on the root mesh.
        # There is no best iterate to hand on, so no finer mesh is tried.
        huge = lambda x, y, u: 1e308 * np.sign(u)
        with pytest.raises(NewtonError, match="residual norm is not finite") as err:
            solve_semilinear(pentagon_mesh(2), huge, ONE)
        assert err.value.best is None
        assert err.value.residual_history == [np.inf]

    def test_overflowing_reaction_raises_newton_error(self):
        # 1e308 * u overflows at the frozen-reaction start of the root mesh:
        # the assembler's finiteness check reports it, with no numpy warning,
        # and the solve stops there. A non-finite f stays the assembler's
        # ValueError.
        mesh = square_mesh(2)
        huge = lambda x, y: np.full_like(x, 1e5)
        with pytest.raises(NewtonError, match=r"non-finite value at point \(.*overflow") as err:
            solve_semilinear(mesh, PowerLaw(scale=1e308), huge)
        assert err.value.best is None
        with pytest.raises(ValueError, match="right-hand side"):
            solve_semilinear(mesh, PowerLaw(), lambda x, y: np.full_like(x, np.nan))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_load_raises_newton_error(self):
        # f = 1e300 gives the root's load entries of about 1e299, whose norm
        # overflows before the frozen-reaction start's CG: the data overflow,
        # and there is no iterate to hand on.
        huge = lambda x, y: np.full_like(x, 1e300)
        with pytest.raises(NewtonError, match="right-hand side norm is not finite.*overflow") \
                as err:
            solve_semilinear(pentagon_mesh(3), PowerLaw(1e300, 1), huge)
        assert err.value.best is None

    def test_nonfinite_rhs_norm_raises_cg_error(self):
        with pytest.raises(CgError, match="not finite"):
            cg_solve(sparse.identity(2, format="csr"), np.array([1e200, 1e200]))

    def test_restart_from_converged_solution(self):
        # Re-solving from the converged iterate must succeed quietly even
        # though the residual cannot decrease further.
        mesh = pentagon_mesh(2)
        u, _ = solve_semilinear(mesh, kink_term(), ONE)
        again, stats = solve_semilinear(mesh, kink_term(), ONE, initial=u)
        assert stats.levels == [LevelStats(2, 1, stats.total_cg_iterations)]
        assert np.max(np.abs(again.coeffs - u.coeffs)) <= 1e-10

    def test_initial_guess_must_share_mesh(self):
        # Only the mesh itself and its ancestors can start a solve: not a
        # child of the mesh, nor any mesh of another refinement chain.
        mesh = pentagon_mesh(1)
        other = pentagon_mesh(2)
        for wrong in (other, refine_uniform(mesh), other.parent, parentless(mesh.parent)):
            with pytest.raises(ValueError, match=re.escape(f"lives on mesh {wrong!r}")):
                solve_semilinear(mesh, PowerLaw(), ONE, initial=FemFunction.zeros(wrong))

    @pytest.mark.parametrize("start_level", [2, 3])
    def test_nonfinite_initial_guess_names_its_vertex(self, start_level):
        # A NaN interior coefficient is rejected before any assembly, on the
        # mesh itself and on an ancestor; NaNs on the boundary are zeroed.
        mesh = pentagon_mesh(3)
        start = mesh.parent if start_level == 2 else mesh
        coeffs = np.where(start.boundary_vertex, np.nan, 0.0)
        k = int(start.interior_vertices[3])
        coeffs[k] = np.nan
        x, y = start.vertices[k]
        with pytest.raises(ValueError, match=re.escape(f"vertex {k} ({x:g}, {y:g})")):
            solve_semilinear(mesh, kink_term(), ONE, initial=FemFunction(start, coeffs))
        coeffs[k] = 0.0
        u, _ = solve_semilinear(mesh, kink_term(), ONE, initial=FemFunction(start, coeffs))
        assert u.in_dirichlet_space()

    def test_stats_counts(self):
        mesh = pentagon_mesh(2)
        _, stats = solve_semilinear(mesh, kink_term(), ONE)
        assert stats.newton_iterations >= 1
        assert stats.total_cg_iterations > 0
        assert stats.final_residual_norm <= SolverConfig().residual_tol
        assert stats.residual_history[-1] == stats.final_residual_norm

    def test_stats_record_cg_residuals(self):
        # One CG call for the cold start plus one per Newton step.
        mesh = pentagon_mesh(3)
        cfg = SolverConfig()
        _, stats = solve_semilinear(mesh, kink_term(), ONE, cfg)
        assert len(stats.cg_residuals) == stats.newton_iterations + 1
        # Forcing allows looser steps, but on level 3 the cycle is the exact dense inverse.
        assert max(stats.cg_residuals) <= 10 * CG_TOL

    def test_random_convex_domains(self):
        # Robustness sweep over non-preset geometry: the certificate and
        # the Dirichlet constraint hold on arbitrary convex polygons.
        from semifem.mesh import Polygon
        rng = np.random.default_rng(23)
        cfg = SolverConfig()
        for n in (4, 6, 9):
            angles = np.sort(rng.uniform(0, 2 * np.pi, n))
            while np.min(np.diff(angles)) < 0.15:
                angles = np.sort(rng.uniform(0, 2 * np.pi, n))
            poly = Polygon(np.column_stack([1.3 * np.cos(angles),
                                            0.8 * np.sin(angles)]))
            mesh = refine_uniform(refine_uniform(triangulate_convex_polygon(poly)))
            d = PowerLaw(scale=5.0, exponent=0.5, shift=-0.5)
            u, stats = solve_semilinear(mesh, d, ONE, cfg)
            assert u.in_dirichlet_space()
            assert stats.final_residual_norm <= cfg.residual_tol

    def test_ascent_correction_raises_with_best_iterate(self, monkeypatch):
        # Negated CG corrections point uphill: the solve names the Newton
        # iteration and carries its best iterate, here the start.
        def ascent(*args, **kwargs):
            x, used = cg_solve(*args, **kwargs)
            return -x, used
        monkeypatch.setattr("semifem.solver.cg_solve", ascent)
        mesh = pentagon_mesh(2)
        start = FemFunction.zeros(mesh)
        with pytest.raises(NewtonError, match="descent.* at Newton iteration 1$") as info:
            solve_semilinear(mesh, kink_term(), ONE, initial=start)
        assert info.value.best.mesh is mesh
        np.testing.assert_array_equal(info.value.best.coeffs, start.coeffs)
        assert len(info.value.residual_history) == 1


class TestLineSearch:
    """The search on phi'(s) = r(u + s delta) . delta, driven by synthetic gradients."""

    @staticmethod
    def counted(gradient):
        calls = []

        def residual(x):
            calls.append(x)
            return gradient(x)
        return residual, calls

    def test_bracket_converges_within_cap(self):
        # r = x^3 + x - 2 per entry is the gradient of a convex energy; from
        # u = 0 the Newton direction 2 overshoots the root x = 1.
        residual, calls = self.counted(lambda x: x ** 3 + x - 2.0)
        u, delta = np.zeros(3), np.full(3, 2.0)
        res = residual(u)
        calls.clear()
        s, trial, trial_res = _line_search(residual, u, delta, res, 1e-12, 1.0)
        assert 0.0 < s < 1.0
        assert len(calls) <= LINE_SEARCH_RESIDUALS
        np.testing.assert_array_equal(trial, u + s * delta)
        np.testing.assert_array_equal(trial_res, residual(trial))
        assert abs(trial_res @ delta) <= LINE_SEARCH_REDUCTION * abs(res @ delta)

    def test_full_step_when_derivative_stays_negative(self):
        residual, calls = self.counted(lambda x: x - 1.0)
        u, delta = np.zeros(2), np.full(2, 0.5)
        res = residual(u)
        calls.clear()
        s, trial, _ = _line_search(residual, u, delta, res, 1e-12, 1.0)
        assert s == 1.0 and len(calls) == 1
        np.testing.assert_array_equal(trial, delta)

    def test_cap_takes_lower_end(self):
        # A near jump of phi' defeats the stopping test: after the cap the
        # last point with phi' < 0 is taken.
        residual, calls = self.counted(lambda x: np.tanh(1000.0 * (x - 0.3)))
        u, delta = np.zeros(1), np.ones(1)
        res = residual(u)
        calls.clear()
        s, trial, trial_res = _line_search(residual, u, delta, res, 1e-12, 1.0)
        assert len(calls) == LINE_SEARCH_RESIDUALS
        assert 0.0 < s < 0.3 and trial_res @ delta < 0.0

    def test_ascent_direction_raises(self):
        residual = lambda x: x - 1.0
        u = np.zeros(2)
        with pytest.raises(NewtonError, match="descent") as info:
            _line_search(residual, u, -np.ones(2), residual(u), 1e-12, 1.0)
        assert info.value.best is None

    def test_tolerance_checked_before_descent(self):
        # The forced step from a converged start has delta = 0, so phi'(0) = 0.
        residual = lambda x: x - 1.0
        u = np.ones(2)
        s, trial, _ = _line_search(residual, u, np.zeros(2), residual(u), 1e-12, 1.0)
        assert s == 1.0
        np.testing.assert_array_equal(trial, u)


class TestNestedStart:
    def test_matches_solve_on_parentless_copy(self):
        cfg = SolverConfig()
        mesh = pentagon_mesh(3)
        nested, stats = solve_semilinear(mesh, kink_term(), ONE, cfg)
        flat, _ = solve_semilinear(parentless(mesh), kink_term(), ONE, cfg)
        assert len(stats.levels) == 4
        assert np.max(np.abs(nested.coeffs - flat.coeffs)) <= 10 * cfg.residual_tol

    def test_level_record_sums_to_totals(self):
        mesh = pentagon_mesh(3)
        _, stats = solve_semilinear(mesh, kink_term(), ONE)
        assert [s.level for s in stats.levels] == [0, 1, 2, 3]
        assert sum(s.newton_iterations for s in stats.levels) == stats.newton_iterations
        assert sum(s.cg_iterations for s in stats.levels) == stats.total_cg_iterations
        # Each mesh adds its starting residual and one per Newton step.
        assert len(stats.residual_history) == stats.newton_iterations + len(stats.levels)

    def test_parentless_mesh_solves_one_level(self):
        # A root mesh keeps the frozen-reaction start: one CG call for it and
        # one per Newton step.
        _, stats = solve_semilinear(parentless(pentagon_mesh(3)), kink_term(), ONE)
        assert stats.levels == [LevelStats(0, 15, 16)]
        assert (stats.newton_iterations, stats.total_cg_iterations,
                stats.damping_activations) == (15, 16, 11)
        assert len(stats.residual_history) == 16

    def test_solved_ancestors_take_no_step(self):
        # f = 0 without reaction: every frozen start is already the solution.
        _, stats = solve_semilinear(square_mesh(2), PowerLaw(weight=0.0),
                                    lambda x, y: np.zeros_like(x))
        assert stats.levels == [LevelStats(0, 0, 0), LevelStats(1, 0, 0), LevelStats(2, 1, 0)]

    def test_walk_reaches_root_without_interior(self):
        # Two triangles have no interior vertex: the root's solution is
        # zero without a step, and its first refinement, with one interior
        # vertex at the centre, starts from it.
        root = TriMesh([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                       [[0, 1, 2], [0, 2, 3]])
        mesh = refine_uniform(refine_uniform(root))
        _, stats = solve_semilinear(mesh, kink_term(), ONE)
        assert [s.level for s in stats.levels] == [0, 1, 2]
        assert stats.levels[0] == LevelStats(0, 0, 0)
        assert stats.final_residual_norm <= SolverConfig().residual_tol

    def test_failed_ancestor_hands_on_best_iterate(self):
        # Without a cap levels 2, 3 and 4 take 9, 7 and 5 steps to their
        # targets. With 5, each of them misses its target and hands on its
        # best iterate, and the level-5 solve still converges, in 4 steps.
        # With 4 the level-5 solve itself ends at 2.8e-10.
        cfg = SolverConfig(max_newton=5)
        mesh = pentagon_mesh(5)
        u, stats = solve_semilinear(mesh, kink_term(), ONE, cfg)
        assert [s.newton_iterations for s in stats.levels[3:5]] == [5, 5]
        level3 = level_histories(stats)[3]
        assert level3[-1] > ANCESTOR_REDUCTION * level3[0]
        assert stats.levels[-1].level == 5
        assert stats.final_residual_norm <= cfg.residual_tol
        assert u.mesh is mesh

    def test_ancestors_stop_at_their_relative_target(self):
        # Each ancestor stops at the first residual at or below
        # max(residual_tol, ANCESTOR_REDUCTION * its starting residual);
        # the requested mesh goes on to residual_tol.
        cfg = SolverConfig()
        _, stats = solve_semilinear(pentagon_mesh(5), kink_term(), ONE, cfg)
        *ancestors, requested = level_histories(stats)
        assert len(ancestors) == 5
        for history in ancestors:
            target = max(cfg.residual_tol, ANCESTOR_REDUCTION * history[0])
            assert history[-1] <= target
            assert all(norm > target for norm in history[:-1])
        assert requested[-1] <= cfg.residual_tol

    def test_grandparent_start_solves_the_mesh_between(self):
        # An iterate two levels down starts a nested solve: level 4 is
        # solved as an ancestor, to its relative target, then level 5 to
        # residual_tol.
        cfg = SolverConfig()
        mesh = pentagon_mesh(5)
        coarse, _ = solve_semilinear(mesh.parent.parent, kink_term(), ONE, cfg)
        u, stats = solve_semilinear(mesh, kink_term(), ONE, cfg, initial=coarse)
        assert [s.level for s in stats.levels] == [4, 5]
        between, requested = level_histories(stats)
        target = max(cfg.residual_tol, ANCESTOR_REDUCTION * between[0])
        assert stats.levels[0].newton_iterations >= 1
        assert between[-1] <= target
        assert all(norm > target for norm in between[:-1])
        assert requested[-1] == stats.final_residual_norm <= cfg.residual_tol
        assert u.mesh is mesh and u.in_dirichlet_space()

    def test_ancestor_start_drops_its_boundary_entries(self):
        # The start mesh's boundary entries are zeroed before the first
        # prolongation, where they would reach interior midpoints.
        mesh = pentagon_mesh(4)
        grand = mesh.parent.parent
        coarse, _ = solve_semilinear(grand, kink_term(), ONE)
        noise = np.random.default_rng(5).uniform(-1.0, 1.0, grand.num_vertices)
        noisy = FemFunction(grand, np.where(grand.boundary_vertex, noise, coarse.coeffs))
        clean, clean_stats = solve_semilinear(mesh, kink_term(), ONE, initial=coarse)
        dirty, dirty_stats = solve_semilinear(mesh, kink_term(), ONE, initial=noisy)
        np.testing.assert_array_equal(dirty.coeffs, clean.coeffs)
        assert dirty_stats.levels == clean_stats.levels

    def test_parent_start_equals_prolongated_start(self):
        mesh = pentagon_mesh(4)
        coarse, _ = solve_semilinear(mesh.parent, kink_term(), ONE)
        u, stats = solve_semilinear(mesh, kink_term(), ONE, initial=coarse)
        v, prolongated_stats = solve_semilinear(mesh, kink_term(), ONE,
                                                initial=prolongate(coarse, mesh))
        np.testing.assert_array_equal(u.coeffs, v.coeffs)
        assert stats.levels == prolongated_stats.levels == [stats.levels[0]]
        assert stats.levels[0].level == 4

    def test_cold_level7_solve_bounded_work(self):
        # 36 Newton steps in all and 2 on level 7 (33 and 2 with the 7-point
        # rule, 42 with the edge-midpoint rule, 62 and 2 when every ancestor
        # was solved to residual_tol).
        _, stats = solve_semilinear(pentagon_mesh(7), kink_term(), ONE)
        assert stats.newton_iterations <= 40
        assert stats.levels[-1].level == 7
        assert stats.levels[-1].newton_iterations <= 2

    def test_cold_level7_builds_each_stiffness_once(self, monkeypatch):
        # Each mesh keeps the stiffness its first solve or V-cycle level
        # builds: a fresh chain of 8 meshes builds 8, a repeated solve none
        # (30 and 30 when the cycle rebuilt its coarse levels' on every step).
        calls = []
        build = assembly.stiffness_upper
        # Every semifem namespace that holds the builder, whatever imports it.
        for module in [m for name, m in sys.modules.items() if name.startswith("semifem")]:
            if getattr(module, "stiffness_upper", None) is build:
                monkeypatch.setattr(module, "stiffness_upper",
                                    lambda mesh: calls.append(mesh.level) or build(mesh))
        mesh = pentagon_mesh(7)
        _, stats = solve_semilinear(mesh, kink_term(), ONE)
        assert sorted(calls) == list(range(8))
        assert [s.newton_iterations for s in stats.levels] == [4, 5, 9, 7, 5, 3, 1, 2]
        assert (stats.newton_iterations, stats.total_cg_iterations) == (36, 56)
        _, again = solve_semilinear(mesh, kink_term(), ONE)
        assert len(calls) == 8
        assert again.levels == stats.levels


def forcing_rules(stats, cfg):
    """Per Newton step, in call order, FORCING * min(target, r_k) / r_k.

    r_k is the step's starting scaled residual and target its mesh's own
    Newton target; a step at r_k = 0 gets 0. The step's CG tolerance is
    the larger of this rule and CG_TOL.
    """
    *ancestors, requested = level_histories(stats)
    targets = [max(cfg.residual_tol, ANCESTOR_REDUCTION * h[0]) for h in ancestors]
    return [FORCING * min(target, r) / r if r > 0.0 else 0.0
            for history, target in zip([*ancestors, requested], [*targets, cfg.residual_tol])
            for r in history[:-1]]


def within_tolerance(residual, tol):
    """residual <= tol up to rounding in the division ||A x - b|| / ||b||."""
    return residual <= tol * (1.0 + 1e-12)


class TestForcing:
    def warm_level6(self, cfg):
        """Pentagon level-6 kink solve from the prolongated level-5 solution."""
        coarse, _ = solve_semilinear(pentagon_mesh(5), kink_term(), ONE, cfg)
        mesh = refine_uniform(coarse.mesh)
        return solve_semilinear(mesh, kink_term(), ONE, cfg, initial=prolongate(coarse, mesh))

    def test_warm_corrections_stop_at_the_forcing_tolerance(self):
        cfg = SolverConfig()
        _, stats = self.warm_level6(cfg)
        rules = forcing_rules(stats, cfg)
        assert len(stats.cg_residuals) == len(rules) == stats.newton_iterations
        assert all(within_tolerance(res, max(CG_TOL, rule))
                   for res, rule in zip(stats.cg_residuals, rules))
        # The first step starts far above residual_tol: its correction is
        # solved only to about 3e-10, not to CG_TOL.
        assert stats.cg_residuals[0] > CG_TOL
        assert stats.final_residual_norm <= cfg.residual_tol

    def test_cold_level6_keeps_newton_steps_with_fewer_cg_iterations(self):
        # With every correction solved to CG_TOL the same steps took 141 CG
        # iterations; with forcing they take 57.
        _, stats = solve_semilinear(pentagon_mesh(6), kink_term(), ONE)
        assert [s.newton_iterations for s in stats.levels] == [4, 5, 9, 7, 5, 3, 3]
        assert stats.total_cg_iterations < 141

    def test_floor_wins_over_a_tighter_rule(self, monkeypatch):
        monkeypatch.setattr(solver, "CG_TOL", 1e-3)
        cfg = SolverConfig()
        _, stats = solve_semilinear(pentagon_mesh(5), kink_term(), ONE, cfg)
        assert stats.final_residual_norm <= cfg.residual_tol
        # The frozen-reaction start is solved to CG_TOL, each step to the
        # larger of CG_TOL and its rule; some stop above their rule.
        frozen, *steps = stats.cg_residuals
        rules = forcing_rules(stats, cfg)
        assert len(steps) == len(rules)
        assert within_tolerance(frozen, solver.CG_TOL)
        assert all(within_tolerance(res, max(solver.CG_TOL, rule))
                   for res, rule in zip(steps, rules))
        assert any(res > rule for res, rule in zip(steps, rules))

    @pytest.mark.filterwarnings("error")
    def test_zero_residual_takes_the_floor_without_dividing(self):
        # The zero problem's requested mesh takes its one step at residual 0.
        _, stats = solve_semilinear(square_mesh(2), PowerLaw(weight=0.0),
                                    lambda x, y: np.zeros_like(x))
        assert stats.residual_history[-2:] == [0.0, 0.0]
        assert stats.newton_iterations == 1


class TestSlopeHalfWidth:
    """The slope's half-width tau, tied to the length of the last Newton step."""

    def test_half_width_follows_the_last_step(self, monkeypatch):
        # Each call differences at u_k + tau and u_k - tau with floor tau.
        # A mesh's first step takes tau = MAX_HALF_WIDTH, each later one
        # min(MAX_HALF_WIDTH, max(MIN_HALF_WIDTH, max|u_k - u_{k-1}|)), the
        # length of the step before it.
        calls = []
        build = solver.assemble_slope_matrix

        def recorded(mesh, d, u, v, floor, *args, **kwargs):
            calls.append((mesh.level, floor, u.coeffs, v.coeffs))
            return build(mesh, d, u, v, floor, *args, **kwargs)

        monkeypatch.setattr(solver, "assemble_slope_matrix", recorded)
        solve_semilinear(pentagon_mesh(3), kink_term(), ONE)
        previous = None
        for level, tau, up, down in calls:
            np.testing.assert_allclose(up - down, 2.0 * tau, rtol=1e-3)
            u = 0.5 * (up + down)
            if previous is None or previous[0] != level:
                assert tau == MAX_HALF_WIDTH
            else:
                step = np.max(np.abs(u - previous[1]))
                expected = min(MAX_HALF_WIDTH, max(MIN_HALF_WIDTH, step))
                assert tau == pytest.approx(expected, rel=1e-4)
            previous = (level, u)
        # On the requested mesh tau falls far below the cap.
        assert min(tau for _, tau, _, _ in calls) < 1e-3 * MAX_HALF_WIDTH

    def test_kink_study_with_centroid_rule_completes(self):
        # With a fixed tau of 1e-6 level 4 stalled at residual 3.6e-7 after
        # 50 Newton steps. Tied, the rows take 25, 13, 30, 6 and 4 steps.
        cfg = SolverConfig(quad_degree=1)
        report = run_convergence_study("pentagon", kink_term(), ONE, range(2, 7),
                                       extra_refinements=2, cfg=cfg)
        assert [r.level for r in report.records] == [2, 3, 4, 5, 6]
        assert 1.15 <= report.final().eoc_linf <= 1.6

    def test_square_shifted_kink_level6_cold_solve(self):
        # The kink set u = 0.02 crosses the interior of the unit square.
        # With a fixed tau of 1e-6 the 3-point interior rule stalled at
        # 2.8e-10 on level 6; tied, the requested mesh takes 15 steps.
        cfg = SolverConfig()
        mesh = square_mesh(6)
        _, stats = solve_semilinear(mesh, PowerLaw(scale=50.0, exponent=1 / 3, shift=0.02),
                                    ONE, cfg)
        assert stats.levels[-1].level == 6
        assert stats.levels[-1].newton_iterations <= 15
        assert stats.final_residual_norm <= cfg.residual_tol


class TestUniformBound:
    def test_same_function(self):
        mesh = square_mesh(2)
        u = interpolate(mesh, lambda x, y: x * (1 - x) * y)
        passed, ratio = verify_uniform_bound(u, u)
        assert passed and ratio == pytest.approx(1.0)

    def test_zero_passes(self):
        mesh = square_mesh(1)
        passed, _ = verify_uniform_bound(FemFunction.zeros(mesh),
                                         interpolate(mesh, lambda x, y: x))
        assert passed

    def test_inflated_fails(self):
        mesh = square_mesh(1)
        ref = interpolate(mesh, lambda x, y: x)
        big = FemFunction(mesh, 3.0 * ref.coeffs)
        passed, ratio = verify_uniform_bound(big, ref)
        assert not passed and ratio == pytest.approx(3.0)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(residual_tol=0.0)
    # NaN passes a `<= 0` test; a NaN tolerance never stops Newton.
    for bad in (np.nan, np.inf, -1e-3):
        with pytest.raises(ValueError, match="residual_tol"):
            SolverConfig(residual_tol=bad)
    with pytest.raises(ValueError):
        SolverConfig(max_newton=0)
    for bad in (-1, 6):
        with pytest.raises(ValueError, match="degree"):
            SolverConfig(quad_degree=bad)
    SolverConfig(quad_degree=0)


def check_cold_kink_solve_bounded_work(mesh):
    # Bounded work, not wall time: the step and CG iteration counts are
    # machine independent. The nested start spreads the work over all the
    # meshes (36 Newton steps and 57 CG iterations in all at level 8, 37 and
    # 61 at level 9), so the bounds apply to the requested mesh's own counts
    # (1 step and 6 CG iterations at levels 8 and 9) and to the work in its
    # units, each mesh's counts weighted by its vertex count over the
    # requested mesh's (1.4 steps and 7.4 CG iterations at level 8).
    d = kink_term()
    cfg = SolverConfig()
    u, stats = solve_semilinear(mesh, d, ONE, cfg)
    fresh = (assemble_stiffness(mesh) @ u.coeffs
             + assemble_nonlinear_residual(mesh, d, u, rule_of_degree(cfg.quad_degree))
             - assemble_load(mesh, ONE, edge_midpoint_rule()))[mesh.interior_vertices]
    assert np.linalg.norm(fresh) / np.sqrt(mesh.num_vertices) <= cfg.residual_tol
    own = stats.levels[-1]
    assert own.level == mesh.level
    assert own.newton_iterations <= 20
    assert own.cg_iterations <= 300
    sizes = {}
    m = mesh
    while m is not None:
        sizes[m.level] = m.num_vertices / mesh.num_vertices
        m = m.parent
    assert sum(s.newton_iterations * sizes[s.level] for s in stats.levels) <= 20
    assert sum(s.cg_iterations * sizes[s.level] for s in stats.levels) <= 300


@pytest.mark.slow
def test_cold_level8_kink_solve_bounded_work():
    check_cold_kink_solve_bounded_work(pentagon_mesh(8))


@pytest.mark.slow
def test_cold_level9_kink_solve_bounded_work():
    # 1.3 M triangles, about 4 s on a 2-CPU VM, in a fresh process so that
    # its peak RSS is the check's own. Refinement to level 9 leaves the RSS
    # at 229-235 MiB (492 MiB when each child numbered its edges by one
    # np.unique over 3 nt keys); the whole check peaks at 535-536 MiB in
    # the Newton Jacobian path (37 Newton steps and 61 CG iterations over
    # the ten meshes). It peaked at 611-613 MiB when each Newton step
    # scattered a stiffness matrix of the whole mesh and the Gershgorin
    # sums copied all of the operator's data, and at 690-700 MiB when the
    # element kernels made one pass over all triangles.
    script = ("import resource, test_solver\n"
              "mesh = test_solver.pentagon_mesh(9)\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
              "test_solver.check_cold_kink_solve_bounded_work(mesh)\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    path = [os.path.dirname(__file__), os.path.dirname(os.path.dirname(semifem.__file__))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    child = subprocess.run([sys.executable, "-c", script], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    # ru_maxrss is in KiB.
    refined_mib, peak_mib = (int(kib) / 1024 for kib in child.stdout.split()[-2:])
    assert refined_mib <= 350
    assert peak_mib <= 600


@pytest.mark.slow
def test_steep_level5_solve_fails_in_bounded_work(monkeypatch):
    # A steep term stalls Newton far above the tolerance. The solve must
    # end in NewtonError, not in a CgError from an indefinite V-cycle, and
    # each Newton step (one slope matrix) may add at most
    # LINE_SEARCH_RESIDUALS residuals to the starting one of each mesh and
    # the frozen-reaction one.
    import semifem.solver as solver
    counts = {"residual": 0, "slope": 0}

    def counting(name, assemble):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return assemble(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(solver, "assemble_nonlinear_residual",
                        counting("residual", solver.assemble_nonlinear_residual))
    monkeypatch.setattr(solver, "assemble_slope_matrix",
                        counting("slope", solver.assemble_slope_matrix))
    mesh = pentagon_mesh(5)
    cfg = SolverConfig()
    with pytest.raises(NewtonError) as info:
        solve_semilinear(mesh, PowerLaw(scale=500.0, exponent=0.1, shift=-1.0), ONE, cfg)
    meshes = mesh.level + 1
    assert counts["slope"] <= meshes * cfg.max_newton
    assert counts["residual"] <= LINE_SEARCH_RESIDUALS * counts["slope"] + meshes + 1
    assert len(info.value.residual_history) == counts["slope"] + meshes
    assert info.value.best.mesh is mesh
