import gc
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from semifem.assembly import (assemble_load, assemble_mass, assemble_slope_matrix,
                              assemble_stiffness)
from semifem.femfunction import FemFunction
from semifem.mesh import (TriMesh, preset_polygon, read_mesh, refine_uniform,
                          triangulate_convex_polygon, write_mesh)
from semifem.multigrid import DENSE_COARSE_SIZE, VCycle
from semifem.nonlinearity import PowerLaw
from semifem.quadrature import edge_midpoint_rule, rule_of_degree
from semifem.solver import cg_solve, solve_semilinear

ONE = lambda x, y: np.ones_like(x)


def pentagon_mesh(level):
    mesh = triangulate_convex_polygon(preset_polygon("pentagon"))
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def poisson(mesh):
    """Poisson system with f = 1 on the interior unknowns."""
    i = mesh.interior_vertices
    return (assemble_stiffness(mesh)[i][:, i],
            assemble_load(mesh, ONE, edge_midpoint_rule())[i])


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_iterations_bounded_across_levels(level):
    mesh = pentagon_mesh(level)
    lhs, rhs = poisson(mesh)
    tol = 1e-10
    x, iters = cg_solve(lhs, rhs, tol, preconditioner=VCycle(mesh, lhs))
    assert iters <= 20
    assert np.linalg.norm(lhs @ x - rhs) <= tol * np.linalg.norm(rhs)


def test_vcycle_symmetric_positive():
    mesh = pentagon_mesh(4)
    i = mesh.interior_vertices
    cycle = VCycle(mesh, (assemble_stiffness(mesh) + assemble_mass(mesh))[i][:, i])
    rng = np.random.default_rng(3)
    r, s = rng.standard_normal((2, i.size))
    left, right = s @ cycle(r), r @ cycle(s)
    assert abs(left - right) <= 1e-12 * abs(left)
    assert r @ cycle(r) > 0.0


def test_smoothed_operators_have_sorted_indices():
    # restriction @ (a @ p) returns rows with unsorted column indices. The
    # cycle must sort them itself: its Gershgorin bound reads only a's data
    # and leaves the index order alone.
    mesh = pentagon_mesh(6)
    lhs, _ = poisson(mesh)
    levels = VCycle(mesh, lhs)._levels
    assert len(levels) == 3
    for a, _, _, _ in levels:
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        assert np.all(np.diff(rows * a.shape[1] + a.indices) > 0)


def test_vcycle_positive_definite_on_steep_jacobian():
    # Newton Jacobian of a steep term at an iterate whose values straddle
    # the kink u = -1 at distances 1e-6.5 to 1e-4. Its slope-weighted
    # element matrices push lambda_max(D^-1 J) to 2.62 on level 4, the one
    # smoothed level of this cycle, above 2 / 0.8: with a fixed smoothing
    # weight 0.8, Jacobi expands the error there (omega lambda_max = 2.10).
    mesh = pentagon_mesh(4)
    i = mesh.interior_vertices
    rng = np.random.default_rng(24)
    u = np.zeros(mesh.num_vertices)
    u[i] = -1.0 + rng.choice([-1.0, 1.0], i.size) * 10.0 ** -rng.uniform(4.0, 6.5, i.size)
    tau = 1e-6
    slope = assemble_slope_matrix(mesh, PowerLaw(scale=500.0, exponent=0.1, shift=-1.0),
                                  FemFunction(mesh, u + tau), FemFunction(mesh, u - tau),
                                  tau, rule_of_degree(5))
    jacobian = (assemble_stiffness(mesh) + slope)[i][:, i]
    cycle = VCycle(mesh, jacobian)
    (_, weight, _, _), = cycle._levels
    # omega lambda_max(D^-1 J) = lambda_max(W^1/2 J W^1/2) with W = omega D^-1.
    root = np.sqrt(weight)
    assert np.linalg.eigvalsh(root[:, None] * jacobian.toarray() * root)[-1] < 2.0
    dense = np.column_stack([cycle(e) for e in np.eye(i.size)])
    assert np.max(np.abs(dense - dense.T)) <= 1e-12 * np.max(np.abs(dense))
    eigenvalues = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    assert eigenvalues[0] > 1e-4 * eigenvalues[-1]


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_small_system_gets_exact_cycle(tmp_path, level):
    # Up to DENSE_COARSE_SIZE unknowns (141 at level 3) the cycle is the
    # dense inverse, on a refined mesh as on its parentless copy.
    refined = pentagon_mesh(level)
    path = tmp_path / "mesh.txt"
    write_mesh(refined, path)
    for mesh in (refined, read_mesh(path)):
        lhs, rhs = poisson(mesh)
        assert lhs.shape[0] <= DENSE_COARSE_SIZE
        x, iters = cg_solve(lhs, rhs, 1e-10, preconditioner=VCycle(mesh, lhs))
        assert iters == 1
        assert np.linalg.norm(lhs @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_chain_ends_above_ancestor_without_interior():
    # A one-cell-high strip of 110 squares has no interior vertex; its first
    # refinement has 219, one per inner edge. No coarser space exists, so
    # the cycle is the exact (sparse LU) solve, not Jacobi smoothing over
    # an empty coarse level.
    n = 110
    x = np.arange(n + 1.0)
    vertices = np.column_stack([np.concatenate([x, x]), np.repeat([0.0, 1.0], n + 1)])
    lo, hi = np.arange(n), np.arange(n) + n + 1
    root = TriMesh(vertices, np.concatenate([np.column_stack([lo, lo + 1, hi + 1]),
                                             np.column_stack([lo, hi + 1, hi])]))
    assert root.interior_vertices.size == 0
    mesh = refine_uniform(root)
    lhs, rhs = poisson(mesh)
    assert lhs.shape[0] == 2 * n - 1 > DENSE_COARSE_SIZE
    x, iters = cg_solve(lhs, rhs, 1e-10, preconditioner=VCycle(mesh, lhs))
    assert iters == 1
    assert np.linalg.norm(lhs @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("level", [3, 4])
def test_parentless_mesh_solves(tmp_path, level):
    # A mesh read from file has no parent: the cycle is one exact solve,
    # dense at level 3 (141 interior vertices), sparse LU at level 4 (601).
    path = tmp_path / "mesh.txt"
    write_mesh(pentagon_mesh(level), path)
    mesh = read_mesh(path)
    assert mesh.parent is None and mesh.prolongation() is None
    lhs, rhs = poisson(mesh)
    tol = 1e-10
    x, iters = cg_solve(lhs, rhs, tol, preconditioner=VCycle(mesh, lhs))
    assert iters <= 2
    assert np.linalg.norm(lhs @ x - rhs) <= tol * np.linalg.norm(rhs)


def test_solved_mesh_is_freed():
    # Neither a reference cycle nor a cache outside the mesh may keep the
    # hierarchy alive: reference counting alone frees it.
    mesh = pentagon_mesh(3)
    u, _ = solve_semilinear(mesh, PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0), ONE)
    refs = [weakref.ref(mesh), weakref.ref(mesh.parent),
            weakref.ref(mesh.interior_prolongation())]
    gc.disable()
    try:
        del mesh, u
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
    gc.collect()
    assert all(ref() is None for ref in refs)


def test_sparse_linalg_stays_unloaded():
    # Importing the package and solving on a refined mesh, whose coarsest
    # level is inverted densely, must not load scipy.sparse.linalg.
    code = ("import sys, numpy as np, semifem\n"
            "from semifem.mesh import preset_polygon, refine_uniform, "
            "triangulate_convex_polygon\n"
            "mesh = refine_uniform(triangulate_convex_polygon(preset_polygon('pentagon')))\n"
            "semifem.solve_semilinear(mesh, semifem.PowerLaw(), lambda x, y: np.ones_like(x))\n"
            "print('scipy.sparse.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.strip() == "False"
