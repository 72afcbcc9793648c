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
from semifem.mesh import (preset_polygon, read_mesh, refine_uniform,
                          triangulate_convex_polygon, write_mesh)
from semifem.multigrid import VCycle
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


def test_vcycle_positive_definite_on_steep_jacobian():
    # Newton Jacobian of a steep term at an iterate whose values straddle
    # the kink u = -1 at distances 1e-6.5 to 1e-4. Its slope-weighted
    # element matrices push lambda_max(D^-1 J) above 2 / 0.8, and a fixed
    # smoothing weight 0.8 made this cycle indefinite (smallest eigenvalue
    # -1.2e-2 times the largest).
    mesh = pentagon_mesh(3)
    i = mesh.interior_vertices
    rng = np.random.default_rng(24)
    u = np.zeros(mesh.num_vertices)
    u[i] = -1.0 + rng.choice([-1.0, 1.0], i.size) * 10.0 ** -rng.uniform(4.0, 6.5, i.size)
    tau = 1e-6
    slope = assemble_slope_matrix(mesh, PowerLaw(scale=500.0, exponent=0.1, shift=-1.0),
                                  FemFunction(mesh, u + tau), FemFunction(mesh, u - tau),
                                  tau, rule_of_degree(5))
    cycle = VCycle(mesh, (assemble_stiffness(mesh) + slope)[i][:, i])
    dense = np.column_stack([cycle(e) for e in np.eye(i.size)])
    assert np.max(np.abs(dense - dense.T)) <= 1e-12 * np.max(np.abs(dense))
    eigenvalues = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    assert eigenvalues[0] > 1e-4 * eigenvalues[-1]


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
    # level is tiny, must not load scipy.sparse.linalg.
    code = ("import sys, numpy as np, semifem\n"
            "from semifem.mesh import preset_polygon, refine_uniform, "
            "triangulate_convex_polygon\n"
            "mesh = refine_uniform(triangulate_convex_polygon(preset_polygon('pentagon')))\n"
            "semifem.solve_semilinear(mesh, semifem.PowerLaw(), lambda x, y: np.ones_like(x))\n"
            "print('scipy.sparse.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.strip() == "False"
