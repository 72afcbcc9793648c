import gc
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from semifem.assembly import apply_dirichlet, assemble_load, assemble_mass, assemble_stiffness
from semifem.mesh import (preset_polygon, read_mesh, refine_uniform,
                          triangulate_convex_polygon, write_mesh)
from semifem.multigrid import VCycle
from semifem.nonlinearity import PowerLaw
from semifem.quadrature import edge_midpoint_rule
from semifem.solver import cg_solve, solve_semilinear

ONE = lambda x, y: np.ones_like(x)


def pentagon_mesh(level):
    mesh = triangulate_convex_polygon(preset_polygon("pentagon"))
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def poisson(mesh):
    return apply_dirichlet(assemble_stiffness(mesh),
                           assemble_load(mesh, ONE, edge_midpoint_rule()), mesh)


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
    lhs, _ = apply_dirichlet((assemble_stiffness(mesh) + assemble_mass(mesh)).tocsr(),
                             np.zeros(mesh.num_vertices), mesh)
    cycle = VCycle(mesh, lhs)
    rng = np.random.default_rng(3)
    r, s = rng.standard_normal((2, mesh.num_vertices))
    left, right = s @ cycle(r), r @ cycle(s)
    assert abs(left - right) <= 1e-12 * abs(left)
    assert r @ cycle(r) > 0.0


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
