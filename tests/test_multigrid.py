import gc
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
from scipy import sparse

from semifem.assembly import (assemble_load, assemble_mass, assemble_slope_matrix,
                              assemble_stiffness, coarsen_upper, mass_upper, pattern_matrix,
                              stiffness_sums, stiffness_upper, values_interior_block,
                              vertex_edge_sums)
from semifem.femfunction import FemFunction
from semifem.mesh import (Polygon, TriMesh, preset_polygon, read_mesh,
                          refine_uniform, triangulate_convex_polygon, write_mesh)
from semifem.multigrid import DENSE_COARSE_SIZE, SMOOTHING_WEIGHT, VCycle
from semifem.nonlinearity import PowerLaw
from semifem.quadrature import edge_midpoint_rule, rule_of_degree
from semifem.solver import cg_solve, solve_semilinear

ONE = lambda x, y: np.ones_like(x)


# A convex polygon of no preset, with no symmetry.
CUSTOM_POLYGON = ((0.0, 0.0), (2.0, 0.3), (2.5, 1.5), (1.2, 2.2), (-0.3, 1.1))


def refined(domain, level):
    mesh = triangulate_convex_polygon(domain)
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def pentagon_mesh(level):
    return refined(preset_polygon("pentagon"), level)


def poisson(mesh):
    """V-cycle of the Poisson operator and the load of f = 1 on the interior unknowns.

    The cycle's `matrix` is the system's interior block.
    """
    return (VCycle(mesh),
            assemble_load(mesh, ONE, edge_midpoint_rule())[mesh.interior_vertices])


def steep_slope_rows(mesh, seed=24):
    """Slope rows of a steep term at an iterate straddling its kink u = -1.

    The iterate's interior values lie at distances 1e-6.5 to 1e-4 from the
    kink, on both sides; boundary values are 0.
    """
    i = mesh.interior_vertices
    rng = np.random.default_rng(seed)
    u = np.zeros(mesh.num_vertices)
    u[i] = -1.0 + rng.choice([-1.0, 1.0], i.size) * 10.0 ** -rng.uniform(4.0, 6.5, i.size)
    tau = 1e-6
    return assemble_slope_matrix(mesh, PowerLaw(scale=500.0, exponent=0.1, shift=-1.0),
                                 FemFunction(mesh, u + tau), FemFunction(mesh, u - tau),
                                 tau, rule_of_degree(5))


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_iterations_bounded_across_levels(level):
    mesh = pentagon_mesh(level)
    cycle, rhs = poisson(mesh)
    lhs = cycle.matrix
    tol = 1e-10
    x, iters, _ = cg_solve(lhs, rhs, tol, preconditioner=cycle)
    assert iters <= 20
    assert np.linalg.norm(lhs @ x - rhs) <= tol * np.linalg.norm(rhs)


def test_vcycle_symmetric_positive():
    mesh = pentagon_mesh(4)
    i = mesh.interior_vertices
    cycle = VCycle(mesh, lambda: mass_upper(mesh))
    rng = np.random.default_rng(3)
    r, s = rng.standard_normal((2, i.size))
    left, right = s @ cycle(r), r @ cycle(s)
    assert abs(left - right) <= 1e-12 * abs(left)
    assert r @ cycle(r) > 0.0


def test_smoothed_operators_have_sorted_indices():
    # The matvecs sum each row in index order, so every level's rows must be
    # sorted. Every level's operator is gathered onto the canonical pattern
    # of its mesh's interior block; the Gershgorin bound reads a copy of a's
    # data and leaves a alone.
    mesh = pentagon_mesh(6)
    levels = poisson(mesh)[0]._levels
    assert len(levels) == 3
    for a, _, _, _ in levels:
        rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
        assert np.all(np.diff(rows * a.shape[1] + a.indices) > 0)


def test_cycle_frees_each_levels_rows(monkeypatch):
    # The cycle calls its reaction once and holds the only reference to
    # the rows: each level's rows are coarsened for the parent and summed,
    # then freed before that level's interior block is gathered, so no
    # level's rows survive the build.
    import semifem.multigrid as multigrid
    mesh = pentagon_mesh(6)
    refs, dead = [], []

    def reaction():
        rows = steep_slope_rows(mesh)
        refs.append(weakref.ref(rows))
        return rows

    def coarsening(upper):
        coarse = coarsen_upper(upper)
        refs.append(weakref.ref(coarse))
        return coarse

    def gather(mesh, values):
        dead.append(refs[len(dead)]() is None)
        return values_interior_block(mesh, values)

    monkeypatch.setattr(multigrid, "coarsen_upper", coarsening)
    monkeypatch.setattr(multigrid, "values_interior_block", gather)
    gc.disable()
    try:
        cycle = VCycle(mesh, reaction)
        assert len(cycle._levels) == 3
        assert len(refs) == 4 and dead == [True] * 4
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_newton_slope_rows_die_before_the_fine_gather(monkeypatch):
    # No frame of the Newton loop holds a step's slope rows: they are dead
    # at every gather of an interior block, the fine one included.
    import semifem.multigrid as multigrid
    import semifem.solver as solver
    refs, alive = [], []

    def slope(*args, **kwargs):
        rows = assemble_slope_matrix(*args, **kwargs)
        refs.append(weakref.ref(rows))
        return rows

    def gather(mesh, values):
        alive.extend(ref() is not None for ref in refs)
        return values_interior_block(mesh, values)

    monkeypatch.setattr(solver, "assemble_slope_matrix", slope)
    monkeypatch.setattr(multigrid, "values_interior_block", gather)
    gc.disable()
    try:
        solve_semilinear(pentagon_mesh(5), PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0), ONE)
    finally:
        gc.enable()
    assert refs and alive and not any(alive)


def test_newton_stiffness_block_dies_before_every_cycle_gather(monkeypatch):
    # The Newton loop drops its interior stiffness block before each
    # correction builds its V-cycle: no such block is alive at any gather
    # of a cycle's interior block, the fine one included, so the mesh's
    # kept stiffness sums are the only copy of its stiffness values there.
    import semifem.multigrid as multigrid
    import semifem.solver as solver
    refs, alive = [], []

    def block(mesh, values):
        matrix = values_interior_block(mesh, values)
        refs.append(weakref.ref(matrix))
        return matrix

    def gather(mesh, values):
        alive.extend(ref() is not None for ref in refs)
        return values_interior_block(mesh, values)

    monkeypatch.setattr(solver, "values_interior_block", block)
    monkeypatch.setattr(multigrid, "values_interior_block", gather)
    gc.disable()
    try:
        solve_semilinear(pentagon_mesh(5), PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0), ONE)
    finally:
        gc.enable()
    assert refs and alive and not any(alive)


def copied_jacobi_weights(a):
    """The Jacobi weights by the Gershgorin sums over a copy of |a|."""
    diag = a.diagonal()
    magnitudes = sparse.csr_matrix((np.abs(a.data), a.indices, a.indptr), shape=a.shape)
    gershgorin = np.max(magnitudes @ np.ones(a.shape[0]) / diag)
    return min(SMOOTHING_WEIGHT, 1.9 / gershgorin) / diag


@pytest.mark.parametrize("reaction", ["none", "steep-slope"])
def test_jacobi_weights_keep_the_operator_bits(reaction):
    # The weights and every smoothed operator are those of a sum over a
    # copy of |a| with scipy's diagonal, bit for bit, signed zeros included.
    mesh = pentagon_mesh(6)
    rows = None if reaction == "none" else steep_slope_rows(mesh)
    levels = VCycle(mesh, None if rows is None else lambda: rows)._levels
    assert len(levels) == 3
    if rows is None:
        expected = []
        for _ in levels:
            i = mesh.interior_vertices
            expected.append(assemble_stiffness(mesh)[i][:, i])
            mesh = mesh.parent
    else:
        expected = element_chain(mesh, rows, len(levels) - 1)
    for (a, weights, _, _), ref in zip(levels, expected):
        np.testing.assert_array_equal(a.data.view(np.uint64), ref.data.view(np.uint64))
        np.testing.assert_array_equal(weights.view(np.uint64),
                                      copied_jacobi_weights(ref).view(np.uint64))


def test_vcycle_positive_definite_on_steep_jacobian():
    # Newton Jacobian of a steep term at an iterate whose values straddle
    # the kink u = -1 at distances 1e-6.5 to 1e-4. Its slope-weighted
    # element matrices push lambda_max(D^-1 J) to 2.62 on level 4, the one
    # smoothed level of this cycle, above 2 / 0.8: with a fixed smoothing
    # weight 0.8, Jacobi expands the error there (omega lambda_max = 2.10).
    mesh = pentagon_mesh(4)
    i = mesh.interior_vertices
    slope = steep_slope_rows(mesh)
    jacobian = (assemble_stiffness(mesh) + pattern_matrix(mesh, slope))[i][:, i]
    cycle = VCycle(mesh, lambda: slope)
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
        cycle, rhs = poisson(mesh)
        lhs = cycle.matrix
        assert lhs.shape[0] <= DENSE_COARSE_SIZE
        x, iters, _ = cg_solve(lhs, rhs, 1e-10, preconditioner=cycle)
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
    cycle, rhs = poisson(mesh)
    lhs = cycle.matrix
    assert lhs.shape[0] == 2 * n - 1 > DENSE_COARSE_SIZE
    x, iters, _ = cg_solve(lhs, rhs, 1e-10, preconditioner=cycle)
    assert iters == 1
    assert np.linalg.norm(lhs @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("level", [3, 4])
def test_parentless_mesh_solves(tmp_path, level):
    # A mesh read from file has no parent: the cycle is one exact solve,
    # dense at level 3 (141 interior vertices), sparse LU at level 4 (601).
    path = tmp_path / "mesh.txt"
    write_mesh(pentagon_mesh(level), path)
    mesh = read_mesh(path)
    assert mesh.parent is None and mesh.interior_prolongation() is None
    cycle, rhs = poisson(mesh)
    lhs = cycle.matrix
    tol = 1e-10
    x, iters, _ = cg_solve(lhs, rhs, tol, preconditioner=cycle)
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
    # level is solved densely by numpy, must load neither scipy.sparse.linalg
    # nor scipy.linalg. Level 5 has smoothed levels above the dense one.
    code = ("import sys, numpy as np, semifem\n"
            "from semifem.mesh import preset_polygon, refine_uniform, "
            "triangulate_convex_polygon\n"
            "print('scipy.sparse.linalg' in sys.modules, 'scipy.linalg' in sys.modules)\n"
            "mesh = triangulate_convex_polygon(preset_polygon('pentagon'))\n"
            "for _ in range(5):\n"
            "    mesh = refine_uniform(mesh)\n"
            "semifem.solve_semilinear(mesh, semifem.PowerLaw(), lambda x, y: np.ones_like(x))\n"
            "print('scipy.sparse.linalg' in sys.modules, 'scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.split() == ["False"] * 4


def product_chain(mesh, matrix, depth):
    """Interior blocks of P^T A P by sparse products, fine to coarse, depth levels down."""
    i = mesh.interior_vertices
    a = matrix[i][:, i]
    chain = [a]
    for _ in range(depth):
        p = mesh.interior_prolongation()
        a = (p.T @ (a @ p)).tocsr()
        a.sort_indices()
        chain.append(a)
        mesh = mesh.parent
    return chain


def element_chain(mesh, reaction, depth):
    """The same blocks from element rows, by a route of full matrices.

    Each level is the scattered reaction rows, coarsened once per level
    down, plus a fresh scatter of the mesh's stiffness rows, added on the
    data arrays of the mesh's pattern and cut to the interior block by
    scipy's indexing; with reaction None, the stiffness alone.
    """
    chain = []
    for k in range(depth + 1):
        if k:
            mesh = mesh.parent
            if reaction is not None:
                reaction = coarsen_upper(reaction)
        full = pattern_matrix(mesh, stiffness_upper(mesh))
        if reaction is not None:
            full.data += pattern_matrix(mesh, reaction).data
        i = mesh.interior_vertices
        chain.append(full[i][:, i])
    return chain


GALERKIN_MESHES = [("pentagon", preset_polygon("pentagon"), level) for level in (4, 5, 6, 7)] + [
    ("unit-square", preset_polygon("unit-square"), 5),
    ("custom", Polygon(CUSTOM_POLYGON), 5),
]


def check_levels_equal_chain(levels, chain):
    """Every smoothed level equals its block of the chain, and its weights
    the copied Gershgorin sums' with scipy's diagonal, bit for bit."""
    for (a, weights, _, _), expected in zip(levels, chain):
        np.testing.assert_array_equal(a.indptr, expected.indptr)
        np.testing.assert_array_equal(a.indices, expected.indices)
        np.testing.assert_array_equal(a.data.view(np.uint64), expected.data.view(np.uint64))
        np.testing.assert_array_equal(weights.view(np.uint64),
                                      copied_jacobi_weights(expected).view(np.uint64))


@pytest.mark.parametrize("reaction", ["mass", "steep-slope"])
@pytest.mark.parametrize("name, domain, level", GALERKIN_MESHES,
                         ids=[f"{name}-{level}" for name, _, level in GALERKIN_MESHES])
def test_coarse_operators_match_sparse_products(name, domain, level, reaction):
    # Every operator of the cycle's chain, down to its dense coarsest level
    # (level 3 on these domains), has the pattern of the interior block of
    # P^T A P formed by sparse products, and its values to rounding. The
    # cycle sums each level per vertex and per edge and gathers its block
    # from those sums; its smoothed levels are the blocks cut out of full
    # matrices, bit for bit.
    mesh = refined(domain, level)
    rows = mass_upper(mesh) if reaction == "mass" else steep_slope_rows(mesh)
    levels = VCycle(mesh, lambda: rows)._levels
    assert len(levels) == level - 3
    reference = product_chain(mesh, assemble_stiffness(mesh) + pattern_matrix(mesh, rows),
                              len(levels))
    chain = element_chain(mesh, rows, len(levels))
    for ref, a in zip(reference, chain):
        np.testing.assert_array_equal(a.indptr, ref.indptr)
        np.testing.assert_array_equal(a.indices, ref.indices)
        assert np.max(np.abs(a.data - ref.data)) <= 1e-13 * np.max(np.abs(ref.data))
    check_levels_equal_chain(levels, chain)


@pytest.mark.parametrize("name, domain, level", GALERKIN_MESHES,
                         ids=[f"{name}-{level}" for name, _, level in GALERKIN_MESHES])
def test_poisson_levels_match_full_matrices(name, domain, level):
    # Without a reaction each level is its mesh's kept stiffness sums, gathered;
    # sparse products would drop the unit square's exact zeros, so the
    # reference is the full-matrix chain alone.
    mesh = refined(domain, level)
    levels = VCycle(mesh)._levels
    assert len(levels) == level - 3
    check_levels_equal_chain(levels, element_chain(mesh, None, len(levels) - 1))


@pytest.mark.parametrize("level", [2, 5])
def test_interior_block_equals_fancy_indexing(level):
    # One gather of the vertex and edge values gives scipy's matrix[i][:, i],
    # bit for bit, also with the unit square's exact zeros in the stiffness.
    for domain in ("pentagon", "unit-square"):
        mesh = refined(preset_polygon(domain), level)
        i = mesh.interior_vertices
        steep = steep_slope_rows(mesh)
        for values, matrix in (
                (stiffness_sums(mesh), assemble_stiffness(mesh)),
                (vertex_edge_sums(mesh, mass_upper(mesh)), assemble_mass(mesh)),
                (stiffness_sums(mesh) + vertex_edge_sums(mesh, steep),
                 assemble_stiffness(mesh) + pattern_matrix(mesh, steep))):
            block, ref = values_interior_block(mesh, values), matrix[i][:, i]
            assert block.shape == ref.shape
            for attr in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(block, attr), getattr(ref, attr))
        indptr, indices, source = mesh.interior_pattern()
        assert mesh.interior_pattern()[2] is source
        assert indptr.dtype == indices.dtype == source.dtype == np.int32
        assert not any(array.flags.writeable for array in (indptr, indices, source))
