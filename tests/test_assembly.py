import gc
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy import sparse

from semifem import assembly
from semifem.analysis import (error_h1semi, error_l2, error_linf, ritz_project,
                              run_convergence_study)
from semifem.assembly import (apply_dirichlet, assemble_load, assemble_mass,
                              assemble_nonlinear_residual, assemble_slope_matrix,
                              assemble_stiffness)
from semifem.femfunction import FemFunction, interpolate
from semifem.mesh import (TriMesh, locate_point, preset_polygon, read_mesh,
                          refine_uniform, triangulate_convex_polygon, write_mesh)
from semifem.multigrid import VCycle
from semifem.nonlinearity import Nonlinearity, PowerLaw, cut
from semifem.quadrature import edge_midpoint_rule, rule_of_degree, seven_point_rule, shipped_rules
from semifem.solver import SolverConfig, solve_semilinear
from test_multigrid import steep_slope_rows

def slope_matrix(mesh, *args):
    """The CSR matrix of `assemble_slope_matrix`'s element rows."""
    return assembly.pattern_matrix(mesh, assemble_slope_matrix(mesh, *args))


HAND_STIFFNESS = np.array([[1.0, -0.5, -0.5],
                           [-0.5, 0.5, 0.0],
                           [-0.5, 0.0, 0.5]])


def unit_right_triangle():
    return TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])


def skewed_triangle():
    return TriMesh([[0.2, -0.1], [1.7, 0.4], [0.5, 1.3]], [[0, 1, 2]])


@pytest.fixture
def square2():
    mesh = triangulate_convex_polygon(preset_polygon("unit-square"))
    return refine_uniform(refine_uniform(mesh))


class TestStiffness:
    def test_hand_matrix(self):
        matrix = assemble_stiffness(unit_right_triangle()).toarray()
        np.testing.assert_allclose(matrix, HAND_STIFFNESS, atol=1e-14)

    def test_rows_sum_to_zero(self, square2):
        matrix = assemble_stiffness(square2)
        sums = np.asarray(matrix.sum(axis=1)).ravel()
        assert np.max(np.abs(sums)) <= 1e-13

    def test_exact_symmetry(self, square2):
        matrix = assemble_stiffness(square2).toarray()
        np.testing.assert_array_equal(matrix, matrix.T)


class TestMass:
    def test_hand_matrix_scaled(self):
        mesh = skewed_triangle()
        area = float(mesh.signed_areas()[0])
        template = np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]]) * area / 12.0
        np.testing.assert_allclose(assemble_mass(mesh).toarray(), template,
                                   atol=1e-15 * area)

    def test_entries_sum_to_area(self, square2):
        assert assemble_mass(square2).sum() == pytest.approx(1.0, rel=1e-12)

    def test_positive_definite_single_triangle(self):
        matrix = assemble_mass(unit_right_triangle()).toarray()
        assert np.min(np.linalg.eigvalsh(matrix)) > 0.0


class TestLoad:
    def test_constant_one_single_triangle(self):
        mesh = skewed_triangle()
        area = float(mesh.signed_areas()[0])
        load = assemble_load(mesh, lambda x, y: 1.0, edge_midpoint_rule())
        np.testing.assert_allclose(load, area / 3.0, rtol=1e-14)

    def test_zero(self, square2):
        load = assemble_load(square2, lambda x, y: 0.0 * x, seven_point_rule())
        assert not np.any(load)

    def test_linearity_in_constant(self, square2):
        one = assemble_load(square2, lambda x, y: 1.0, seven_point_rule())
        scaled = assemble_load(square2, lambda x, y: -3.5, seven_point_rule())
        np.testing.assert_allclose(scaled, -3.5 * one, rtol=1e-14)

    def test_nonfinite_rejected(self, square2):
        with pytest.raises(ValueError, match="non-finite"):
            assemble_load(square2, lambda x, y: np.where(x > 0.5, np.inf, 1.0),
                          edge_midpoint_rule())


class TestNonlinearResidual:
    def test_identity_reaction_equals_mass_action(self, square2):
        u = interpolate(square2, lambda x, y: x - 2.0 * y + 0.25)
        out = assemble_nonlinear_residual(square2, PowerLaw(), u, edge_midpoint_rule())
        target = assemble_mass(square2) @ u.coeffs
        scale = np.max(np.abs(target))
        assert np.max(np.abs(out - target)) <= 1e-13 * scale

    def test_zero_reaction(self, square2):
        u = interpolate(square2, lambda x, y: x * y)
        out = assemble_nonlinear_residual(square2, PowerLaw(weight=0.0), u,
                                          seven_point_rule())
        assert not np.any(out)

    def test_constant_reaction_equals_load(self, square2):
        u = interpolate(square2, lambda x, y: np.sin(x))
        constant_one = lambda x, y, u: np.ones_like(u)
        out = assemble_nonlinear_residual(square2, constant_one, u, seven_point_rule())
        load = assemble_load(square2, lambda x, y: 1.0, seven_point_rule())
        np.testing.assert_allclose(out, load, rtol=1e-14)


class TestSlopeMatrix:
    def test_unit_slope_equals_mass(self, square2):
        up = interpolate(square2, lambda x, y: np.full_like(x, 2.0))
        down = interpolate(square2, lambda x, y: np.full_like(x, -2.0))
        slope = slope_matrix(square2, PowerLaw(), up, down, 1e-6, seven_point_rule())
        diff = (slope - assemble_mass(square2)).toarray()
        assert np.max(np.abs(diff)) <= 1e-13

    def test_equal_states_give_zero(self, square2):
        u = interpolate(square2, lambda x, y: x * y)
        slope = slope_matrix(square2, PowerLaw(exponent=0.5), u, u.copy(), 1e-6,
                             seven_point_rule())
        assert np.max(np.abs(slope.toarray())) == 0.0

    def test_kink_weight_value(self, square2):
        # Straddling the kink of 50 sgn(u+1)|u+1|^(1/3) by the floor tau
        # gives the constant weight 50 * tau^(-2/3) = 5e5 for tau = 1e-6.
        tau = 1e-6
        d = PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)
        up = interpolate(square2, lambda x, y: np.full_like(x, -1.0 + tau))
        down = interpolate(square2, lambda x, y: np.full_like(x, -1.0 - tau))
        slope = slope_matrix(square2, d, up, down, tau, seven_point_rule())
        expected = 50.0 * 1e4 * assemble_mass(square2).toarray()
        np.testing.assert_allclose(slope.toarray(), expected, rtol=1e-9)

    def test_nonmonotone_rejected(self, square2):
        u = interpolate(square2, lambda x, y: np.full_like(x, 1.0))
        v = interpolate(square2, lambda x, y: np.full_like(x, -1.0))
        decreasing = lambda x, y, u: -u
        with pytest.raises(ValueError, match="not monotone"):
            assemble_slope_matrix(square2, decreasing, u, v, 1e-6, seven_point_rule())

    def test_gershgorin_lower_bounds_unit_weight(self, square2):
        # Positive semidefiniteness surrogate; for a constant weight the
        # weighted mass matrix has exact zero Gershgorin lower bounds.
        up = interpolate(square2, lambda x, y: np.full_like(x, 2.0))
        down = interpolate(square2, lambda x, y: np.full_like(x, -2.0))
        slope = slope_matrix(square2, PowerLaw(), up, down, 1e-6,
                             seven_point_rule()).toarray()
        radii = np.sum(np.abs(slope), axis=1) - np.abs(np.diag(slope))
        assert np.min(np.diag(slope) - radii) >= -1e-12

    def test_gershgorin_lower_bounds_kink_weight(self, square2):
        # Same check at weight 5e5; cancellation noise scales with the
        # matrix, so the bound is relative there.
        tau = 1e-6
        d = PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)
        up = interpolate(square2, lambda x, y: np.full_like(x, -1.0 + tau))
        down = interpolate(square2, lambda x, y: np.full_like(x, -1.0 - tau))
        slope = slope_matrix(square2, d, up, down, tau, seven_point_rule()).toarray()
        radii = np.sum(np.abs(slope), axis=1) - np.abs(np.diag(slope))
        scale = np.max(np.abs(slope))
        assert np.min(np.diag(slope) - radii) >= -1e-11 * scale

    def test_positive_semidefinite_for_varying_kink_weight(self, square2):
        # Gershgorin is too pessimistic when the weight varies sharply
        # inside elements; the matrix itself stays PSD (a nonnegative
        # combination of rank-one outer products).
        d = PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)
        u = interpolate(square2, lambda x, y: np.sin(3 * x) - 1.0 + 0.01 * y)
        v = interpolate(square2, lambda x, y: -1.0 + 0.0 * x)
        slope = slope_matrix(square2, d, u, v, 1e-6, seven_point_rule()).toarray()
        eigs = np.linalg.eigvalsh(slope)
        assert eigs.min() >= -1e-12 * np.max(np.abs(slope))

    def test_rejects_bad_floor(self, square2):
        u = interpolate(square2, lambda x, y: x)
        with pytest.raises(ValueError, match="floor"):
            assemble_slope_matrix(square2, PowerLaw(), u, u, 0.0, seven_point_rule())


class TestApplyDirichlet:
    def test_all_boundary_gives_identity(self):
        mesh = unit_right_triangle()
        matrix = assemble_stiffness(mesh)
        lhs, rhs = apply_dirichlet(matrix, np.array([1.0, 2.0, 3.0]), mesh)
        np.testing.assert_array_equal(lhs.toarray(), np.eye(3))
        np.testing.assert_array_equal(rhs, np.zeros(3))

    def test_interior_rows_keep_interior_entries(self, square2):
        matrix = assemble_stiffness(square2)
        rhs = np.arange(square2.num_vertices, dtype=float)
        lhs, crhs = apply_dirichlet(matrix, rhs, square2)
        dense = matrix.toarray()
        cdense = lhs.toarray()
        interior = ~square2.boundary_vertex
        np.testing.assert_array_equal(cdense[np.ix_(interior, interior)],
                                      dense[np.ix_(interior, interior)])
        assert not np.any(cdense[np.ix_(interior, ~interior)])
        np.testing.assert_array_equal(crhs[interior], rhs[interior])
        assert not np.any(crhs[~interior])

    def test_constrained_still_symmetric(self, square2):
        matrix = assemble_stiffness(square2)
        lhs, _ = apply_dirichlet(matrix, np.zeros(square2.num_vertices), square2)
        dense = lhs.toarray()
        np.testing.assert_array_equal(dense, dense.T)


def shuffled(mesh):
    """The mesh with its triangles in a fixed random order."""
    perm = np.random.default_rng(11).permutation(mesh.num_triangles)
    return TriMesh(mesh.vertices, mesh.triangles[perm])


def test_assembly_order_independent(square2):
    # Permuting the element loop must not change any entry beyond roundoff.
    permuted = shuffled(square2)
    for assemble in (assemble_stiffness, assemble_mass):
        a = assemble(square2).toarray()
        b = assemble(permuted).toarray()
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a - b)) <= 1e-13 * scale
    u_vals = np.sin(np.arange(square2.num_vertices))
    f = assemble_nonlinear_residual(square2, PowerLaw(exponent=0.5),
                                    FemFunction(square2, u_vals), seven_point_rule())
    g = assemble_nonlinear_residual(permuted, PowerLaw(exponent=0.5),
                                    FemFunction(permuted, u_vals), seven_point_rule())
    assert np.max(np.abs(f - g)) <= 1e-13 * max(1.0, np.max(np.abs(f)))


def coo_reference(mesh, local):
    """Sum of (nt, 3, 3) element matrices built through COO, in canonical CSR."""
    t = mesh.triangles
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    nv = mesh.num_vertices
    mat = sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    mat.sort_indices()
    return mat


def reference_locals(mesh, d, u, v, floor, quad):
    """Stiffness, mass and slope element matrices from first principles."""
    p = mesh.vertices[mesh.triangles]
    areas = mesh.signed_areas()
    # Edge opposite vertex a; the hat gradient is that edge turned by 90
    # degrees over twice the area.
    edge = np.roll(p, -2, axis=1) - np.roll(p, -1, axis=1)
    stiffness = np.einsum("kad,kbd->kab", edge, edge) / (4.0 * areas)[:, None, None]
    template = (np.ones((3, 3)) + np.eye(3)) / 12.0
    mass = areas[:, None, None] * template
    slope = np.zeros_like(mass)
    for bary, w in zip(quad.points, quad.weights):
        x, y = np.einsum("j,kjd->dk", bary, p)
        uq = u.coeffs[mesh.triangles] @ bary
        vq = v.coeffs[mesh.triangles] @ bary
        e = uq - vq
        b = np.sign(e) * (d(x, y, uq) - d(x, y, vq)) / np.maximum(np.abs(e), floor)
        slope += (w * areas * np.maximum(b, 0.0))[:, None, None] * np.outer(bary, bary)
    return stiffness, mass, slope


@pytest.mark.parametrize("make", ["square2", "shuffled", "skewed"])
def test_pattern_matches_coo_reference(square2, make):
    mesh = {"square2": square2, "shuffled": shuffled(square2),
            "skewed": skewed_triangle()}[make]
    d = PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)
    u = interpolate(mesh, lambda x, y: np.sin(3 * x) - 1.0 + 0.01 * y)
    v = interpolate(mesh, lambda x, y: -1.0 + 0.0 * x)
    tau = 1e-6
    quad = seven_point_rule()
    stiffness = assemble_stiffness(mesh)
    slope = slope_matrix(mesh, d, u, v, tau, quad)
    assembled = (stiffness, assemble_mass(mesh), slope)
    for matrix, local in zip(assembled, reference_locals(mesh, d, u, v, tau, quad)):
        ref = coo_reference(mesh, local)
        assert matrix.format == "csr"
        np.testing.assert_array_equal(matrix.indptr, ref.indptr)
        np.testing.assert_array_equal(matrix.indices, ref.indices)
        assert matrix.has_canonical_format
        # The flag is set by assembly; scipy's own check must agree.
        fresh = sparse.csr_matrix((matrix.data, matrix.indices, matrix.indptr),
                                  shape=matrix.shape)
        assert fresh.has_canonical_format
        np.testing.assert_allclose(matrix.data, ref.data, rtol=1e-14, atol=0.0)
    assert (stiffness + slope).nnz == stiffness.nnz


@pytest.mark.parametrize("make", ["square2", "shuffled", "pentagon5"])
def test_pattern_sums_equal_one_bincount(square2, make):
    # Each entry holds its vertex's or edge's sum of element entries, added
    # in the order of one bincount over the stacked index columns, bit for
    # bit.
    mesh = {"square2": square2, "shuffled": shuffled(square2),
            "pentagon5": pentagon(5)}[make]
    u = interpolate(mesh, lambda x, y: np.sin(3 * x) - 1.0 + 0.01 * y)
    v = interpolate(mesh, lambda x, y: -1.0 + 0.3 * x * y)
    source = mesh.matrix_pattern()[2]
    for upper in (assembly.stiffness_upper(mesh), assembly.mass_upper(mesh),
                  assemble_slope_matrix(mesh, PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0),
                                        u, v, 1e-6, seven_point_rule())):
        data = assembly.pattern_matrix(mesh, upper).data
        sums = np.concatenate([
            np.bincount(mesh.triangles.T.ravel(), weights=upper[:3].ravel(),
                        minlength=mesh.num_vertices),
            np.bincount(mesh.triangle_edges().T.ravel(), weights=upper[3:].ravel(),
                        minlength=mesh.edges().shape[0])])
        np.testing.assert_array_equal(data, sums[source])


def unique_pattern(mesh):
    """CSR indptr and indices by one np.unique over all 9 nt element-entry keys."""
    t = mesh.triangles
    nv = mesh.num_vertices
    keys = np.unique((t[:, :, None] * nv + t[:, None, :]).ravel())
    rows = keys // nv
    indices = (keys - rows * nv).astype(np.int32)
    indptr = np.searchsorted(rows, np.arange(nv + 1)).astype(np.int32)
    return indptr, indices


def pentagon(level):
    mesh = triangulate_convex_polygon(preset_polygon("pentagon"))
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


def reread(mesh, tmp_path):
    path = str(tmp_path / "mesh.txt")
    write_mesh(mesh, path)
    return read_mesh(path)


@pytest.mark.parametrize("make", [f"pentagon{level}" for level in range(6)]
                         + ["unit-triangle", "shuffled", "reread"])
def test_pattern_matches_unique_reference(square2, tmp_path, make):
    if make.startswith("pentagon"):
        mesh = pentagon(int(make[-1]))
    else:
        mesh = {"unit-triangle": unit_right_triangle,
                "shuffled": lambda: shuffled(square2),
                "reread": lambda: reread(pentagon(3), tmp_path)}[make]()
    indptr, indices, source = mesh.matrix_pattern()
    ref_indptr, ref_indices = unique_pattern(mesh)
    for array, ref in ((indptr, ref_indptr), (indices, ref_indices)):
        assert array.dtype == ref.dtype
        np.testing.assert_array_equal(array, ref)
    nv, ne = mesh.num_vertices, mesh.edges().shape[0]
    rows = np.repeat(np.arange(nv), np.diff(indptr))
    # Value v is the diagonal entry (v, v), value nv + e the entries (lo, hi)
    # and (hi, lo) of edge e: once each, and twice each.
    assert source.dtype == np.int32 and source.shape == indices.shape
    np.testing.assert_array_equal(np.bincount(source, minlength=nv + ne),
                                  np.repeat([1, 2], [nv, ne]))
    ends = np.concatenate([np.repeat(np.arange(nv)[:, None], 2, axis=1), mesh.edges()])
    np.testing.assert_array_equal(ends[source, 0], np.minimum(rows, indices))
    np.testing.assert_array_equal(ends[source, 1], np.maximum(rows, indices))


class TestPatternCache:
    def test_built_once_and_shared(self, square2):
        # The whole-mesh pattern is built on every call and kept nowhere:
        # two calls give equal, read-only arrays of their own.
        first = assemble_stiffness(square2)
        pattern = square2.matrix_pattern()
        again = square2.matrix_pattern()
        for array, other in zip(pattern, again):
            assert array is not other and not np.shares_memory(array, other)
            assert not array.flags.writeable and not other.flags.writeable
            np.testing.assert_array_equal(array, other)
        indptr, indices, source = pattern
        assert source.dtype == np.int32 and source.shape == indices.shape
        u = interpolate(square2, lambda x, y: x * y)
        for matrix in (first, assemble_mass(square2),
                       slope_matrix(square2, PowerLaw(), u, u.copy(), 1e-6,
                                    seven_point_rule())):
            np.testing.assert_array_equal(matrix.indptr, indptr)
            np.testing.assert_array_equal(matrix.indices, indices)

    def test_read_only(self, square2):
        # Assemblers share the mesh's areas; patterns are read-only too.
        assert not square2.signed_areas().flags.writeable
        for array in square2.matrix_pattern():
            assert not array.flags.writeable
        matrix = assemble_mass(square2)
        with pytest.raises(ValueError):
            matrix.indices[0] = 1
        matrix.data[0] = 7.0  # the values are the caller's own
        assert assemble_mass(square2).data[0] != 7.0

    def test_not_built_without_assembly(self, square2, monkeypatch):
        built = []
        build = TriMesh.matrix_pattern
        monkeypatch.setattr(TriMesh, "matrix_pattern",
                            lambda mesh: built.append(mesh) or build(mesh))
        child = refine_uniform(square2)
        assemble_stiffness(child)
        assert built == [child]
        # Solves and studies work on interior unknowns only: neither a cold
        # solve nor a study builds a pattern of a whole mesh.
        kink = PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)
        one = lambda x, y: np.ones_like(x)
        solve_semilinear(pentagon(4), kink, one)
        run_convergence_study("pentagon", kink, one, range(2, 4))
        assert built == [child]

    def test_freed_with_mesh(self):
        mesh = refine_uniform(triangulate_convex_polygon(preset_polygon("pentagon")))
        matrix, stiffness = assemble_mass(mesh), assemble_stiffness(mesh)
        values = assembly._STIFFNESS[mesh]
        assert assembly.stiffness_sums(mesh) is values
        refs = [weakref.ref(a) for a in (mesh, values, matrix.indptr, matrix.indices,
                                         stiffness.indptr, stiffness.indices)]
        gc.disable()
        try:
            del mesh, matrix, stiffness, values
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestStiffnessCache:
    def test_values_built_once_and_shared(self, square2, monkeypatch):
        calls = []
        build = assembly._streamed_stiffness_sums
        monkeypatch.setattr(assembly, "_streamed_stiffness_sums",
                            lambda mesh: calls.append(mesh) or build(mesh))
        first, second = assemble_stiffness(square2), assemble_stiffness(square2)
        assert calls == [square2]
        assert first is not second
        # The kept values are the vertex and edge sums; each call scatters
        # them into a data array of its own.
        assert assembly.stiffness_sums(square2) is assembly.stiffness_sums(square2)
        np.testing.assert_array_equal(first.data, second.data)
        np.testing.assert_array_equal(
            first.data, assembly.pattern_matrix(square2, assembly.stiffness_upper(square2)).data)

    def test_values_read_only(self, square2):
        values = assembly.stiffness_sums(square2)
        kept = values.copy()
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 7.0
        matrix = assemble_stiffness(square2)
        matrix.data[:] = 7.0  # a matrix's values are the caller's own
        assert assembly.stiffness_sums(square2) is values
        assert not values.flags.writeable
        np.testing.assert_array_equal(values, kept)
        assert assemble_stiffness(square2).data[0] != 7.0


def poisoned(value, call=1, k=5, base=PowerLaw()):
    """base (a nonlinearity or right-hand side) that returns value at entry k
    of its call-th evaluation.

    The kernels call it once per block (twice for the slope weight, at u
    and then at v) on flat arrays of the block's quadrature points,
    point-major: entry i·n + t is point i of the block's triangle t.
    """
    seen = {"calls": 0}

    def poisoned_base(x, y, *u):
        out = np.array(base(x, y, *u), dtype=float)
        seen["calls"] += 1
        if seen["calls"] == call:
            out[k] = value
            seen["point"] = (x[k], y[k])
        return out

    return poisoned_base, seen


def reported_point(message):
    x, y = re.search(r"at point \(([^,]+), ([^)]+)\)", message).groups()
    return float(x), float(y)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_nonfinite_nonlinearity_rejected(square2, value):
    # Point 3 of triangle 5 in the one block.
    d, seen = poisoned(value, k=3 * square2.num_triangles + 5)
    u = interpolate(square2, lambda x, y: x - y)
    with pytest.raises(ValueError, match="nonlinearity") as info:
        assemble_nonlinear_residual(square2, d, u, seven_point_rule())
    point = reported_point(str(info.value))
    np.testing.assert_allclose(point, seen["point"], rtol=1e-5)
    locate_point(square2, point)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_nonfinite_slope_weight_rejected(square2, value):
    # Point 3 of triangle 5 in the evaluation at v.
    d, seen = poisoned(value, call=2, k=3 * square2.num_triangles + 5)
    u = interpolate(square2, lambda x, y: x - y)
    v = interpolate(square2, lambda x, y: x - y - 0.5)
    with pytest.raises(ValueError, match="slope weight") as info:
        assemble_slope_matrix(square2, d, u, v, 1e-6, seven_point_rule())
    point = reported_point(str(info.value))
    np.testing.assert_allclose(point, seen["point"], rtol=1e-5)
    locate_point(square2, point)


# A reaction that overflows double precision: 1e300 · 1e300 at u = 1e300.
OVERFLOWING = PowerLaw(1e300, 1)


def overflowing_at_huge(x, y):
    return OVERFLOWING(x, y, np.full_like(x, 1e300))


@pytest.mark.parametrize("what", ["right-hand side", "nonlinearity", "slope weight",
                                  "gradient field"])
def test_overflow_rejected_without_warning(square2, what):
    # The kernels leave an overflow in the callable to their finiteness
    # check: with every warning an error, the NonFiniteError naming a point
    # is what gets raised, not numpy's overflow RuntimeWarning.
    quad = seven_point_rule()
    huge = FemFunction(square2, np.full(square2.num_vertices, 1e300))
    run = {
        "right-hand side": lambda: assemble_load(square2, overflowing_at_huge, quad),
        "nonlinearity": lambda: assemble_nonlinear_residual(square2, OVERFLOWING, huge, quad),
        "slope weight": lambda: assemble_slope_matrix(
            square2, OVERFLOWING, huge, FemFunction.zeros(square2), 1e-6, quad),
        "gradient field": lambda: ritz_project(
            square2, lambda x, y: (overflowing_at_huge(x, y), np.zeros_like(x))),
    }[what]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(assembly.NonFiniteError, match=f"{what} returned non-finite") as info:
            run()
    locate_point(square2, reported_point(str(info.value)))


def test_function_on_another_mesh_rejected():
    # A state on the mesh's child would be read at the wrong vertices, one
    # on its parent out of bounds: both are rejected by name.
    mesh = pentagon(3)
    child = refine_uniform(mesh)
    d, quad = PowerLaw(), seven_point_rule()
    for assembled, wrong in ((mesh, child), (child, mesh)):
        own, foreign = FemFunction.zeros(assembled), FemFunction.zeros(wrong)
        message = re.escape(f"lives on mesh {wrong!r}")
        with pytest.raises(ValueError, match=message):
            assemble_nonlinear_residual(assembled, d, foreign, quad)
        for u, v in ((foreign, own), (own, foreign)):
            with pytest.raises(ValueError, match=message):
                assemble_slope_matrix(assembled, d, u, v, 1e-6, quad)


# A block size that splits pentagon level 4 (1280 triangles) into 12 full
# blocks and a tail of 92.
SMALL_BLOCK = 99


def smooth_value(x, y):
    return np.sin(3 * x) * np.cos(y)


def smooth_grad(x, y):
    return 3 * np.cos(3 * x) * np.cos(y), -np.sin(3 * x) * np.sin(y)


def block_outputs(mesh):
    """Assembled arrays, closed-form errors and Ritz projection of one mesh."""
    d = PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)
    u = interpolate(mesh, lambda x, y: np.sin(3 * x) - 1.0 + 0.01 * y)
    v = interpolate(mesh, lambda x, y: -1.0 + 0.3 * x * y)
    quad = seven_point_rule()
    return {"stiffness": assemble_stiffness(mesh).data,
            "load": assemble_load(mesh, smooth_value, quad),
            "residual": assemble_nonlinear_residual(mesh, d, u, quad),
            "slope": slope_matrix(mesh, d, u, v, 1e-6, quad).data,
            "linf": error_linf(u, smooth_value),
            "ritz": ritz_project(mesh, smooth_grad).coeffs,
            "l2": error_l2(u, smooth_value),
            "h1": error_h1semi(u, smooth_grad)}


@pytest.mark.parametrize("make", ["pentagon4", "shuffled"])
def test_blocks_bitwise_equal_to_one_block(monkeypatch, make):
    # Each pass gets a fresh copy of the mesh, so that both build its
    # stiffness, and the projection's coarse ones, instead of reading the
    # first pass's kept values.
    def fresh():
        mesh = pentagon(4)
        return shuffled(mesh) if make == "shuffled" else mesh

    nt = fresh().num_triangles
    assert nt % SMALL_BLOCK > 0
    monkeypatch.setattr(assembly, "BLOCK", nt)
    whole = block_outputs(fresh())
    monkeypatch.setattr(assembly, "BLOCK", SMALL_BLOCK)
    blocked = block_outputs(fresh())
    for name, ref in whole.items():
        if name in ("l2", "h1"):
            # Their sums are grouped per block, which moves the last bits.
            np.testing.assert_allclose(blocked[name], ref, rtol=1e-14, atol=0.0)
        else:
            np.testing.assert_array_equal(blocked[name], ref)


@pytest.mark.parametrize("what", ["right-hand side", "nonlinearity", "slope weight"])
def test_nonfinite_in_later_block_reported_at_its_point(monkeypatch, what):
    monkeypatch.setattr(assembly, "BLOCK", SMALL_BLOCK)
    mesh = pentagon(4)
    quad = seven_point_rule()
    u = interpolate(mesh, lambda x, y: x - y)
    v = interpolate(mesh, lambda x, y: x - y - 0.5)
    # The slope weight evaluates d twice per block, at u and then at v.
    per_block = 2 if what == "slope weight" else 1
    call = 3 * per_block  # the last evaluation of block 2
    k = 5 * SMALL_BLOCK + 5  # point 5 of the block's triangle 5
    if what == "right-hand side":
        f, seen = poisoned(np.nan, call, k, base=lambda x, y: np.ones_like(x))
        run = lambda: assemble_load(mesh, f, quad)
    else:
        d, seen = poisoned(np.nan, call, k)
        run = {"nonlinearity": lambda: assemble_nonlinear_residual(mesh, d, u, quad),
               "slope weight": lambda: assemble_slope_matrix(mesh, d, u, v, 1e-6,
                                                             quad)}[what]
    with pytest.raises(ValueError, match=f"{what} returned non-finite") as info:
        run()
    point = reported_point(str(info.value))
    np.testing.assert_allclose(point, seen["point"], rtol=1e-5)
    triangle, _ = locate_point(mesh, point)
    assert triangle // SMALL_BLOCK == 2


@pytest.mark.parametrize("quad", shipped_rules(), ids=lambda quad: quad.name)
def test_one_evaluation_per_block(monkeypatch, quad):
    # Each kernel evaluates its callable once per block (the slope weight
    # twice, at u and at v) on flat arrays of all the block's points.
    monkeypatch.setattr(assembly, "BLOCK", SMALL_BLOCK)
    mesh = pentagon(4)
    nt = mesh.num_triangles
    sizes = []

    def recorded(base):
        def evaluate(x, y, *u):
            assert all(a.ndim == 1 and a.shape == x.shape for a in (y, *u))
            sizes.append(x.size)
            return base(x, y, *u)
        return evaluate

    u = interpolate(mesh, lambda x, y: x - y)
    v = interpolate(mesh, lambda x, y: x - y - 0.5)
    kernels = [(lambda: assemble_load(mesh, recorded(smooth_value), quad), 1),
               (lambda: assemble_nonlinear_residual(mesh, recorded(PowerLaw()), u, quad), 1),
               (lambda: assemble_slope_matrix(mesh, recorded(PowerLaw()), u, v, 1e-6, quad), 2)]
    blocks = [min(SMALL_BLOCK, nt - start) for start in range(0, nt, SMALL_BLOCK)]
    for run, per_block in kernels:
        sizes.clear()
        run()
        assert sizes == [len(quad) * n for n in blocks for _ in range(per_block)]
        assert sum(sizes) == per_block * len(quad) * nt


def per_point_reference(mesh, f, d, u, v, floor, quad):
    """Load, reaction residual and slope rows by one loop over the rule's points."""
    p = mesh.vertices[mesh.triangles]
    areas = mesh.signed_areas()
    uloc = u.coeffs[mesh.triangles]
    vloc = v.coeffs[mesh.triangles]
    load = np.zeros((mesh.num_triangles, 3))
    residual = np.zeros_like(load)
    slope = np.zeros((6, mesh.num_triangles))
    for bary, w in zip(quad.points, quad.weights):
        x, y = np.einsum("j,kjd->dk", bary, p)
        uq = uloc @ bary
        vq = vloc @ bary
        load += np.outer(w * areas * np.broadcast_to(f(x, y), x.shape), bary)
        residual += np.outer(w * areas * d(x, y, uq), bary)
        e = uq - vq
        b = np.sign(e) * (d(x, y, uq) - d(x, y, vq)) / np.maximum(np.abs(e), floor)
        for row, (a, c) in zip(slope, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)]):
            row += w * areas * np.maximum(b, 0.0) * bary[a] * bary[c]
    return scattered(mesh, load), scattered(mesh, residual), slope


def scattered(mesh, rows):
    """(nt, 3) element vectors summed per vertex by one bincount."""
    return np.bincount(mesh.triangles.ravel(), weights=rows.ravel(),
                       minlength=mesh.num_vertices)


def hat_rows(mesh, g, coeffs, quad):
    """The (nt, 3) element rows of the integrals of g against the hats, as one array.

    Each block's rows are made by the kernels' arithmetic: one product of
    g's samples with the rule's table of weight times hat values, scaled
    by the areas.
    """
    table = quad.weights * quad.points.T
    rows = np.empty((mesh.num_triangles, 3))
    for block, _, areas, x, y, values in assembly.element_samples(mesh, quad.points, coeffs):
        gq = np.broadcast_to(np.asarray(g(x, y, *values), dtype=float), x.shape)
        rows[block] = gq.reshape(len(quad), -1).T @ table.T
        rows[block] *= areas[:, None]
    return rows


@pytest.mark.parametrize("quad", shipped_rules(), ids=lambda quad: quad.name)
@pytest.mark.parametrize("make", ["pentagon4", "square2"])
def test_hat_integrals_equal_one_bincount_of_their_rows(monkeypatch, square2, make, quad):
    # The load and the residual add each block's rows into the vector as
    # they are made; that is the sum of one bincount over the rows of all
    # blocks, bit for bit, signed zeros included.
    monkeypatch.setattr(assembly, "BLOCK", SMALL_BLOCK)
    mesh = pentagon(4) if make == "pentagon4" else square2
    d = PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)
    u = interpolate(mesh, lambda x, y: np.sin(3 * x) - 1.0 + 0.01 * y)
    pairs = [(assemble_load(mesh, smooth_value, quad), hat_rows(mesh, smooth_value, (), quad)),
             (assemble_nonlinear_residual(mesh, d, u, quad), hat_rows(mesh, d, (u.coeffs,), quad))]
    for got, rows in pairs:
        np.testing.assert_array_equal(got.view(np.uint64), scattered(mesh, rows).view(np.uint64))


@pytest.mark.parametrize("quad", shipped_rules(), ids=lambda quad: quad.name)
@pytest.mark.parametrize("make", ["pentagon4", "square2"])
def test_tabulated_kernels_match_per_point_loop(square2, make, quad):
    mesh = pentagon(4) if make == "pentagon4" else square2
    d = cut(PowerLaw(scale=50.0, exponent=1 / 3, shift=lambda x, y: -1.0 + 0.1 * x,
                     weight=lambda x, y: 1.0 + x * x), 1.5)
    # The states of a Newton step's slope matrix, u_h + tau and u_h - tau,
    # with u_h crossing both the kink and the cut.
    tau = 1e-6
    w = interpolate(mesh, lambda x, y: 2.0 * np.sin(3 * x) - 1.0 + 0.01 * y)
    u = FemFunction(mesh, w.coeffs + tau)
    v = FemFunction(mesh, w.coeffs - tau)
    rhs = lambda x, y: 2.5
    got = (assemble_load(mesh, rhs, quad), assemble_nonlinear_residual(mesh, d, u, quad),
           assemble_slope_matrix(mesh, d, u, v, tau, quad))
    ref = per_point_reference(mesh, rhs, d, u, v, tau, quad)
    # Measured gaps, relative to the largest entry: at most 4e-16 for the
    # load, 6e-16 for the residual and 1.3e-10 for the slope. The kernels
    # interpolate u_h by another BLAS product than the loop, which moves
    # u and v by an ulp of |u| <= 3; the difference quotient over e = 2 tau
    # amplifies that to about eps |u| / tau = 7e-10 relative.
    for name, a, b, rtol in zip(("load", "residual", "slope"), got, ref,
                                (1e-14, 1e-14, 2e-9)):
        assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b)), name


def unit_square(level):
    mesh = triangulate_convex_polygon(preset_polygon("unit-square"))
    for _ in range(level):
        mesh = refine_uniform(mesh)
    return mesh


class Dropping(Nonlinearity):
    """A position-free term that falls in u above 1/4, so slope weights go negative."""

    reads_position = False

    def __call__(self, x, y, u):
        return np.where(u > 0.25, -u, u)


def test_position_free_terms_skip_the_coordinates(monkeypatch):
    # A term that does not read position is sampled with no quadrature
    # points formed: a cold kink solve runs, bitwise as with coordinates,
    # while forming them raises.
    seen = []

    def shift(x, y):
        seen.append((x, y))
        return -1.0

    kink = PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)
    shifted = PowerLaw(scale=50.0, exponent=1 / 3, shift=shift)
    assert not kink.reads_position and shifted.reads_position
    assert not cut(kink, 2.0).reads_position and cut(shifted, 2.0).reads_position
    assert Nonlinearity().reads_position and cut(lambda x, y, u: u, 2.0).reads_position

    def one(x, y):
        return 1.0

    one.reads_position = False
    reference, reference_stats = solve_semilinear(pentagon(4), kink,
                                                  lambda x, y: np.ones_like(x))
    mesh = pentagon(4)
    u = interpolate(mesh, lambda x, y: x - y)
    v = interpolate(mesh, lambda x, y: x - y - 0.5)
    quad = seven_point_rule()
    assemble_nonlinear_residual(mesh, shifted, u, quad)
    assemble_slope_matrix(mesh, shifted, u, v, 1e-6, quad)
    assert seen and all(isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
                        for x, y in seen)

    def unformed(corners, points):
        raise AssertionError("quadrature points formed")

    monkeypatch.setattr(assembly, "quadrature_points", unformed)
    solution, stats = solve_semilinear(pentagon(4), kink, one)
    np.testing.assert_array_equal(solution.coeffs.view(np.uint64),
                                  reference.coeffs.view(np.uint64))
    assert stats.residual_history == reference_stats.residual_history

    class Spy(Nonlinearity):
        reads_position = False

        def __call__(self, x, y, u):
            seen.append((x, y))
            return kink(x, y, u)

    seen.clear()
    assemble_nonlinear_residual(mesh, Spy(), u, quad)
    assemble_slope_matrix(mesh, cut(Spy(), 2.0), u, v, 1e-6, quad)
    assert seen and all(x is None and y is None for x, y in seen)
    with pytest.raises(AssertionError, match="quadrature points formed"):
        assemble_nonlinear_residual(mesh, shifted, u, quad)


def failure(run):
    """The message of the ValueError that run raises."""
    with pytest.raises(ValueError) as info:
        run()
    return str(info.value)


@pytest.mark.parametrize("quad", shipped_rules(), ids=lambda quad: quad.name)
@pytest.mark.parametrize("make", ["pentagon4", "square3"])
def test_position_free_path_equals_coordinate_path(monkeypatch, make, quad):
    # The same term, once declared position-free and once as a plain
    # function, which is sampled with coordinates: equal bits, and errors
    # that name the same point.
    monkeypatch.setattr(assembly, "BLOCK", SMALL_BLOCK)
    mesh = pentagon(4) if make == "pentagon4" else unit_square(3)
    d = PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)
    u = interpolate(mesh, lambda x, y: np.sin(3 * x) - 1.0 + 0.01 * y)
    v = interpolate(mesh, lambda x, y: -1.0 + 0.3 * x * y)
    # Infinite reactions at the points next to a vertex of block 2's triangle 5.
    coeffs = np.zeros(mesh.num_vertices)
    coeffs[mesh.triangles[2 * SMALL_BLOCK + 5, 0]] = 1e300
    huge = FemFunction(mesh, coeffs)
    drop_u = interpolate(mesh, lambda x, y: x - y)
    drop_v = interpolate(mesh, lambda x, y: x - y - 0.5)
    dropping = Dropping()
    for term in (d, OVERFLOWING, dropping):
        assert not term.reads_position
    runs = {
        "residual": lambda g: assemble_nonlinear_residual(mesh, g, u, quad),
        "slope": lambda g: assemble_slope_matrix(mesh, g, u, v, 1e-6, quad),
    }
    for name, run in runs.items():
        np.testing.assert_array_equal(run(d).view(np.uint64),
                                      run(lambda x, y, w: d(x, y, w)).view(np.uint64),
                                      err_msg=name)
    errors = {
        "nonlinearity": lambda g: assemble_nonlinear_residual(mesh, g, huge, quad),
        "slope weight": lambda g: assemble_slope_matrix(
            mesh, g, huge, FemFunction.zeros(mesh), 1e-6, quad),
    }
    for what, run in errors.items():
        message = failure(lambda: run(OVERFLOWING))
        assert message.startswith(f"{what} returned non-finite value at point")
        assert failure(lambda: run(lambda x, y, w: OVERFLOWING(x, y, w))) == message
        locate_point(mesh, reported_point(message))
    message = failure(lambda: assemble_slope_matrix(mesh, dropping, drop_u, drop_v, 1e-6, quad))
    assert "not monotone" in message
    assert failure(lambda: assemble_slope_matrix(mesh, lambda x, y, w: dropping(x, y, w),
                                                 drop_u, drop_v, 1e-6, quad)) == message
    locate_point(mesh, reported_point(message))


# Assembles load, residual and slope rows at pentagon level 5 with the
# reaction's default rule and the 7-point rule, and saves them.
THREADS_SCRIPT = """
import sys
import numpy as np
from semifem.assembly import assemble_load, assemble_nonlinear_residual, assemble_slope_matrix
from semifem.femfunction import interpolate
from semifem.mesh import preset_polygon, refine_uniform, triangulate_convex_polygon
from semifem.nonlinearity import PowerLaw
from semifem.quadrature import interior_three_point_rule, seven_point_rule

mesh = triangulate_convex_polygon(preset_polygon("pentagon"))
for _ in range(5):
    mesh = refine_uniform(mesh)
d = PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)
u = interpolate(mesh, lambda x, y: np.sin(3 * x) - 1.0 + 0.01 * y)
v = interpolate(mesh, lambda x, y: -1.0 + 0.3 * x * y)
saved = {}
for quad in (interior_three_point_rule(), seven_point_rule()):
    saved[f"load {quad.name}"] = assemble_load(mesh, lambda x, y: np.sin(3 * x) * np.cos(y), quad)
    saved[f"residual {quad.name}"] = assemble_nonlinear_residual(mesh, d, u, quad)
    saved[f"slope {quad.name}"] = assemble_slope_matrix(mesh, d, u, v, 1e-6, quad)
np.savez(sys.argv[1], **saved)
"""


def test_kernels_bitwise_equal_at_one_and_two_blas_threads(tmp_path):
    # The kernels contract with BLAS products; the study CSVs rely on their
    # results not depending on the BLAS thread count.
    outputs = []
    for threads in ("1", "2"):
        path = tmp_path / f"threads{threads}.npz"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", THREADS_SCRIPT, str(path)], env=env,
                       check=True, timeout=300)
        with np.load(path) as saved:
            outputs.append(dict(saved))
    one, two = outputs
    assert len(one) == 6 and one.keys() == two.keys()
    for name in one:
        np.testing.assert_array_equal(two[name], one[name], err_msg=name)


def test_negative_slope_weight_in_tail_block_rejected(monkeypatch):
    monkeypatch.setattr(assembly, "BLOCK", SMALL_BLOCK)
    mesh = pentagon(4)
    # d decreases only near the centroid of the last triangle, so the only
    # negative weight is at that quadrature point of the tail block.
    centroid = mesh.vertices[mesh.triangles[-1]].mean(axis=0)
    d = lambda x, y, u: np.where(np.hypot(x - centroid[0], y - centroid[1]) < 1e-3,
                                 -u, u)
    up = interpolate(mesh, lambda x, y: np.full_like(x, 1.0))
    down = interpolate(mesh, lambda x, y: np.full_like(x, 0.0))
    with pytest.raises(ValueError, match="not monotone") as info:
        assemble_slope_matrix(mesh, d, up, down, 1e-6, seven_point_rule())
    np.testing.assert_allclose(reported_point(str(info.value)), centroid,
                               rtol=1e-5, atol=1e-6)


def test_peak_allocation_per_triangle():
    # Traced peak bytes per triangle at pentagon level 7 (81 920 triangles,
    # twenty blocks), prolongations and states built beforehand. The
    # stiffness and slope matrices build the whole-mesh pattern, which no
    # mesh keeps, after their values: 83 and 131 B (76 and 124 B when edge
    # slots placed its entries), against 65 and 93 B when a kept pattern
    # was built beforehand, and 95 B for the stiffness with its pattern
    # built before its values. One pass over all triangles at
    # once peaked at 144/156/188/248 B (stiffness/load/residual/slope,
    # pattern built beforehand) and 120/208/120/276 B (L2/H1/max errors
    # against a callable truth, Ritz projection); the blocked walk measures
    # 83/26/33/131 B and 28/35/42/108 B, the rest being the outputs, the
    # sums and, for the projection, its solve (130 B
    # when it rebuilt its chain's stiffness values, which the warm-up now
    # leaves on the meshes; 125 B before it checked its field's samples
    # finite). The stiffness's first build keeps vertex and
    # edge sums (93 B when it kept the CSR data of their scatter). The load,
    # the residual and the Ritz load add each block's element rows into
    # their vector, so only the output vector is of the mesh's size: 63/66/
    # 128 B when they wrote (nt, 3) rows for one bincount, 87 B for the
    # residual when that bincount read a (3, nt) copy. The errors and
    # the Ritz load evaluate their truth on all points of a block at once
    # (16/19/17/121 B one point at a time); the walk gathers each block's
    # corners, not a copy of all vertices (about 6 B more for the errors
    # with that copy). The load, residual and slope kernels hold q times a
    # block's length per temporary, evaluating all quadrature points at
    # once; with blocks of 8192 triangles they measured 98/98/128 B. The
    # load gathers no nodal values (91 B when it interpolated zeros, one
    # point at a time), and the scatter reads its index columns in place (124 B for stiffness
    # and slope when it flattened them for one bincount). The V-cycle of a
    # steep Jacobian, from element rows the caller keeps, peaks at 71 B in
    # the Gershgorin sums of its fine level, while the parent's rows,
    # coarsened before the fine ones are summed, are alive (62 B, in the
    # build of its second level, when each level was coarsened after its
    # fine block was built; 67 B when the Gershgorin sums copied all of the
    # operator's data in absolute value at once rather than one block of
    # rows at a time). Built from rows that only the cycle holds, as a
    # Newton step builds it, with the solver's default rule, the slope rows
    # and the cycle peak at 77 B in the fine level's vertex and edge sums,
    # with the fine and the parent's rows alive (110 B when the caller kept
    # the rows alive through the build). The H1 error of a parent-mesh
    # function against a nested FemFunction, with the kept stiffness, peaks
    # at 27 B while its squares and edge products are alive and the edge
    # ends are gathered one chunk at a time (44 B when the ends of all edges
    # were gathered into one (ne, 2) array). The first interior pattern of
    # a fresh mesh, the counting sort of `mesh._sorted_pattern`, peaks at
    # 66 B with its kept arrays (67 B when edge slots placed its entries, 84 B
    # while its caller held the selected edges and their value indices
    # through the sort). The first stiffness sums peak at 48.5 B, keeping
    # the diagonal rows and adding each block's edge rows as they are made
    # (65 B when all six rows were made first). A reaction term that does
    # not read position, as here, is sampled with no corners, x or y: the
    # residual peaks at 22 B (33 B with them) and the slope matrix at
    # 131 B, as before, its peak being in the pattern's build. The walk
    # drops each block's gathered corners before it yields their
    # contiguous copy: the load peaks at 24 B, the L2/H1/max errors at
    # 26/33/40 B (26.5, 28/35/42 B and 49.7 B for the stiffness sums when
    # the gather lived through the yield).
    mesh = pentagon(7)
    ritz_project(mesh, smooth_grad)
    # The warm-up keeps the mesh's stiffness and interior pattern; copies
    # measure first builds.
    copy, patterned, summed = (TriMesh(mesh.vertices, mesh.triangles) for _ in range(3))
    d = PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)
    u = interpolate(mesh, lambda x, y: np.sin(3 * x) - 1.0 + 0.01 * y)
    v = interpolate(mesh, lambda x, y: -1.0 + 0.3 * x * y)
    quad = seven_point_rule()
    steep = steep_slope_rows(mesh)
    coarse = interpolate(mesh.parent, lambda x, y: np.sin(3 * x) - 1.0)
    assemblers = {
        "stiffness": lambda: assemble_stiffness(copy),
        "interior pattern": patterned.interior_pattern,
        "stiffness sums": lambda: assembly.stiffness_sums(summed),
        "load": lambda: assemble_load(mesh, lambda x, y: np.ones_like(x), quad),
        "residual": lambda: assemble_nonlinear_residual(mesh, d, u, quad),
        "slope": lambda: slope_matrix(mesh, d, u, v, 1e-6, quad),
        "l2": lambda: error_l2(u, smooth_value),
        "h1": lambda: error_h1semi(u, smooth_grad),
        "linf": lambda: error_linf(u, smooth_value),
        "h1 nested": lambda: error_h1semi(coarse, u),
        "ritz": lambda: ritz_project(mesh, smooth_grad),
        "vcycle": lambda: VCycle(mesh, lambda: steep),
        "slope rows + cycle build": lambda: VCycle(mesh, lambda: assemble_slope_matrix(
            mesh, d, u, v, 1e-6, rule_of_degree(SolverConfig().quad_degree))),
    }
    bounds = {"stiffness": 85, "interior pattern": 72, "stiffness sums": 55, "load": 30,
              "residual": 26, "slope": 150, "l2": 48, "h1": 56, "linf": 48, "h1 nested": 32,
              "ritz": 200, "vcycle": 75, "slope rows + cycle build": 85}
    peaks = {}
    for name, assemble in assemblers.items():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assemble()
            peaks[name] = (tracemalloc.get_traced_memory()[1] - before) / mesh.num_triangles
        finally:
            tracemalloc.stop()
    over = [name for name, bound in bounds.items() if peaks[name] > bound]
    assert not over, peaks
