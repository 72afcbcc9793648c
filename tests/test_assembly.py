import gc
import re
import weakref

import numpy as np
import pytest
from scipy import sparse

from semifem.assembly import (apply_dirichlet, assemble_load, assemble_mass,
                              assemble_nonlinear_residual, assemble_slope_matrix,
                              assemble_stiffness)
from semifem.femfunction import FemFunction, interpolate
from semifem.mesh import (TriMesh, locate_point, preset_polygon, read_mesh,
                          refine_uniform, triangulate_convex_polygon, write_mesh)
from semifem.nonlinearity import PowerLaw
from semifem.quadrature import edge_midpoint_rule, seven_point_rule

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
        slope = assemble_slope_matrix(square2, PowerLaw(), up, down, 1e-6,
                                      seven_point_rule())
        diff = (slope - assemble_mass(square2)).toarray()
        assert np.max(np.abs(diff)) <= 1e-13

    def test_equal_states_give_zero(self, square2):
        u = interpolate(square2, lambda x, y: x * y)
        slope = assemble_slope_matrix(square2, PowerLaw(exponent=0.5), u, u.copy(),
                                      1e-6, seven_point_rule())
        assert np.max(np.abs(slope.toarray())) == 0.0

    def test_kink_weight_value(self, square2):
        # Straddling the kink of 50 sgn(u+1)|u+1|^(1/3) by the floor tau
        # gives the constant weight 50 * tau^(-2/3) = 5e5 for tau = 1e-6.
        tau = 1e-6
        d = PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)
        up = interpolate(square2, lambda x, y: np.full_like(x, -1.0 + tau))
        down = interpolate(square2, lambda x, y: np.full_like(x, -1.0 - tau))
        slope = assemble_slope_matrix(square2, d, up, down, tau, seven_point_rule())
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
        slope = assemble_slope_matrix(square2, PowerLaw(), up, down, 1e-6,
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
        slope = assemble_slope_matrix(square2, d, up, down, tau,
                                      seven_point_rule()).toarray()
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
        slope = assemble_slope_matrix(square2, d, u, v, 1e-6,
                                      seven_point_rule()).toarray()
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
    slope = assemble_slope_matrix(mesh, d, u, v, tau, quad)
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
    indptr, indices, diagonal, off_diagonal = mesh.matrix_pattern()
    ref_indptr, ref_indices = unique_pattern(mesh)
    for array, ref in ((indptr, ref_indptr), (indices, ref_indices)):
        assert array.dtype == ref.dtype
        np.testing.assert_array_equal(array, ref)
    rows = np.repeat(np.arange(mesh.num_vertices), np.diff(indptr))
    vertices = np.arange(mesh.num_vertices)
    lo, hi = mesh.edges().T
    assert diagonal.dtype == off_diagonal.dtype == np.int32
    assert off_diagonal.shape == (2, lo.size)
    for position, row, col in ((diagonal, vertices, vertices),
                               (off_diagonal[0], lo, hi), (off_diagonal[1], hi, lo)):
        np.testing.assert_array_equal(rows[position], row)
        np.testing.assert_array_equal(indices[position], col)


class TestPatternCache:
    def test_built_once_and_shared(self, square2):
        first = assemble_stiffness(square2)
        pattern = square2.matrix_pattern()
        assert square2.matrix_pattern() is pattern
        indptr, indices, diagonal, off_diagonal = pattern
        assert diagonal.dtype == np.int32 and diagonal.shape == (square2.num_vertices,)
        assert off_diagonal.dtype == np.int32
        assert off_diagonal.shape == (2, square2.edges().shape[0])
        u = interpolate(square2, lambda x, y: x * y)
        for matrix in (first, assemble_mass(square2),
                       assemble_slope_matrix(square2, PowerLaw(), u, u.copy(), 1e-6,
                                             seven_point_rule())):
            # scipy may wrap the arrays in views; no copy is made.
            assert np.shares_memory(matrix.indptr, indptr)
            assert np.shares_memory(matrix.indices, indices)

    def test_read_only(self, square2):
        # Assemblers share the mesh's areas and pattern arrays.
        assert not square2.signed_areas().flags.writeable
        for array in square2.matrix_pattern():
            assert not array.flags.writeable
        matrix = assemble_mass(square2)
        with pytest.raises(ValueError):
            matrix.indices[0] = 1
        matrix.data[0] = 7.0  # the values are the caller's own
        assert assemble_mass(square2).data[0] != 7.0

    def test_not_built_without_assembly(self, square2):
        child = refine_uniform(square2)
        assert child._matrix_pattern is None
        assemble_stiffness(child)
        assert child._matrix_pattern is not None
        assert square2._matrix_pattern is None

    def test_freed_with_mesh(self):
        mesh = refine_uniform(triangulate_convex_polygon(preset_polygon("pentagon")))
        matrix = assemble_mass(mesh)
        refs = [weakref.ref(mesh)] + [weakref.ref(a) for a in mesh.matrix_pattern()]
        gc.disable()
        try:
            del mesh, matrix
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


def poisoned(value, call=3, k=5):
    """PowerLaw() that returns value at entry k of its call-th evaluation."""
    seen = {"calls": 0}

    def d(x, y, u):
        out = np.array(PowerLaw()(x, y, u), dtype=float)
        seen["calls"] += 1
        if seen["calls"] == call:
            out[k] = value
            seen["point"] = (x[k], y[k])
        return out

    return d, seen


def reported_point(message):
    x, y = re.search(r"at point \(([^,]+), ([^)]+)\)", message).groups()
    return float(x), float(y)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_nonfinite_nonlinearity_rejected(square2, value):
    d, seen = poisoned(value)
    u = interpolate(square2, lambda x, y: x - y)
    with pytest.raises(ValueError, match="nonlinearity") as info:
        assemble_nonlinear_residual(square2, d, u, seven_point_rule())
    point = reported_point(str(info.value))
    np.testing.assert_allclose(point, seen["point"], rtol=1e-5)
    locate_point(square2, point)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_nonfinite_slope_weight_rejected(square2, value):
    d, seen = poisoned(value)
    u = interpolate(square2, lambda x, y: x - y)
    v = interpolate(square2, lambda x, y: x - y - 0.5)
    with pytest.raises(ValueError, match="slope weight") as info:
        assemble_slope_matrix(square2, d, u, v, 1e-6, seven_point_rule())
    point = reported_point(str(info.value))
    np.testing.assert_allclose(point, seen["point"], rtol=1e-5)
    locate_point(square2, point)
