import re

import numpy as np
import pytest

from semifem.analysis import UNIT_SQUARE_SINE
from semifem.assembly import assemble_mass
from semifem.femfunction import (FemFunction, interpolate, prolongate,
                                 read_function, write_function)
from semifem.mesh import (MeshError, preset_polygon, refine_uniform,
                          triangulate_convex_polygon)
from test_mesh import nodal_prolongation


@pytest.fixture
def square():
    return triangulate_convex_polygon(preset_polygon("unit-square"))


def l2_norm(u):
    return np.sqrt(u.coeffs @ (assemble_mass(u.mesh) @ u.coeffs))


def test_coefficient_length_checked(square):
    with pytest.raises(ValueError):
        FemFunction(square, np.zeros(3))


def test_interpolate_affine_reproduced(square):
    mesh = refine_uniform(square)
    u = interpolate(mesh, lambda x, y: 2.0 + 3.0 * x - y)
    rng = np.random.default_rng(0)
    for _ in range(10):
        lam = rng.dirichlet([1, 1, 1])
        k = rng.integers(mesh.num_triangles)
        p = lam @ mesh.vertices[mesh.triangles[k]]
        exact = 2.0 + 3.0 * p[0] - p[1]
        assert u(p[0], p[1]) == pytest.approx(exact, abs=1e-13)


def test_interpolate_zero(square):
    u = interpolate(square, lambda x, y: 0.0 * x)
    assert not np.any(u.coeffs)


def test_interpolate_sine_center(square):
    u = interpolate(square, UNIT_SQUARE_SINE.value)
    assert u(0.5, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_interpolate_rejects_nonfinite(square):
    with pytest.raises(ValueError, match="vertex"):
        interpolate(square, lambda x, y: np.where(x > 0.9, np.inf, 0.0))


def test_prolongate_preserves_l2(square):
    mesh = refine_uniform(square)
    u = interpolate(mesh, lambda x, y: x * x - 0.3 * y + 1.0)
    fine = refine_uniform(refine_uniform(mesh))
    w = prolongate(u, fine)
    assert l2_norm(w) == pytest.approx(l2_norm(u), rel=1e-13)


def test_prolongate_zero(square):
    fine = refine_uniform(square)
    w = prolongate(FemFunction.zeros(square), fine)
    assert not np.any(w.coeffs)


def test_prolongate_hat(square):
    # Oracle: hat at coarse vertex v becomes 1 at v, 1/2 at midpoints of
    # incident coarse edges, 0 elsewhere.
    coarse = refine_uniform(square)
    v = int(np.flatnonzero(~coarse.boundary_vertex)[0])
    hat = np.zeros(coarse.num_vertices)
    hat[v] = 1.0
    fine = refine_uniform(coarse)
    w = prolongate(FemFunction(coarse, hat), fine)
    edges = coarse.edges()
    expected = np.zeros(fine.num_vertices)
    expected[v] = 1.0
    for i, (a, b) in enumerate(edges):
        if v in (a, b):
            expected[coarse.num_vertices + i] = 0.5
    np.testing.assert_array_equal(w.coeffs, expected)


def test_prolongate_equals_csr_products():
    # Two levels of prolongate equal two products with the nodal transfer
    # matrix bit for bit, also where coefficients are signed zeros.
    coarse = refine_uniform(triangulate_convex_polygon(preset_polygon("pentagon")))
    fine = refine_uniform(refine_uniform(coarse))
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(coarse.num_vertices)
    coeffs[rng.random(coeffs.size) < 0.3] = -0.0
    coeffs[rng.random(coeffs.size) < 0.1] = 0.0
    expected = nodal_prolongation(fine) @ (nodal_prolongation(fine.parent) @ coeffs)
    got = prolongate(FemFunction(coarse, coeffs), fine).coeffs
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_prolongate_same_mesh_identity(square):
    u = interpolate(square, lambda x, y: x + y)
    w = prolongate(u, square)
    np.testing.assert_array_equal(w.coeffs, u.coeffs)


def test_prolongate_rejects_unrelated_mesh(square):
    other = triangulate_convex_polygon(preset_polygon("unit-triangle"))
    with pytest.raises(MeshError, match="descendant"):
        prolongate(FemFunction.zeros(square), other)


def test_dirichlet_space_flag(square):
    u = interpolate(square, lambda x, y: x * (1 - x) * y * (1 - y))
    assert u.in_dirichlet_space()
    v = interpolate(square, lambda x, y: 1.0 + 0 * x)
    assert not v.in_dirichlet_space()


def test_function_io_round_trip(tmp_path, square):
    u = interpolate(square, lambda x, y: np.cos(x) * y)
    path = tmp_path / "u.txt"
    write_function(u, path)
    back = read_function(square, path)
    np.testing.assert_array_equal(back.coeffs, u.coeffs)


def test_function_io_wrong_mesh(tmp_path, square):
    u = interpolate(square, lambda x, y: x)
    path = tmp_path / "u.txt"
    write_function(u, path)
    with pytest.raises(ValueError, match="vertices"):
        read_function(refine_uniform(square), path)


@pytest.mark.parametrize("text", ["abc\n1.0\n", "2\n1.0\nx\n"])
def test_function_io_malformed_names_path(tmp_path, square, text):
    path = tmp_path / "u.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match="malformed function file") as info:
        read_function(square, path)
    assert str(path) in str(info.value)


def test_function_io_rejects_empty_file(tmp_path, square):
    path = tmp_path / "u.txt"
    path.write_text("\n \n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: empty function file")):
        read_function(square, path)


def test_function_io_rejects_wrong_line_count(tmp_path, square):
    u = interpolate(square, lambda x, y: x)
    path = tmp_path / "u.txt"
    write_function(u, path)
    path.write_text(path.read_text() + "0.5\n")
    nv = square.num_vertices
    message = re.escape(f"{path}: expected {1 + nv} lines, found {2 + nv}")
    with pytest.raises(ValueError, match=message):
        read_function(square, path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_function_io_rejects_non_finite_value(tmp_path, square, value):
    u = interpolate(square, lambda x, y: x)
    path = tmp_path / "u.txt"
    write_function(u, path)
    lines = path.read_text().splitlines()
    lines[3] = value  # vertex 2
    # A blank line before it: the error names the line of the file.
    path.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
    with pytest.raises(ValueError, match="value of vertex 2 is not finite") as info:
        read_function(square, path)
    assert f"{path}:5:" in str(info.value)
