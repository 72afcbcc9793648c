import numpy as np
import pytest

from semifem.mesh import (MeshError, Polygon, TriMesh, locate_point, mesh_size,
                          min_angle, preset_polygon, read_mesh, refine_uniform,
                          triangulate_convex_polygon, write_mesh)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
PENTAGON = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.5, 1.0), (0.0, 0.5)]


def two_triangle_square():
    return TriMesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]])


def random_convex_polygon(rng, n):
    # Strictly convex by construction: sorted angles on an ellipse.
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
    while np.min(np.diff(angles)) < 0.1:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n))
    rx, ry = rng.uniform(0.5, 2.0, size=2)
    return Polygon(np.column_stack([rx * np.cos(angles), ry * np.sin(angles)]))


class TestPolygon:
    def test_rejects_too_few_vertices(self):
        with pytest.raises(MeshError):
            Polygon([(0, 0), (1, 0)])

    def test_rejects_concave(self):
        with pytest.raises(MeshError, match="vertex 2"):
            Polygon([(0, 0), (2, 0), (1, 0.1), (2, 2), (0, 2)])

    def test_rejects_collinear(self):
        with pytest.raises(MeshError):
            Polygon([(0, 0), (1, 0), (2, 0), (1, 1)])

    def test_rejects_repeated_vertex(self):
        with pytest.raises(MeshError, match="coincide"):
            Polygon([(0, 0), (1, 0), (1, 1), (0, 0.0)])

    def test_rejects_clockwise(self):
        with pytest.raises(MeshError):
            Polygon(list(reversed(UNIT_SQUARE)))

    def test_square_area_and_centroid(self):
        poly = Polygon(UNIT_SQUARE)
        assert poly.area() == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(poly.centroid(), [0.5, 0.5], atol=1e-15)

    def test_pentagon_interior_angles(self):
        # Oracle: angles from dot products between incident edge vectors.
        poly = Polygon(PENTAGON)
        v = np.asarray(PENTAGON)
        expected = []
        for i in range(5):
            a = v[i - 1] - v[i]
            b = v[(i + 1) % 5] - v[i]
            expected.append(np.arccos(a @ b / (np.linalg.norm(a) * np.linalg.norm(b))))
        np.testing.assert_allclose(poly.interior_angles(), expected, atol=1e-14)
        angles = poly.interior_angles()
        assert angles[3] == pytest.approx(3 * np.pi / 4, abs=1e-14)
        assert angles[4] == pytest.approx(3 * np.pi / 4, abs=1e-14)
        assert np.max(angles) == pytest.approx(3 * np.pi / 4, abs=1e-14)


class TestTriangulate:
    def test_unit_square_fan(self):
        mesh = triangulate_convex_polygon(preset_polygon("unit-square"))
        assert mesh.num_vertices == 5
        assert mesh.num_triangles == 4
        np.testing.assert_allclose(mesh.vertices[4], [0.5, 0.5], atol=1e-15)
        assert mesh.level == 0 and mesh.parent is None

    def test_unit_triangle_fan(self):
        mesh = triangulate_convex_polygon(preset_polygon("unit-triangle"))
        assert mesh.num_vertices == 4
        assert mesh.num_triangles == 3

    def test_pentagon_fan(self):
        mesh = triangulate_convex_polygon(Polygon(PENTAGON))
        assert mesh.num_vertices == 6
        assert mesh.num_triangles == 5

    def test_boundary_flags(self):
        mesh = triangulate_convex_polygon(preset_polygon("unit-square"))
        np.testing.assert_array_equal(mesh.boundary_vertex,
                                      [True, True, True, True, False])
        np.testing.assert_array_equal(mesh.interior_vertices, [4])
        assert not mesh.interior_vertices.flags.writeable

    def test_rejects_concave_input(self):
        with pytest.raises(MeshError):
            triangulate_convex_polygon([(0, 0), (2, 0), (1, 0.1), (2, 2), (0, 2)])


class TestRefine:
    def test_two_triangle_square_counts(self):
        mesh = two_triangle_square()
        fine = refine_uniform(mesh)
        assert fine.num_vertices == 9  # 4 vertices + 5 edges
        assert fine.num_triangles == 8
        assert fine.level == 1 and fine.parent is mesh

    def test_prolongation_rows(self):
        mesh = two_triangle_square()
        fine = refine_uniform(mesh)
        assert mesh.prolongation() is None
        p = fine.prolongation()
        assert p is fine.prolongation()  # built once, kept on the mesh
        dense = p.toarray()
        np.testing.assert_array_equal(dense[:4], np.eye(4))
        for row, (a, b) in zip(dense[4:], mesh.edges()):
            expected = np.zeros(4)
            expected[[a, b]] = 0.5
            np.testing.assert_array_equal(row, expected)
        # Interior restriction: the one interior child vertex is the
        # midpoint of the diagonal, and the parent has no interior vertex.
        assert fine.interior_prolongation().shape == (1, 0)

    def test_prolongation_rejects_foreign_parent(self):
        mesh = two_triangle_square()
        child = TriMesh(mesh.vertices, mesh.triangles, level=1, parent=mesh)
        with pytest.raises(MeshError, match="not a uniform refinement"):
            child.prolongation()

    def test_mesh_size_halves(self):
        mesh = triangulate_convex_polygon(Polygon(PENTAGON))
        fine = refine_uniform(mesh)
        assert mesh_size(fine) == pytest.approx(mesh_size(mesh) / 2, rel=1e-14)

    def test_nesting_keeps_parent_vertices(self):
        mesh = triangulate_convex_polygon(Polygon(PENTAGON))
        fine = refine_uniform(refine_uniform(mesh))
        np.testing.assert_array_equal(
            fine.vertices[:mesh.num_vertices], mesh.vertices)

    def test_angles_preserved(self):
        mesh = triangulate_convex_polygon(Polygon(PENTAGON))
        fine = mesh
        for _ in range(3):
            fine = refine_uniform(fine)
        assert min_angle(fine) == pytest.approx(min_angle(mesh), abs=1e-12)

    def test_area_preserved_each_level(self):
        poly = Polygon(PENTAGON)
        mesh = triangulate_convex_polygon(poly)
        for _ in range(4):
            assert np.sum(mesh.signed_areas()) == pytest.approx(
                poly.area(), rel=1e-12)
            mesh = refine_uniform(mesh)

    def test_conformity_of_random_meshes(self):
        rng = np.random.default_rng(7)
        for n in (3, 5, 8):
            mesh = triangulate_convex_polygon(random_convex_polygon(rng, n))
            # The constructor itself enforces edge counts in {1, 2}; check
            # the flag derivation against a direct edge enumeration.
            refined = refine_uniform(mesh)
            half = np.vstack([refined.triangles[:, [0, 1]],
                              refined.triangles[:, [1, 2]],
                              refined.triangles[:, [2, 0]]])
            half.sort(axis=1)
            edges, counts = np.unique(half, axis=0, return_counts=True)
            assert set(counts.tolist()) <= {1, 2}
            on_boundary = np.zeros(refined.num_vertices, dtype=bool)
            on_boundary[edges[counts == 1].ravel()] = True
            np.testing.assert_array_equal(refined.boundary_vertex, on_boundary)


class TestMeshSize:
    def test_single_right_triangle(self):
        mesh = TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        assert mesh_size(mesh) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_unit_square_fan(self):
        # Oracle: enumerate all edges by hand; boundary edges have length 1,
        # fan edges sqrt(2)/2.
        mesh = triangulate_convex_polygon(preset_polygon("unit-square"))
        lengths = []
        for tri in mesh.triangles:
            for a, b in ((0, 1), (1, 2), (2, 0)):
                lengths.append(np.linalg.norm(
                    mesh.vertices[tri[a]] - mesh.vertices[tri[b]]))
        assert mesh_size(mesh) == pytest.approx(max(lengths), rel=1e-15)
        assert mesh_size(mesh) == pytest.approx(1.0, abs=1e-15)

    def test_refined_fan(self):
        mesh = triangulate_convex_polygon(preset_polygon("unit-square"))
        assert mesh_size(refine_uniform(mesh)) == pytest.approx(0.5, abs=1e-15)


class TestLocate:
    def test_triangle_centroid(self):
        mesh = refine_uniform(two_triangle_square())
        for k in range(mesh.num_triangles):
            c = mesh.vertices[mesh.triangles[k]].mean(axis=0)
            found, bary = locate_point(mesh, c)
            assert found == k
            np.testing.assert_allclose(bary, [1 / 3] * 3, atol=1e-12)

    def test_vertex(self):
        mesh = two_triangle_square()
        k, bary = locate_point(mesh, (0.0, 1.0))
        assert np.isclose(bary.max(), 1.0, atol=1e-12)
        local = np.argmax(bary)
        assert mesh.triangles[k][local] == 3

    def test_edge_midpoint(self):
        mesh = TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        _, bary = locate_point(mesh, (0.5, 0.0))
        np.testing.assert_allclose(sorted(bary), [0.0, 0.5, 0.5], atol=1e-12)

    def test_bary_sums_to_one(self):
        mesh = refine_uniform(triangulate_convex_polygon(Polygon(PENTAGON)))
        rng = np.random.default_rng(3)
        for _ in range(20):
            lam = rng.dirichlet([1, 1, 1])
            k = rng.integers(mesh.num_triangles)
            p = lam @ mesh.vertices[mesh.triangles[k]]
            _, bary = locate_point(mesh, p)
            assert abs(bary.sum() - 1.0) <= 1e-12
            assert bary.min() >= -1e-12 and bary.max() <= 1 + 1e-12

    def test_outside_rejected(self):
        mesh = two_triangle_square()
        with pytest.raises(MeshError, match="outside"):
            locate_point(mesh, (1.5, 1.5))


class TestMeshIO:
    def test_round_trip_bitwise(self, tmp_path):
        mesh = refine_uniform(triangulate_convex_polygon(Polygon(PENTAGON)))
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        back = read_mesh(path)
        np.testing.assert_array_equal(back.vertices, mesh.vertices)
        np.testing.assert_array_equal(back.triangles, mesh.triangles)
        np.testing.assert_array_equal(back.boundary_vertex, mesh.boundary_vertex)

    def test_rejects_tampered_flags(self, tmp_path):
        mesh = triangulate_convex_polygon(preset_polygon("unit-square"))
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        lines = path.read_text().splitlines()
        lines[5] = lines[5][:-1] + "1"  # mark the interior centroid as boundary
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError, match="boundary flag"):
            read_mesh(path)


class TestTriMeshValidation:
    def test_rejects_inverted_triangle(self):
        with pytest.raises(MeshError, match="area"):
            TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])

    def test_rejects_nonconforming(self):
        # Edge (0, 1) shared by three triangles.
        with pytest.raises(MeshError, match="shared"):
            TriMesh([[0, 0], [1, 0], [0.5, 1], [0.5, -1], [0.5, 2]],
                    [[0, 1, 2], [0, 3, 1], [0, 1, 4]])

    def test_unknown_preset(self):
        with pytest.raises(MeshError, match="unknown domain preset"):
            preset_polygon("lake")
