import numpy as np
import pytest

from semifem import mesh as mesh_module
from semifem.mesh import (PRESET_POLYGONS, MeshError, Polygon, TriMesh, locate_point,
                          mesh_size, min_angle, preset_polygon, read_mesh, refine_uniform,
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


def relabelled(mesh, rng):
    """The same triangulation as a root mesh with relabelled vertices,
    reordered triangles and each triangle's corners rotated."""
    perm = rng.permutation(mesh.num_vertices)
    label = np.argsort(perm)
    corners = label[mesh.triangles[rng.permutation(mesh.num_triangles)]]
    turns = rng.integers(3, size=(mesh.num_triangles, 1))
    return TriMesh(mesh.vertices[perm],
                   np.take_along_axis(corners, (np.arange(3) + turns) % 3, axis=1))


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

    def test_rejects_non_finite_vertex(self):
        with pytest.raises(MeshError, match="vertex 1 has a non-finite coordinate"):
            Polygon([(0, 0), (np.inf, 0), (1, 1)])

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

    def test_interior_restriction_is_cached_transpose(self):
        mesh = two_triangle_square()
        assert mesh.interior_restriction() is None
        fine = refine_uniform(refine_uniform(mesh))
        r = fine.interior_restriction()
        assert r is fine.interior_restriction() and r.format == "csr"
        np.testing.assert_array_equal(r.toarray(), fine.interior_prolongation().toarray().T)

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

    def test_conformity_of_random_meshes(self, tmp_path):
        rng = np.random.default_rng(7)
        meshes = [refine_uniform(triangulate_convex_polygon(random_convex_polygon(rng, n)))
                  for n in (3, 5, 8)]
        meshes.append(triangulate_convex_polygon(Polygon(PENTAGON)))
        for _ in range(5):
            meshes.append(refine_uniform(meshes[-1]))
        meshes.append(relabelled(meshes[5], rng))  # pentagon level 2
        path = tmp_path / "mesh.txt"
        write_mesh(meshes[-1], path)
        meshes.append(read_mesh(path))
        for mesh in meshes:
            check_topology(mesh)


def check_topology(mesh):
    """Edges, triangle edge ids, boundary flags and children against a direct enumeration."""
    t = mesh.triangles
    nv, nt = mesh.num_vertices, mesh.num_triangles
    # half[k, j] is the sorted pair of local vertices j and j + 1 of triangle k.
    half = np.sort(np.stack([t, np.roll(t, -1, axis=1)], axis=2), axis=2)
    edges, counts = np.unique(half.reshape(-1, 2), axis=0, return_counts=True)
    # The constructor itself enforces edge counts in {1, 2}; check the
    # flag derivation against the enumeration.
    assert set(counts.tolist()) <= {1, 2}
    on_boundary = np.zeros(nv, dtype=bool)
    on_boundary[edges[counts == 1].ravel()] = True
    np.testing.assert_array_equal(mesh.boundary_vertex, on_boundary)
    assert mesh.edges().dtype == edges.dtype
    np.testing.assert_array_equal(mesh.edges(), edges)
    np.testing.assert_array_equal(mesh.edges()[mesh._triangle_edges], half)
    assert not mesh._triangle_edges.flags.writeable
    # Children by locating each midpoint with a search over the edge keys.
    keys = edges[:, 0] * nv + edges[:, 1]
    m01, m12, m20 = (nv + np.searchsorted(keys, half[:, :, 0] * nv + half[:, :, 1])).T
    expected = np.empty((4 * nt, 3), dtype=np.int64)
    expected[0::4] = np.column_stack([t[:, 0], m01, m20])
    expected[1::4] = np.column_stack([t[:, 1], m12, m01])
    expected[2::4] = np.column_stack([t[:, 2], m20, m12])
    expected[3::4] = np.column_stack([m01, m12, m20])
    np.testing.assert_array_equal(refine_uniform(mesh).triangles, expected)


def mesh_arrays(mesh):
    """Every array a mesh derives from its vertices and triangles, by name."""
    arrays = {"edges": mesh.edges(), "triangle_edges": mesh.triangle_edges(),
              "boundary_vertex": mesh.boundary_vertex,
              "interior_vertices": mesh.interior_vertices,
              "signed_areas": mesh.signed_areas()}
    for prefix, pattern in (("matrix_pattern", mesh.matrix_pattern()),
                            ("interior_pattern", mesh.interior_pattern())):
        for i, array in enumerate(pattern):
            arrays[f"{prefix}[{i}]"] = array
    return arrays


def check_refinements_match_constructor(mesh, levels):
    """Refine `levels` times; each child must equal the constructor's mesh
    of its vertices and triangles bit for bit and in dtype."""
    for _ in range(levels):
        mesh = refine_uniform(mesh)
        rebuilt = mesh_arrays(TriMesh(mesh.vertices, mesh.triangles))
        for name, array in mesh_arrays(mesh).items():
            assert array.dtype == rebuilt[name].dtype, name
            np.testing.assert_array_equal(array, rebuilt[name], err_msg=name)
            assert not array.flags.writeable, name


class TestRefinedTopology:
    @pytest.mark.parametrize("name", sorted(PRESET_POLYGONS))
    def test_presets_match_constructor(self, name):
        check_refinements_match_constructor(
            triangulate_convex_polygon(preset_polygon(name)), 5)

    def test_random_polygons_match_constructor(self):
        rng = np.random.default_rng(7)
        for n in (3, 5, 8):
            check_refinements_match_constructor(
                triangulate_convex_polygon(random_convex_polygon(rng, n)), 3)

    def test_relabelled_and_reread_meshes_match_constructor(self, tmp_path):
        mesh = refine_uniform(refine_uniform(triangulate_convex_polygon(Polygon(PENTAGON))))
        shuffled = relabelled(mesh, np.random.default_rng(11))
        path = tmp_path / "mesh.txt"
        write_mesh(shuffled, path)
        for root in (shuffled, read_mesh(path)):
            check_refinements_match_constructor(root, 2)

    def test_unused_vertices_match_constructor(self):
        # Vertices 0 and 3 lie in no triangle: they own no edge.
        check_refinements_match_constructor(
            TriMesh([[5, 5], [0, 0], [1, 0], [7, 7], [0, 1]], [[1, 2, 4]]), 2)

    def test_refinement_never_calls_unique_edges(self, monkeypatch):
        root = triangulate_convex_polygon(Polygon(PENTAGON))

        def unique_edges(triangles, nv):
            raise AssertionError("refinement numbered the child's edges from scratch")

        monkeypatch.setattr(mesh_module, "_unique_edges", unique_edges)
        with pytest.raises(AssertionError, match="from scratch"):
            TriMesh(root.vertices, root.triangles)
        mesh = root
        for _ in range(3):
            mesh = refine_uniform(mesh)
        assert mesh.num_triangles == 64 * root.num_triangles


def cut_out_interior_pattern(mesh):
    """The interior block of `matrix_pattern()` and each entry's source, read
    off an owner array over the whole pattern."""
    indptr, indices, diagonal, off_diagonal = mesh.matrix_pattern()
    nv, ne = mesh.num_vertices, off_diagonal.shape[1]
    interior = ~mesh.boundary_vertex
    kept = np.repeat(interior, np.diff(indptr)) & interior[indices]
    owner = np.empty(indices.size, dtype=np.int32)
    owner[diagonal] = np.arange(nv, dtype=np.int32)
    owner[off_diagonal] = np.arange(nv, nv + ne, dtype=np.int32)
    renumber = np.cumsum(interior, dtype=np.int32) - 1
    block_indptr = np.zeros(mesh.interior_vertices.size + 1, dtype=np.int32)
    np.cumsum(np.add.reduceat(kept, indptr[:-1], dtype=np.int32)[interior],
              out=block_indptr[1:])
    return block_indptr, renumber[indices[kept]], owner[kept]


def check_interior_builders(mesh, levels):
    """Refine `levels` times; on every mesh, the interior pattern and
    prolongation must equal the blocks cut out of the whole-mesh pattern
    and prolongation bit for bit and in dtype."""
    for level in range(levels + 1):
        if level:
            mesh = refine_uniform(mesh)
        # Built first, so that neither reads the whole-mesh constructions.
        pattern = mesh.interior_pattern()
        p = mesh.interior_prolongation()
        for name, array, expected in zip(("indptr", "indices", "source"), pattern,
                                         cut_out_interior_pattern(mesh)):
            assert array.dtype == expected.dtype, (level, name)
            np.testing.assert_array_equal(array, expected, err_msg=f"{level} {name}")
        if mesh.parent is None:
            assert p is None
            continue
        expected = mesh.prolongation()[mesh.interior_vertices][:, mesh.parent.interior_vertices]
        assert p.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            array = getattr(p, name)
            assert array.dtype == getattr(expected, name).dtype, (level, name)
            np.testing.assert_array_equal(array, getattr(expected, name),
                                          err_msg=f"{level} {name}")


class TestInteriorBuilders:
    @pytest.mark.parametrize("polygon", [PENTAGON, UNIT_SQUARE,
                                         [(0.0, 0.0), (2.0, 0.3), (2.5, 1.5), (1.0, 2.2),
                                          (-0.4, 1.0)]])
    def test_match_whole_mesh_blocks(self, polygon):
        root = triangulate_convex_polygon(Polygon(polygon))
        # The level-0 fan has one interior vertex and no interior edge.
        assert root.interior_vertices.size == 1
        assert not (~root.boundary_vertex[root.edges()]).all(axis=1).any()
        check_interior_builders(root, 5)

    def test_without_interior_vertices(self):
        # One triangle, and its first refinement, have no interior vertex.
        root = TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        assert refine_uniform(root).interior_vertices.size == 0
        check_interior_builders(root, 2)


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

    def test_error_names_path_once(self, tmp_path):
        path = tmp_path / "mesh.txt"
        path.write_text("1 0\n0 0\n")
        with pytest.raises(MeshError, match="vertex line 0 must be 'x y b'") as info:
            read_mesh(path)
        assert str(info.value).count(str(path)) == 1
        assert "malformed" not in str(info.value)

    @pytest.mark.parametrize("flag", ["2", "-1"])
    def test_rejects_flag_outside_0_1(self, tmp_path, flag):
        # A flag read as bool(int(b)) would accept these as "boundary".
        mesh = triangulate_convex_polygon(preset_polygon("unit-square"))
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-1] + flag
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError, match="vertex line 0: boundary flag must be 0 or 1") \
                as info:
            read_mesh(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_rejects_non_finite_coordinate(self, tmp_path, bad):
        mesh = triangulate_convex_polygon(preset_polygon("unit-square"))
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        lines = path.read_text().splitlines()
        lines[3] = f"{bad} 1 1"  # vertex 2, on the boundary
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError, match="vertex 2 has a non-finite coordinate"):
            read_mesh(path)


class TestTriMeshValidation:
    def test_rejects_inverted_triangle(self):
        with pytest.raises(MeshError, match="area"):
            TriMesh([[0, 0], [1, 0], [0, 1]], [[0, 2, 1]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_vertex(self, bad):
        # A NaN coordinate gives a NaN area, which a `<= 0` test lets pass.
        with pytest.raises(MeshError, match=r"vertex 2 has a non-finite coordinate"):
            TriMesh([[0, 0], [1, 0], [bad, 1]], [[0, 1, 2]])

    def test_rejects_nonconforming(self):
        # Edge (0, 1) shared by three triangles.
        with pytest.raises(MeshError, match="shared"):
            TriMesh([[0, 0], [1, 0], [0.5, 1], [0.5, -1], [0.5, 2]],
                    [[0, 1, 2], [0, 3, 1], [0, 1, 4]])

    def test_rejects_overlapping_triangles(self):
        # Both triangles lie above edge (0, 1) and traverse it from 0 to 1;
        # each has area 0.5 and every vertex would lie on the boundary.
        with pytest.raises(MeshError, match=r"edge \(0, 1\) is traversed in the same "
                                            "direction"):
            TriMesh([[0, 0], [1, 0], [0, 1], [0.5, 1]], [[0, 1, 2], [0, 1, 3]])

    @pytest.mark.parametrize("vertices, area", [
        ([[0, 0], [1e300, 0], [0, 1e300]], "inf"),
        ([[-1e308, 0], [1e308, 0], [1e308, 1e308]], "nan")])
    def test_rejects_overflowing_area(self, vertices, area):
        # Finite coordinates whose area overflows: a MeshError, and no
        # overflow RuntimeWarning, which the suite turns into an error.
        with pytest.raises(MeshError, match=f"triangle 0 has non-finite signed area {area}"):
            TriMesh(vertices, [[0, 1, 2]])

    def test_unknown_preset(self):
        with pytest.raises(MeshError, match="unknown domain preset"):
            preset_polygon("lake")
