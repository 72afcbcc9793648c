"""Conforming triangulations of convex polygons with uniform red refinement.

Meshes are immutable after construction: the vertex, triangle and flag
arrays are locked, so instances can be shared freely between threads.
Refinement returns a new mesh that keeps a reference to its parent; parent
vertices keep their indices and coordinates, which makes transfer between
nested levels exact. The transfer matrix from the parent and the sparsity
pattern of P1 matrices are built on first use and kept on the mesh, so they
live exactly as long as it does.
"""

import numpy as np
from scipy import sparse

# Absolute tolerance for geometric predicates (convexity, point location).
GEOM_TOL = 1e-12

PRESET_POLYGONS = {
    "unit-square": ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
    "unit-triangle": ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)),
    # Convex pentagon with two cut corners; its largest interior angle is
    # 3*pi/4, the worst-angle configuration exercised by the studies.
    "pentagon": ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.5, 1.0), (0.0, 0.5)),
}


class MeshError(ValueError):
    """Invalid polygon, broken mesh topology, or failed point location."""


def _cross(u, v):
    """z component of the cross product of stacks of 2D vectors."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


class Polygon:
    """Convex polygon given by counter-clockwise ordered vertices.

    Parameters
    ----------
    vertices : array_like
        Sequence of (x, y) pairs in counter-clockwise order. At least three
        vertices; consecutive triples must be strictly convex and no vertex
        may repeat.

    Raises
    ------
    MeshError
        If the vertex list is degenerate, repeated, collinear or not
        strictly convex, naming the offending vertex.
    """

    def __init__(self, vertices):
        vertices = np.array(vertices, dtype=float)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("polygon vertices must form an (n, 2) array")
        n = vertices.shape[0]
        if n < 3:
            raise MeshError(f"polygon needs at least 3 vertices, got {n}")
        if not np.all(np.isfinite(vertices)):
            raise MeshError("polygon vertices must be finite")
        for i in range(n):
            for j in range(i + 1, n):
                if np.all(np.abs(vertices[i] - vertices[j]) <= GEOM_TOL):
                    raise MeshError(f"vertices {i} and {j} coincide at "
                                    f"({vertices[i, 0]:g}, {vertices[i, 1]:g})")
        for i in range(n):
            a = vertices[i - 1]
            b = vertices[i]
            c = vertices[(i + 1) % n]
            turn = _cross(b - a, c - b)
            if turn <= GEOM_TOL:
                kind = "collinear" if abs(turn) <= GEOM_TOL else "reflex"
                raise MeshError(
                    f"vertex {i} at ({b[0]:g}, {b[1]:g}) is {kind}: polygon "
                    f"is not strictly convex (cross product {turn:.3e})")
        vertices.setflags(write=False)
        self.vertices = vertices

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    def area(self):
        """Enclosed area by the shoelace formula."""
        x = self.vertices[:, 0]
        y = self.vertices[:, 1]
        return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)

    def centroid(self):
        """Area centroid (center of mass of the enclosed region)."""
        x = self.vertices[:, 0]
        y = self.vertices[:, 1]
        w = x * np.roll(y, -1) - np.roll(x, -1) * y
        a = 0.5 * np.sum(w)
        cx = np.sum((x + np.roll(x, -1)) * w) / (6.0 * a)
        cy = np.sum((y + np.roll(y, -1)) * w) / (6.0 * a)
        return np.array([cx, cy])

    def interior_angles(self):
        """Interior angle at every vertex, in radians."""
        v = self.vertices
        prev = np.roll(v, 1, axis=0) - v
        nxt = np.roll(v, -1, axis=0) - v
        cosang = np.sum(prev * nxt, axis=1) / (
            np.linalg.norm(prev, axis=1) * np.linalg.norm(nxt, axis=1))
        return np.arccos(np.clip(cosang, -1.0, 1.0))


def preset_polygon(name):
    """Return one of the built-in domains ('unit-square', 'unit-triangle', 'pentagon')."""
    try:
        return Polygon(PRESET_POLYGONS[name])
    except KeyError:
        options = ", ".join(sorted(PRESET_POLYGONS))
        raise MeshError(f"unknown domain preset '{name}' (available: {options})") from None


def _unique_edges(triangles, nv):
    """Edges of a triangulation, each triangle's edge ids and edge multiplicities.

    One 1-D `np.unique` over the int64 keys lo * nv + hi of the local
    edges (0, 1), (1, 2), (2, 0) of every triangle. Returns the sorted
    unique vertex pairs as an (ne, 2) array in lexicographic order, the
    (nt, 3) ids of local edge j = (j, j + 1) of each triangle into that
    array (int32, since every mesh of a hierarchy keeps them), and how
    many triangles share each edge. The lexicographic order is the
    canonical edge numbering: `refine_uniform` appends the midpoint of
    edge e as vertex nv + e, and `TriMesh.prolongation` interpolates it
    from the same pair, so the two always agree.
    """
    keys = np.empty(triangles.shape, dtype=np.int64)
    for j in range(3):
        a, b = triangles[:, j], triangles[:, (j + 1) % 3]
        keys[:, j] = np.minimum(a, b) * nv + np.maximum(a, b)
    keys, ids, counts = np.unique(keys.ravel(), return_inverse=True, return_counts=True)
    edges = np.column_stack(np.divmod(keys, nv))
    return edges, ids.reshape(-1, 3).astype(np.int32), counts


class TriMesh:
    """Conforming triangulation of a convex polygon.

    Attributes
    ----------
    vertices : ndarray, shape (nv, 2)
        Vertex coordinates. For a refined mesh the parent vertices occupy
        the leading indices with identical coordinates.
    triangles : ndarray, shape (nt, 3)
        Vertex indices per triangle, counter-clockwise.
    boundary_vertex : ndarray of bool, shape (nv,)
        True exactly for vertices lying on an edge shared by one triangle.
    interior_vertices : ndarray of int
        Ascending indices of the other vertices: the unknowns of the
        homogeneous Dirichlet problem.
    level : int
        Refinement depth, 0 for an initial triangulation.
    parent : TriMesh or None
        The mesh this one refines by `refine_uniform`.

    The constructor validates positive triangle areas and conformity (every
    edge belongs to one or two triangles) and derives the boundary flags.
    Its one pass over the edges, `_unique_edges`, also numbers them: that
    numbering is `edges()`, and each triangle's three edge ids,
    `triangle_edges()`, serve `refine_uniform` and the assemblers.
    """

    def __init__(self, vertices, triangles, level=0, parent=None):
        vertices = np.array(vertices, dtype=float)
        triangles = np.array(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must form an (nv, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError("triangles must form an (nt, 3) array")
        nv = vertices.shape[0]
        if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
            raise MeshError("triangle vertex index out of range")

        p0 = vertices[triangles[:, 0]]
        p1 = vertices[triangles[:, 1]]
        p2 = vertices[triangles[:, 2]]
        areas = 0.5 * _cross(p1 - p0, p2 - p0)
        if np.any(areas <= 0.0):
            k = int(np.argmin(areas))
            raise MeshError(f"triangle {k} has non-positive signed area {areas[k]:.3e}")

        edges, triangle_edges, counts = _unique_edges(triangles, nv)
        if counts.size and counts.max() > 2:
            k = int(np.argmax(counts))
            raise MeshError(f"edge {tuple(edges[k])} is shared by {counts[k]} triangles")
        boundary_vertex = np.zeros(nv, dtype=bool)
        boundary_vertex[edges[counts == 1].ravel()] = True
        interior_vertices = np.flatnonzero(~boundary_vertex)

        vertices.setflags(write=False)
        triangles.setflags(write=False)
        areas.setflags(write=False)
        boundary_vertex.setflags(write=False)
        interior_vertices.setflags(write=False)
        edges.setflags(write=False)
        triangle_edges.setflags(write=False)

        self.vertices = vertices
        self.triangles = triangles
        self.boundary_vertex = boundary_vertex
        self.interior_vertices = interior_vertices
        self.level = int(level)
        self.parent = parent
        self._edges = edges
        self._triangle_edges = triangle_edges
        self._signed_areas = areas
        self._prolongation = None
        self._interior_prolongation = None
        self._matrix_pattern = None

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def edges(self):
        """Unique edges as a lexicographically sorted (ne, 2) index array."""
        return self._edges

    def triangle_edges(self):
        """Ids into `edges()` of every triangle's local edges (0, 1), (1, 2), (2, 0).

        A read-only int32 array of shape (nt, 3).
        """
        return self._triangle_edges

    def signed_areas(self):
        """Signed area of every triangle (positive by the class invariant)."""
        return self._signed_areas

    def prolongation(self):
        """Exact nodal transfer of P1 functions from the parent mesh.

        Returns the (nv, nv_parent) CSR matrix whose rows are identity rows
        for the parent vertices and rows with 1/2 at both endpoints of the
        parent edge for the midpoint vertices, in `refine_uniform`'s
        numbering; None for a mesh without parent. Built once per mesh.

        Raises
        ------
        MeshError
            If the vertex count does not match a uniform refinement of the
            parent.
        """
        if self._prolongation is None and self.parent is not None:
            edges = self.parent.edges()
            nc = self.parent.num_vertices
            if self.num_vertices != nc + edges.shape[0]:
                raise MeshError(f"mesh with {self.num_vertices} vertices is not a "
                                f"uniform refinement of its parent ({nc} vertices, "
                                f"{edges.shape[0]} edges)")
            indptr = np.concatenate([np.arange(nc + 1),
                                     nc + 2 * np.arange(1, edges.shape[0] + 1)])
            indices = np.concatenate([np.arange(nc), edges.ravel()])
            data = np.concatenate([np.ones(nc), np.full(edges.size, 0.5)])
            self._prolongation = sparse.csr_matrix(
                (data, indices, indptr), shape=(self.num_vertices, nc))
        return self._prolongation

    def interior_prolongation(self):
        """`prolongation` restricted to interior vertices on both meshes.

        It is exact on the homogeneous Dirichlet spaces: a parent boundary
        vertex carries a zero coefficient there, and every child boundary
        vertex lies on a parent boundary edge. None without parent.
        """
        if self._interior_prolongation is None and self.parent is not None:
            self._interior_prolongation = \
                self.prolongation()[self.interior_vertices][:, self.parent.interior_vertices]
        return self._interior_prolongation

    def matrix_pattern(self):
        """Sparsity pattern of P1 matrices and where vertices and edges sit in it.

        Returns (indptr, indices, diagonal, off_diagonal): the canonical
        CSR pattern (sorted column indices, no duplicates) with an entry
        for every pair of vertices that share a triangle; the position in
        the CSR data array of each vertex's diagonal entry, shape (nv,);
        and the positions of the entries (lo, hi) and (hi, lo) of every
        edge (lo, hi) of `edges()`, shape (2, ne). All four are read-only
        int32 arrays, built once per mesh from the edge numbering by one
        sort of the nv + 2 ne keys row * nv + col.
        """
        if self._matrix_pattern is None:
            nv = self.num_vertices
            lo, hi = self._edges.T
            keys = np.concatenate([np.arange(nv) * (nv + 1), lo * nv + hi, hi * nv + lo])
            order = np.argsort(keys)
            position = np.empty(keys.size, dtype=np.int32)
            position[order] = np.arange(keys.size, dtype=np.int32)
            indices = (keys[order] % nv).astype(np.int32)
            indptr = np.zeros(nv + 1, dtype=np.int32)
            np.cumsum(np.bincount(self._edges.ravel(), minlength=nv) + 1, out=indptr[1:])
            pattern = (indptr, indices, position[:nv], position[nv:].reshape(2, -1))
            for array in pattern:
                array.setflags(write=False)
            self._matrix_pattern = pattern
        return self._matrix_pattern

    def __repr__(self):
        return (f"TriMesh(level={self.level}, vertices={self.num_vertices}, "
                f"triangles={self.num_triangles})")


def triangulate_convex_polygon(poly):
    """Fan triangulation of a convex polygon from its centroid.

    Parameters
    ----------
    poly : Polygon or array_like
        The domain boundary; array input is validated as a Polygon first.

    Returns
    -------
    TriMesh
        Level-0 mesh whose vertices are the polygon vertices followed by
        the centroid, with one triangle per boundary edge.
    """
    if not isinstance(poly, Polygon):
        poly = Polygon(poly)
    n = poly.num_vertices
    vertices = np.vstack([poly.vertices, poly.centroid()])
    triangles = np.array([[i, (i + 1) % n, n] for i in range(n)], dtype=np.int64)
    return TriMesh(vertices, triangles, level=0, parent=None)


def refine_uniform(mesh):
    """Red refinement: split every triangle into 4 congruent children.

    New vertices are the edge midpoints, appended after the parent
    vertices in the canonical edge order: the midpoint of edge e is
    vertex nv + e, so a triangle's midpoints are read off its edge ids
    without another search. The child mesh nests the parent exactly and
    all angles are preserved. Children 4k..4k+2 of triangle k keep its
    vertex j with the midpoints of the edges at j; child 4k + 3 is the
    middle triangle.
    """
    edges = mesh.edges()
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])
    # Columns: vertices 0, 1, 2, then the midpoints of edges 01, 12, 20.
    corners = np.hstack([mesh.triangles, mesh.num_vertices + mesh.triangle_edges()])
    children = corners[:, [0, 3, 5, 1, 4, 3, 2, 5, 4, 3, 4, 5]].reshape(-1, 3)
    del corners  # the child's edge pass sets the peak memory of a refinement
    return TriMesh(vertices, children, level=mesh.level + 1, parent=mesh)


def mesh_size(mesh):
    """Largest edge length over all triangles (the mesh parameter h)."""
    edges = mesh.edges()
    d = mesh.vertices[edges[:, 0]] - mesh.vertices[edges[:, 1]]
    return float(np.sqrt(np.max(np.sum(d * d, axis=1))))


def min_angle(mesh):
    """Smallest interior angle over all triangles, in radians."""
    v = mesh.vertices
    t = mesh.triangles
    angles = []
    for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        u1 = v[t[:, b]] - v[t[:, a]]
        u2 = v[t[:, c]] - v[t[:, a]]
        cosang = np.sum(u1 * u2, axis=1) / (
            np.linalg.norm(u1, axis=1) * np.linalg.norm(u2, axis=1))
        angles.append(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return float(np.min(angles))


def locate_point(mesh, p, tol=GEOM_TOL):
    """Find a triangle containing a point, with its barycentric coordinates.

    Parameters
    ----------
    mesh : TriMesh
    p : array_like, shape (2,)
        Point inside or on the closure of the meshed domain.
    tol : float
        Absolute tolerance on the barycentric coordinates.

    Returns
    -------
    (int, ndarray)
        Triangle index and the three barycentric coordinates of p in it,
        each in [-tol, 1 + tol] and summing to 1.

    Raises
    ------
    MeshError
        If p lies outside every triangle beyond the tolerance.
    """
    p = np.asarray(p, dtype=float)
    v = mesh.vertices
    t = mesh.triangles
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    det = 2.0 * mesh.signed_areas()
    la = _cross(b - p, c - p) / det
    lb = _cross(c - p, a - p) / det
    lc = _cross(a - p, b - p) / det
    bary = np.column_stack([la, lb, lc])
    worst = bary.min(axis=1)
    k = int(np.argmax(worst))
    if worst[k] < -tol:
        raise MeshError(f"point ({p[0]:g}, {p[1]:g}) lies outside the mesh "
                        f"(barycentric deficit {worst[k]:.2e})")
    return k, bary[k]


def read_polygon(path):
    """Read a polygon from a text file with one `x y` pair per line.

    Blank lines and lines starting with '#' are skipped.
    """
    points = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise MeshError(f"{path}:{lineno}: expected 'x y', got {stripped!r}")
            try:
                points.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise MeshError(f"{path}:{lineno}: {exc}") from exc
    return Polygon(points)


def write_mesh(mesh, path):
    """Write a mesh in the line-oriented text format.

    Line 1 holds `nv nt`; then nv lines `x y b` with the boundary flag
    b in {0, 1}; then nt lines of 0-based vertex indices `i j k`.
    Coordinates carry 17 significant digits and round-trip exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{mesh.num_vertices} {mesh.num_triangles}\n")
        for (x, y), flag in zip(mesh.vertices, mesh.boundary_vertex):
            fh.write(f"{x:.16e} {y:.16e} {1 if flag else 0}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")


def read_mesh(path):
    """Read a mesh written by `write_mesh`, revalidating all invariants."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise MeshError(f"{path}: empty mesh file")
    try:
        header = lines[0].split()
        if len(header) != 2:
            raise MeshError(f"{path}: first line must be 'nv nt'")
        nv, nt = int(header[0]), int(header[1])
        if len(lines) != 1 + nv + nt:
            raise MeshError(f"{path}: expected {1 + nv + nt} lines, found {len(lines)}")
        vertices = np.empty((nv, 2))
        flags = np.empty(nv, dtype=bool)
        for i in range(nv):
            parts = lines[1 + i].split()
            if len(parts) != 3:
                raise MeshError(f"{path}: vertex line {i} must be 'x y b'")
            vertices[i] = (float(parts[0]), float(parts[1]))
            flags[i] = bool(int(parts[2]))
        triangles = np.empty((nt, 3), dtype=np.int64)
        for k in range(nt):
            triangles[k] = [int(s) for s in lines[1 + nv + k].split()]
    except ValueError as exc:
        raise MeshError(f"{path}: malformed mesh file: {exc}") from exc
    mesh = TriMesh(vertices, triangles)
    if not np.array_equal(mesh.boundary_vertex, flags):
        bad = int(np.argmax(mesh.boundary_vertex != flags))
        raise MeshError(f"{path}: stored boundary flag of vertex {bad} "
                        "contradicts the mesh topology")
    return mesh
