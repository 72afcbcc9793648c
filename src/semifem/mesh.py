"""Conforming triangulations of convex polygons with uniform red refinement.

Meshes are immutable after construction: the vertex, triangle and flag
arrays are locked, so instances can be shared freely between threads.
Refinement returns a new mesh that keeps a reference to its parent; parent
vertices keep their indices and coordinates, which makes transfer between
nested levels exact. The interior transfer matrix from the parent and the
sparsity pattern of the interior block of P1 matrices, which the solves
read, are built on first use and kept on the mesh, so they live exactly
as long as it does; the pattern of whole-mesh P1 matrices is built anew
on every call and not kept. Both patterns carry, for every entry, the
index of its value among a symmetric matrix's vertex and edge values:
vertex v has value v, edge e of `edges()` value nv + e. One builder
makes both, `_sorted_pattern`: a stable counting sort of the pattern's
listed entries, done in C by scipy's COO to CSR conversion.
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


# Corners of the four children of a triangle in `refine_uniform`, as columns
# of its row (vertex 0, 1, 2, then the midpoints of its edges 01, 12, 20):
# child 4k + c of triangle k has the corners CHILD_CORNERS[c] of row k.
# Children 0..2 keep vertex c, child 3 is the middle triangle.
CHILD_CORNERS = ((0, 3, 5), (1, 4, 3), (2, 5, 4), (3, 4, 5))


class MeshError(ValueError):
    """Invalid polygon, broken mesh topology, or failed point location."""


def _cross(u, v):
    """z component of the cross product of stacks of 2D vectors."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _check_finite(vertices):
    """Reject an (n, 2) vertex array with a NaN or infinite coordinate."""
    finite = np.isfinite(vertices).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise MeshError(f"vertex {i} has a non-finite coordinate "
                        f"({vertices[i, 0]:g}, {vertices[i, 1]:g})")


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
        _check_finite(vertices)
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
    array (both int32, since every mesh of a hierarchy keeps them), and
    how many triangles share each edge. The lexicographic order is the
    canonical edge numbering: `refine_uniform` appends the midpoint of
    edge e as vertex nv + e, and `femfunction.prolongate` interpolates it
    from the same pair, so the two always agree.
    """
    keys = np.empty(triangles.shape, dtype=np.int64)
    for j in range(3):
        a, b = triangles[:, j], triangles[:, (j + 1) % 3]
        keys[:, j] = np.minimum(a, b) * nv + np.maximum(a, b)
    keys, ids, counts = np.unique(keys.ravel(), return_inverse=True, return_counts=True)
    edges = np.column_stack(np.divmod(keys, nv)).astype(np.int32)
    return edges, ids.reshape(-1, 3).astype(np.int32), counts


def _edge_slots(edges, nv):
    """Where both ends of every edge sit when each vertex lists its edges.

    Vertex v lists the edges at it in increasing id: the edges (lo, v) in
    the order of lo, then the contiguous run of edges (v, hi) of the
    lexicographic `edges`. Returns the (2, ne) int32 slots of the ends lo
    and hi of every edge in these lists laid end to end, and the (nv,)
    int32 slot where the run (v, hi) of each vertex starts. The ends lo
    are placed by counts alone; the ends hi in the order of hi, then of
    the edge id (a stable argsort of hi), by one counting sort: scipy's
    CSR to CSC conversion of the matrix with entry e at (lo, hi) lists each
    column's rows lo in increasing order, and edge ids increase with lo.
    """
    ne = edges.shape[0]
    lo, hi = edges[:, 0], edges[:, 1]
    ids = np.arange(ne, dtype=np.int32)
    lower = np.bincount(hi, minlength=nv)
    # lower_through[v] counts the edges (u, w) with w <= v; first_run[v]
    # is the id of the first edge (v, hi), the count of edges with lo < v.
    lower_through = np.cumsum(lower, dtype=np.int32)
    first_run = np.zeros(nv, dtype=np.int32)
    np.cumsum(np.bincount(lo, minlength=nv)[:-1], out=first_run[1:])
    slots = np.empty((2, ne), dtype=np.int32)
    # The end lo = v of edge e has e ends lo and lower_through[v] ends hi
    # before it.
    np.add(ids, lower_through[lo], out=slots[0])
    # The i-th end hi in the order of hi, at vertex v, has i ends hi and
    # first_run[v] ends lo before it.
    by_hi = sparse.csr_matrix((ids, hi, np.append(first_run, np.int32(ne))),
                              shape=(nv, nv)).tocsc().data
    slots[1, by_hi] = ids + np.repeat(first_run, lower)
    return slots, first_run + lower_through


def _sorted_pattern(edges, kept):
    """CSR pattern of symmetric matrices with entries on the diagonal and on edges.

    edges are lexicographic (lo, hi) pairs of vertices 0..nv-1 and kept
    an (nv,) bool array. Returns (indptr, indices, source) of the block
    matrix[k][:, k], k = flatnonzero(kept), in the numbering of k: the
    canonical CSR pattern of the diagonal entries of the kept vertices and
    the entries (lo, hi) and (hi, lo) of the edges between two of them,
    and for each entry the index of its value, v for the diagonal entry
    of vertex v and nv + e for both entries of edge e; all int32. The
    edges between two kept vertices, renumbered by k, stay lexicographic.
    Their ends (hi, lo), then the diagonal, then their ends (lo, hi) are
    listed with their value indices, and scipy's COO to CSR conversion, a
    stable counting sort by row, places them: row r holds the ends (r, lo)
    in the order of lo, then r, then the ends (r, hi) in the order of hi.
    So the output is canonical as built. Only the listing and the output
    are alive during the sort.
    """
    nv = kept.size
    renumber = np.cumsum(kept, dtype=np.int32)
    renumber -= 1
    renumber[~kept] = -1
    # Gathered through the contiguous (ne, 2) edges: a gather through one
    # strided column of them is slower. Dropped vertices read -1.
    renumbered = np.take(renumber, edges)
    del renumber
    inner = renumbered[:, 0] >= 0
    inner &= renumbered[:, 1] >= 0
    inner_edges = np.compress(inner, renumbered, axis=0)
    del renumbered
    m = inner_edges.shape[0]
    vertices = np.flatnonzero(kept)
    n = vertices.size
    # One buffer [lo, v, hi, v, lo]: its first 2m + n entries are the
    # listed columns, its last 2m + n the listed rows.
    ends = np.empty(3 * m + 2 * n, dtype=np.int32)
    ends[:m] = ends[2 * m + 2 * n:] = inner_edges[:, 0]
    ends[m:m + n] = ends[2 * m + n:2 * m + 2 * n] = np.arange(n, dtype=np.int32)
    ends[m + n:2 * m + n] = inner_edges[:, 1]
    del inner_edges
    inner = nv + np.flatnonzero(inner)
    source = np.concatenate([inner, vertices, inner], dtype=np.int32)
    del inner, vertices
    pattern = sparse.coo_matrix((source, (ends[m + n:], ends[:2 * m + n])),
                                shape=(n, n)).tocsr()
    return pattern.indptr, pattern.indices, pattern.data


def _signed_areas(vertices, triangles):
    """Signed area of every triangle, gathering the x and y columns apart.

    An area that overflows is inf or NaN, without a numpy warning, for
    `_check_areas` to reject.
    """
    x, y = vertices[:, 0], vertices[:, 1]
    t0, t1, t2 = triangles[:, 0], triangles[:, 1], triangles[:, 2]
    x0, y0 = x[t0], y[t0]
    with np.errstate(over="ignore", invalid="ignore"):
        areas = (x[t1] - x0) * (y[t2] - y0)
        areas -= (y[t1] - y0) * (x[t2] - x0)
    areas *= 0.5
    return areas


def _check_areas(areas):
    """Reject a triangle of non-positive, infinite or NaN signed area."""
    valid = (areas > 0.0) & (areas < np.inf)
    if not np.all(valid):
        k = int(np.argmin(valid))
        kind = "non-positive" if areas[k] <= 0.0 else "non-finite"
        raise MeshError(f"triangle {k} has {kind} signed area {areas[k]:.3e}")


def _locked(arrays):
    """The arrays, made read-only."""
    for array in arrays:
        array.setflags(write=False)
    return arrays


class TriMesh:
    """Conforming triangulation of a convex polygon.

    Attributes
    ----------
    vertices : ndarray, shape (nv, 2)
        Vertex coordinates. For a refined mesh the parent vertices occupy
        the leading indices with identical coordinates.
    triangles : ndarray of int64, shape (nt, 3)
        Vertex indices per triangle, counter-clockwise.
    boundary_vertex : ndarray of bool, shape (nv,)
        True exactly for vertices lying on an edge shared by one triangle.
    interior_vertices : ndarray of int
        Ascending indices of the other vertices: the unknowns of the
        homogeneous Dirichlet problem.
    level : int
        Refinement depth: 0 for a mesh built by the constructor.
    parent : TriMesh or None
        The mesh this one refines: None for a mesh built by the
        constructor. Only `refine_uniform` sets it, with `level`, so every
        child has its parent's red refinement layout.

    The constructor builds root meshes only. It validates finite vertex
    coordinates, positive finite triangle areas and conformity (every
    edge belongs to one or two triangles, and two traverse it in opposite
    directions, so that they lie on its two sides) and derives the
    boundary flags. Its one pass over the edges, `_unique_edges`, also
    numbers them: that numbering is `edges()`, and each triangle's three
    edge ids, `triangle_edges()`, serve `refine_uniform` and the
    assemblers. `refine_uniform` derives the same arrays of a child from its parent's,
    with no pass over the child's edges. Both are int32, as every mesh of
    a hierarchy keeps them; the triangles stay int64, whose gathers and
    scatters on the solver's hot path are faster than with int32 indices.
    """

    def __init__(self, vertices, triangles):
        vertices = np.array(vertices, dtype=float)
        triangles = np.array(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must form an (nv, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError("triangles must form an (nt, 3) array")
        nv = vertices.shape[0]
        if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
            raise MeshError("triangle vertex index out of range")

        _check_finite(vertices)
        areas = _signed_areas(vertices, triangles)
        _check_areas(areas)

        edges, triangle_edges, counts = _unique_edges(triangles, nv)
        if counts.size and counts.max() > 2:
            k = int(np.argmax(counts))
            raise MeshError(f"edge {tuple(edges[k].tolist())} is shared by "
                            f"{counts[k]} triangles")
        # Counter-clockwise triangles on the two sides of an edge traverse it
        # in opposite directions; two that traverse it alike overlap.
        forward = np.bincount(triangle_edges[triangles < np.roll(triangles, -1, axis=1)],
                              minlength=counts.size)
        overlapping = (counts == 2) & (forward != 1)
        if overlapping.any():
            k = int(np.argmax(overlapping))
            raise MeshError(f"edge {tuple(edges[k].tolist())} is traversed in the same "
                            "direction by both its triangles, which overlap")
        boundary_vertex = np.zeros(nv, dtype=bool)
        boundary_vertex[edges[counts == 1].ravel()] = True
        self._adopt(vertices, triangles, areas, edges, triangle_edges, boundary_vertex)

    def _adopt(self, vertices, triangles, areas, edges, triangle_edges, boundary_vertex):
        """Lock the arrays and set every attribute of a root mesh."""
        interior_vertices = np.flatnonzero(~boundary_vertex)
        _locked((vertices, triangles, areas, boundary_vertex, interior_vertices, edges,
                 triangle_edges))
        self.vertices = vertices
        self.triangles = triangles
        self.boundary_vertex = boundary_vertex
        self.interior_vertices = interior_vertices
        self.level = 0
        self.parent = None
        self._edges = edges
        self._triangle_edges = triangle_edges
        self._signed_areas = areas
        self._interior_prolongation = None
        self._interior_pattern = None

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_triangles(self):
        return self.triangles.shape[0]

    def edges(self):
        """Unique edges as a lexicographically sorted, read-only (ne, 2) int32 array."""
        return self._edges

    def triangle_edges(self):
        """Ids into `edges()` of every triangle's local edges (0, 1), (1, 2), (2, 0).

        A read-only int32 array of shape (nt, 3).
        """
        return self._triangle_edges

    def signed_areas(self):
        """Signed area of every triangle (positive by the class invariant)."""
        return self._signed_areas

    def interior_prolongation(self):
        """Exact nodal transfer from the parent, on interior vertices of both meshes.

        The nodal transfer of P1 functions keeps the parent vertices' values
        and gives every midpoint vertex nv_parent + e the mean of the ends
        of parent edge e. On the homogeneous Dirichlet spaces it is exact
        with the interior vertices alone: a parent boundary vertex carries a
        zero coefficient there, and every child boundary vertex lies on a
        parent boundary edge. Returns the CSR matrix built once per mesh
        from the parent's edges: 1 at every interior parent vertex, and 1/2
        at each interior end of the parent edge of every interior midpoint.
        None without parent. Its transpose view `.T`,
        a CSC matrix on the same arrays, is the restriction, so no second
        matrix is kept.
        """
        if self._interior_prolongation is None and self.parent is not None:
            parent = self.parent
            nc = parent.num_vertices
            interior = ~parent.boundary_vertex
            ni = parent.interior_vertices.size
            # The parent edges of the interior midpoints, and which of their
            # ends are interior.
            split = parent.edges()[~self.boundary_vertex[nc:]]
            ends = interior[split]
            indptr = np.concatenate([np.arange(ni + 1),
                                     ni + np.cumsum(np.count_nonzero(ends, axis=1))])
            renumber = np.cumsum(interior) - 1
            indices = np.concatenate([np.arange(ni), renumber[split[ends]]])
            data = np.concatenate([np.ones(ni), np.full(indices.size - ni, 0.5)])
            self._interior_prolongation = sparse.csr_matrix(
                (data, indices, indptr), shape=(self.interior_vertices.size, ni))
        return self._interior_prolongation

    def matrix_pattern(self):
        """Sparsity pattern of P1 matrices and where their values sit.

        Returns (indptr, indices, source): the canonical CSR pattern
        (sorted column indices, no duplicates) with an entry for every pair
        of vertices that share a triangle, and for every entry the index of
        its value among a symmetric matrix's vertex and edge values stacked
        as one array: v for the diagonal entry of vertex v, nv + e for both
        entries of edge e of `edges()`. The matrix with those values is
        therefore `values[source]` on this pattern. All three are read-only
        int32 arrays, built by `_sorted_pattern` with every vertex kept, on
        every call: no solve or study reads them, so the mesh keeps none.
        """
        return _locked(_sorted_pattern(self._edges, np.ones(self.num_vertices, dtype=bool)))

    def interior_pattern(self):
        """Sparsity pattern of the interior block of P1 matrices and where its values sit.

        Returns (indptr, indices, source) as `matrix_pattern` does, for the
        block matrix[i][:, i], i = `interior_vertices`, in the numbering of
        i: the block of the matrix with given vertex and edge values is
        `values[source]`. All three are read-only int32 arrays, built once
        per mesh by `_sorted_pattern`'s counting sort on the edges between
        two interior vertices, renumbered by i; no pattern of the whole mesh
        is made. At level 8 (164 481 vertices, 1.15 M block entries; 2-CPU
        VM) its first build takes 21-24 ms, against 39-48 ms for the
        edge-slot placement it replaced, with the same traced peak of 66 B
        per triangle, and keeps 9.3 MiB.
        """
        if self._interior_pattern is None:
            self._interior_pattern = _locked(_sorted_pattern(self._edges, ~self.boundary_vertex))
        return self._interior_pattern

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
    return TriMesh(vertices, triangles)


def refine_uniform(mesh):
    """Red refinement: split every triangle into 4 congruent children.

    New vertices are the edge midpoints, appended after the parent
    vertices in the canonical edge order: the midpoint of edge e is
    vertex nv + e, so a triangle's midpoints are read off its edge ids
    without another search. The child mesh nests the parent exactly and
    all angles are preserved. Children 4k..4k+2 of triangle k keep its
    vertex j with the midpoints of the edges at j; child 4k + 3 is the
    middle triangle (`CHILD_CORNERS`). This is the only function that
    sets a mesh's `parent` and `level`.

    The child's int32 edges, triangle edge ids and boundary flags follow
    from the parent's numbering (`_refined_topology`), equal to what the
    constructor's `_unique_edges` would find, with no pass over the 3 nt
    child edge keys: both are integer reorderings, two counting sorts
    done in C. The child's signed areas are computed and checked positive
    as in the constructor.
    """
    edges = mesh.edges()
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])
    # Columns: vertices 0, 1, 2, then the midpoints of edges 01, 12, 20.
    corners = np.hstack([mesh.triangles, mesh.num_vertices + mesh.triangle_edges()])
    children = np.take(corners, np.ravel(CHILD_CORNERS), axis=1).reshape(-1, 3)
    del corners  # (nt, 6) int64, before the area and topology passes
    areas = _signed_areas(vertices, children)
    _check_areas(areas)
    child = TriMesh.__new__(TriMesh)
    child._adopt(vertices, children, areas, *_refined_topology(mesh))
    child.level = mesh.level + 1
    child.parent = mesh
    return child


def _refined_topology(mesh):
    """Edges, triangle edge ids and boundary flags of `refine_uniform(mesh)`.

    They equal what `_unique_edges` finds on the child, read off the
    parent's numbering instead. The child's lexicographic edges are, first,
    for every parent vertex v in turn, the halves (v, nc + e) of the parent
    edges e at v in increasing e (`_edge_slots`), and then the three edges
    between the midpoints of every parent triangle, ordered by scipy's COO
    to CSR conversion of their (first, second) parent edge ids, as
    `_sorted_pattern` orders its entries; each row's few second ids are
    then sorted in place. A midpoint lies on the boundary iff its parent
    edge belongs to one triangle; parent vertices keep their flags.
    """
    nc = mesh.num_vertices
    parent_edges = mesh.edges()
    triangle_edges = mesh.triangle_edges()
    ne, nt = parent_edges.shape[0], triangle_edges.shape[0]
    slots, _ = _edge_slots(parent_edges, nc)
    midpoint_vertices = np.arange(nc, nc + ne, dtype=np.int32)
    edges = np.empty((2 * ne + 3 * nt, 2), dtype=np.int32)
    halves = edges[:2 * ne]
    for end in range(2):
        halves[slots[end], 0] = parent_edges[:, end]
        halves[slots[end], 1] = midpoint_vertices
    # Pair j joins the midpoints of a triangle's edges j and j + 1; no two
    # triangles share a pair. scipy's COO to CSR conversion, a stable
    # counting sort, lists the pairs by their first edge, and sorts each
    # row's second edges in place: the lexicographic order of the pairs.
    following = np.roll(triangle_edges, -1, axis=1)
    first = np.minimum(triangle_edges, following).ravel()
    second = np.maximum(triangle_edges, following).ravel()
    del following
    order = sparse.coo_matrix((np.arange(3 * nt, dtype=np.int32), (first, second)),
                              shape=(ne, ne)).tocsr()
    order.sort_indices()
    del second
    edges[2 * ne:, 0] = first[order.data]
    edges[2 * ne:, 0] += nc
    edges[2 * ne:, 1] = order.indices
    edges[2 * ne:, 1] += nc
    del first
    pairs = np.empty(3 * nt, dtype=np.int32)
    pairs[order.data] = np.arange(2 * ne, 2 * ne + 3 * nt, dtype=np.int32)
    del order
    pairs = pairs.reshape(nt, 3)

    # Child edge ids between two columns of a triangle's corner row
    # (vertices 0, 1, 2, then the midpoints 3 + j of edges j).
    triangles = mesh.triangles
    forward = triangles < np.roll(triangles, -1, axis=1)  # vertex j is the lo of edge j
    lo_half = slots[0][triangle_edges]
    hi_half = slots[1][triangle_edges]
    between = {}
    for j in range(3):
        between[frozenset((j, 3 + j))] = np.where(forward[:, j], lo_half[:, j], hi_half[:, j])
        between[frozenset(((j + 1) % 3, 3 + j))] = np.where(forward[:, j], hi_half[:, j],
                                                            lo_half[:, j])
        between[frozenset((3 + j, 3 + (j + 1) % 3))] = pairs[:, j]
    child_edges = np.empty((nt, len(CHILD_CORNERS), 3), dtype=np.int32)
    for c, row in enumerate(CHILD_CORNERS):
        for i in range(3):
            child_edges[:, c, i] = between[frozenset((row[i], row[(i + 1) % 3]))]

    on_boundary = np.bincount(triangle_edges.ravel(), minlength=ne) == 1
    boundary_vertex = np.concatenate([mesh.boundary_vertex, on_boundary])
    return edges, child_edges.reshape(-1, 3), boundary_vertex


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


def locate_point(mesh, p):
    """Find a triangle containing a point, with its barycentric coordinates.

    Parameters
    ----------
    mesh : TriMesh
    p : array_like, shape (2,)
        Point inside or on the closure of the meshed domain.

    Returns
    -------
    (int, ndarray)
        Triangle index and the three barycentric coordinates of p in it,
        each in [-GEOM_TOL, 1 + GEOM_TOL] and summing to 1.

    Raises
    ------
    MeshError
        If p lies outside every triangle beyond GEOM_TOL.
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
    if worst[k] < -GEOM_TOL:
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
            if parts[2] not in ("0", "1"):
                raise MeshError(f"{path}: vertex line {i}: boundary flag must be "
                                f"0 or 1, got {parts[2]!r}")
            flags[i] = parts[2] == "1"
        triangles = np.empty((nt, 3), dtype=np.int64)
        for k in range(nt):
            triangles[k] = [int(s) for s in lines[1 + nv + k].split()]
    except MeshError:
        raise
    except ValueError as exc:
        raise MeshError(f"{path}: malformed mesh file: {exc}") from exc
    mesh = TriMesh(vertices, triangles)
    if not np.array_equal(mesh.boundary_vertex, flags):
        bad = int(np.argmax(mesh.boundary_vertex != flags))
        raise MeshError(f"{path}: stored boundary flag of vertex {bad} "
                        "contradicts the mesh topology")
    return mesh
