"""Galerkin assembly of the discrete operators for P1 elements.

All matrices are returned as `scipy.sparse.csr_matrix` in canonical
format (sorted column indices, no duplicates) on the mesh's sparsity
pattern, `TriMesh.matrix_pattern()`, which each whole-mesh assembly
builds anew once its values are computed, so that the pattern's arrays
and the values' temporaries are never alive together; every such matrix
holds its own `indptr` and `indices`. A symmetric P1 matrix has one
value per vertex (its diagonal entry) and one per edge (both entries of
the edge): the diagonal element entries are summed per vertex and the
off-diagonal ones per edge into these nv + ne values, and the CSR data
array is one gather of them through the pattern's `source` map, taken in
chunks of `GATHER` entries. Assembly
is vectorized over elements and deterministic, so repeated runs produce
bitwise identical operators. Every matrix's values are the caller's own,
the stiffness's too: they are gathered from the mesh's vertex and edge
sums, which the first `stiffness_sums` on a mesh builds, with no (6, nt)
rows, and keeps, read-only, as long as the mesh lives, so the solver,
the V-cycle's levels and the studies share one copy.

The element matrices themselves are data too: `stiffness_upper`,
`mass_upper` and `assemble_slope_matrix` return their six distinct
entries per triangle as (6, nt) rows, `vertex_edge_sums` sums such rows
per vertex and per edge, and `pattern_matrix` gathers the sums into a
CSR matrix. `coarsen_upper` maps the rows of a refined mesh to those of
the Galerkin product P^T A P on its parent, and `values_interior_block`
gathers the block on the interior vertices of the matrix of given vertex
and edge values through `TriMesh.interior_pattern()`'s map, with no
full-pattern data array; `semifem.multigrid` builds its hierarchy from
these.

`element_blocks` is the one walk over the elements: it yields runs of
`BLOCK` consecutive triangles with their corner coordinates and areas.
The stiffness loops over it; every kernel that samples callables at
points of the elements loops over `element_samples`, which adds the flat
coordinates of all q points of every element of the run, point-major
(from `quadrature_points`), and the interpolants of the given nodal
arrays there. These are the load, reaction residual and slope matrix
here and the closed-form norms and Ritz load of `semifem.analysis`, and
each calls its callables once per block on the flat arrays of all q·n
points (the slope matrix calls d twice, at u and at v). The assembly
kernels call a callable whose `reads_position` is False (a
`nonlinearity.PowerLaw` with constant shift and weight, say) with
x = y = None; for it the walk gathers no corners and forms no
coordinates, only the interpolants, as a form compiler maps points to
physical space only when the integrand reads the coordinate. Where such
a kernel names a failing point, it forms that block's coordinates then,
as the walk forms them, so the message does not depend on the path.
The assembly kernels contract the samples with a per-rule table of
weight times hat values (Kirby & Logg, ACM TOMS 32, 2006), (3, q) for
the hat integrals and (6, q) for the slope matrix, in one matrix
product that makes the block's element rows, which are scaled by the
areas. The slope matrix
writes its (6, n) rows into its (6, nt) output; the hat integrals add
their (n, 3) rows into the output vector by `np.add.at` over the block's
triangles, which adds in the order of one bincount over the (nt, 3) rows
of all blocks, so the sums are that bincount's bit for bit and no
(nt, 3) array is made. Their temporaries are therefore of the block's
size, not the element count's; only the output vector and the slope
rows are of the mesh's size. Every element's arithmetic is the same as
in a single pass over all triangles, so the assembled result does not
depend on `BLOCK`. The load and the reaction residual are one kernel,
`_hat_integrals`.
"""

import weakref
from functools import partial

import numpy as np
from scipy import sparse

from .mesh import CHILD_CORNERS

# Negative slope weights beyond this signal a non-monotone nonlinearity.
SLOPE_WEIGHT_TOL = 1e-12

# Triangles per block of the element kernels. A quadrature kernel's
# temporaries are a dozen arrays of q times this length, and the Python
# work per block is small next to its arithmetic. At pentagon level 7 with
# the 7-point rule (median of 30, one BLAS thread, 2-CPU VM) blocks of
# 1024/2048/4096/8192/16384 triangles took 20/19/17/21/37 ms for the slope
# rows and 17/12/12/11/16 ms for the residual; at 4096 their traced peaks
# were 92 and 87 B per triangle, at 8192 128 and 98, when the residual
# wrote (nt, 3) rows. Adding each block's rows into the vector, the load
# and the residual peak at 26 and 33 B per triangle, nearly all of it the
# block's temporaries. The results do not depend on it.
BLOCK = 4096

# Entries per chunk of the gather of a matrix's data from its values. numpy
# casts int32 indices to intp before a gather: `take` casts all of them at
# once, fancy indexing casts them in small buffers. A `take` per chunk of
# this many entries keeps the cast small and in cache: at pentagon level 7
# (283 211 interior entries, 2-CPU VM) the interior stiffness gather took
# 0.32 ms against 0.80 ms by fancy indexing and 0.39 ms by one `take`,
# which holds 2.3 MB more for the cast; chunks of 4096/65536 entries took
# 0.40/0.34 ms. The gather's result is the same in every case.
GATHER = 16384

# The six distinct entries (a, b) of a symmetric 3 x 3 element matrix: the
# diagonal ones (j, j), then those of the local edges (j, j + 1) in the
# order of `TriMesh.triangle_edges`, smaller index first.
_UPPER = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)]
_MASS_UPPER = np.array([2.0 if a == b else 1.0 for a, b in _UPPER]) / 12.0


def _galerkin_map():
    """The (6, 24) map from four children's element rows to their parent's.

    Column 4 s + c holds the weights of entry `_UPPER[s]` of child c (of
    `CHILD_CORNERS`) in the parent's six entries of P^T A P, P the local
    nodal prolongation from the parent's vertices to its vertices and edge
    midpoints. Its entries are 0, 1/4, 1/2 and 1.
    """
    prolongation = np.zeros((6, 3))
    for j in range(3):
        prolongation[j, j] = 1.0
        prolongation[3 + j, [j, (j + 1) % 3]] = 0.5
    galerkin = np.zeros((len(_UPPER), len(_UPPER), 4))
    for c, corners in enumerate(CHILD_CORNERS):
        p = prolongation[list(corners)]
        for s, (i, j) in enumerate(_UPPER):
            # Entry (i, j) of the child's matrix, and (j, i) off the diagonal.
            weight = np.outer(p[i], p[j])
            if i != j:
                weight += weight.T
            galerkin[:, s, c] = [weight[a, b] for a, b in _UPPER]
    return galerkin.reshape(len(_UPPER), -1)


_GALERKIN = _galerkin_map()

# Each mesh's stiffness values, keyed weakly: they are freed with the mesh,
# which holds no reference to them.
_STIFFNESS = weakref.WeakKeyDictionary()


def basis_gradients(corners, areas):
    """P1 basis gradients of shape (2, 3, n) of n elements' corners and areas.

    grads[d, j, k] is component d (x, then y) of the gradient of the hat
    function of local vertex j on element k.
    """
    cx, cy = corners
    grads = np.empty((2, 3, areas.size))
    for j in range(3):
        a, b = (j + 1) % 3, (j + 2) % 3
        grads[0, j] = cy[:, a] - cy[:, b]
        grads[1, j] = cx[:, b] - cx[:, a]
    grads /= 2.0 * areas
    return grads


def quadrature_points(corners, points):
    """Physical coordinates (x, y) of a rule's (q, 3) barycentric points in
    every element, each of shape (q, n), point-major."""
    return points @ corners.transpose(0, 2, 1)


def element_blocks(mesh, corners=True):
    """Yield (block, corners, areas) for each run of `BLOCK` triangles.

    block is the slice of the run's triangles, corners their coordinates
    of shape (2, n, 3), corners[0][k, j] and corners[1][k, j] being the x
    and y coordinates of local vertex j of the run's triangle k, and areas
    their signed areas. With corners False no corners are gathered, and
    None stands in their place.
    """
    areas = mesh.signed_areas()
    for start in range(0, mesh.num_triangles, BLOCK):
        block = slice(start, start + BLOCK)
        yield block, _block_corners(mesh, block) if corners else None, areas[block]


def _block_corners(mesh, block):
    # Gathered per block: no copy of the whole vertex array is made.
    corners = np.take(mesh.vertices, mesh.triangles[block], axis=0)
    return np.ascontiguousarray(corners.transpose(2, 0, 1))


def element_samples(mesh, points, coeffs=(), positions=True):
    """Yield (block, corners, areas, x, y, values) for each run of `element_blocks`.

    points are (q, 3) barycentric points. x and y are the flat (q n,)
    coordinates of every point of every element of the run, point-major,
    and values holds, for each nodal array of coeffs, its interpolant at
    those points in the same layout. With positions False, for a callable
    that does not read position, the walk gathers no corners and forms no
    coordinates: corners, x and y are None, and only the interpolants and
    the areas are made.
    """
    for block, corners, areas in element_blocks(mesh, positions):
        x, y = _flat_points(corners, points) if positions else (None, None)
        tri = mesh.triangles[block]
        yield block, corners, areas, x, y, [(points @ c[tri].T).ravel() for c in coeffs]


def _flat_points(corners, points):
    return [xy.ravel() for xy in quadrature_points(corners, points)]


def _located(mesh, block, points, x, y):
    """The flat x and y of a run's points: x and y as `element_samples`
    yielded them, or, where it skipped them, formed now as it forms them."""
    return (x, y) if x is not None else _flat_points(_block_corners(mesh, block), points)


def vertex_edge_sums(mesh, upper):
    """Sum symmetric element matrices per vertex and per edge.

    upper has shape (6, nt), or is a sequence of six (nt,) rows: row i
    holds entry i of every element matrix, in the order (0, 0), (1, 1),
    (2, 2), (0, 1), (1, 2), (0, 2) of its triangle's local vertices.
    Returns the (nv + ne,) values of the assembled matrix: the diagonal
    entry of every vertex, then the entry of every edge of `mesh.edges()`.
    Each vertex sum adds local vertex 0 of all triangles in triangle
    order, then local vertex 1 of all of them, then local vertex 2;
    `stiffness_sums`, which streams its edge rows block by block, keeps
    its diagonal rows to keep this order and the sums' bits. The
    off-diagonal entries are summed per edge, whose at most two terms give
    the same sum in either order.
    """
    nv = mesh.num_vertices
    sums = np.zeros(nv + mesh.edges().shape[0])
    # np.add.at adds in index order, as one bincount over the stacked columns
    # would, but reads the index columns in place: a bincount needs them
    # flattened and cast to intp, up to 36 bytes per triangle of temporaries.
    for j in range(3):
        np.add.at(sums[:nv], mesh.triangles[:, j], upper[j])
        np.add.at(sums[nv:], mesh.triangle_edges()[:, j], upper[3 + j])
    return sums


def pattern_matrix(mesh, upper):
    """Sum symmetric element matrices into a CSR matrix on the mesh's pattern.

    upper is laid out as for `vertex_edge_sums`, whose every edge sum
    fills both CSR entries of its edge.
    """
    return _gathered(vertex_edge_sums(mesh, upper), mesh.matrix_pattern())


def _gathered(values, pattern):
    """The CSR matrix of vertex and edge values on a pattern (indptr, indices, source).

    Its data is values[source]; it shares the pattern's index arrays,
    which are canonical. The values come first, so that a caller's
    arguments compute them before a whole-mesh pattern is built.
    """
    indptr, indices, source = pattern
    n = indptr.size - 1
    data = np.empty(source.size)
    # The sources are in range, so "clip" clips nothing; with "raise", take
    # writes each chunk through a copy.
    for start in range(0, source.size, GATHER):
        chunk = slice(start, start + GATHER)
        np.take(values, source[chunk], out=data[chunk], mode="clip")
    mat = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
    mat.has_canonical_format = True
    return mat


class NonFiniteError(ValueError):
    """A callable or slope weight is not finite at a quadrature point."""


def check_finite(values, what, where):
    """Raise NonFiniteError naming `what` and the first point where values is not finite.

    where() returns the flat x and y of values' points. It is called only
    to name a failing point, so a walk that skipped the coordinates forms
    them only then.
    """
    finite = np.isfinite(values)
    if not np.all(finite):
        k = int(np.argmin(finite))
        x, y = where()
        raise NonFiniteError(f"{what} returned non-finite value at point "
                             f"({x[k]:g}, {y[k]:g})")


def assemble_stiffness(mesh):
    """The mesh's unconstrained stiffness matrix of the Laplacian.

    Exact for P1 elements since the basis gradients are constant per
    triangle; every row of the result sums to zero and the matrix is
    symmetric. Every call gathers the mesh's kept `stiffness_sums` into a
    new data array, the caller's own, over a new pattern.
    """
    return _gathered(stiffness_sums(mesh), mesh.matrix_pattern())


def stiffness_sums(mesh):
    """The mesh's stiffness values, as `vertex_edge_sums` gives them, read-only.

    They are built on the first call on a mesh, by `_streamed_stiffness_sums`,
    and kept as long as the mesh lives, so the solver, the V-cycle's
    levels and the studies share one copy.
    """
    if mesh not in _STIFFNESS:
        values = _streamed_stiffness_sums(mesh)
        values.setflags(write=False)
        _STIFFNESS[mesh] = values
    return _STIFFNESS[mesh]


def _streamed_stiffness_sums(mesh):
    """`vertex_edge_sums(mesh, stiffness_upper(mesh))` bit for bit, with no (6, nt) rows.

    The three diagonal rows are kept, since each vertex sum adds them in
    the order that `vertex_edge_sums` documents. Each block's three edge
    rows are added into the edge sums as they are made: an edge sum has
    at most two terms, so its bits do not depend on their order.
    """
    nv = mesh.num_vertices
    sums = np.zeros(nv + mesh.edges().shape[0])
    diagonal = np.empty((3, mesh.num_triangles))
    for block, corners, areas in element_blocks(mesh):
        rows = [*diagonal[:, block], *np.empty((3, areas.size))]
        _element_stiffness(corners, areas, rows)
        for j in range(3):
            np.add.at(sums[nv:], mesh.triangle_edges()[block, j], rows[3 + j])
    for j in range(3):
        np.add.at(sums[:nv], mesh.triangles[:, j], diagonal[j])
    return sums


def stiffness_upper(mesh):
    """Element stiffness entries in the layout of `vertex_edge_sums`."""
    upper = np.empty((len(_UPPER), mesh.num_triangles))
    for block, corners, areas in element_blocks(mesh):
        _element_stiffness(corners, areas, upper[:, block])
    return upper


def _element_stiffness(corners, areas, rows):
    """Write the six stiffness entries of a block's elements into its six rows."""
    gx, gy = basis_gradients(corners, areas)
    for row, (a, b) in zip(rows, _UPPER):
        row[:] = (gx[a] * gx[b] + gy[a] * gy[b]) * areas


def assemble_mass(mesh):
    """Unconstrained P1 mass matrix, assembled in closed form per element."""
    return _gathered(mass_sums(mesh), mesh.matrix_pattern())


def mass_sums(mesh):
    """The mesh's mass values, as `vertex_edge_sums` gives them.

    The element rows of `mass_upper` are 2/12 of the areas three times,
    then 1/12 of them three times; the two distinct rows are summed, not
    their (6, nt) stack.
    """
    areas = mesh.signed_areas()
    return vertex_edge_sums(mesh, (_MASS_UPPER[0] * areas,) * 3 + (_MASS_UPPER[3] * areas,) * 3)


def mass_upper(mesh):
    """Element mass entries in the layout of `vertex_edge_sums`."""
    return np.multiply.outer(_MASS_UPPER, mesh.signed_areas())


def assemble_load(mesh, f, quad):
    """Load vector with entries approximating the integral of f against each hat.

    Parameters
    ----------
    mesh : TriMesh
    f : callable
        Evaluated as f(x, y) on flat 1-D coordinate arrays holding all
        quadrature points of a block of elements, point-major; it must
        act elementwise. Scalars broadcast. If its `reads_position` is
        False, it is called as f(None, None). How many calls one assembly
        makes is not part of the API.
    quad : QuadRule

    Raises
    ------
    NonFiniteError
        If f is non-finite at any quadrature point, an overflow included,
        which raises no numpy warning; the message carries the physical
        location.
    """
    return _hat_integrals(mesh, f, (), quad, "right-hand side")


def assemble_nonlinear_residual(mesh, d, u, quad):
    """Vector of integrals of d(x, u_h(x)) against every hat function.

    u_h is interpolated barycentrically at the quadrature points of each
    element and the reaction term is evaluated at the physical point. d is
    called as d(x, y, u) on flat 1-D arrays holding all quadrature points
    of a block of elements, point-major, and must act elementwise; how
    many calls one assembly makes is not part of the API. A d whose
    `reads_position` is False is called as d(None, None, u), and no
    point's coordinates are formed unless one must be named in an error.

    Raises
    ------
    NonFiniteError
        If d is non-finite at any quadrature point, an overflow included,
        which raises no numpy warning; the message carries the physical
        location.
    ValueError
        If u lives on another mesh.
    """
    _check_mesh(mesh, u)
    return _hat_integrals(mesh, d, (u.coeffs,), quad, "nonlinearity")


def _check_mesh(mesh, *functions):
    for function in functions:
        if function.mesh is not mesh:
            raise ValueError(f"function lives on mesh {function.mesh!r}, "
                             f"not on the assembly's mesh {mesh!r}")


def _hat_integrals(mesh, g, coeffs, quad, what):
    """Integrals of g(x, y, *u_h) against every hat, u_h the interpolants of coeffs.

    g is called with x = y = None if its `reads_position` is False. A
    non-finite value of g, an overflow included, raises NonFiniteError
    naming `what` and the point, with no numpy warning.
    """
    # Entry (j, i) is weight i times hat j at point i of the rule.
    table = quad.weights * quad.points.T
    out = np.zeros(mesh.num_vertices)
    samples = element_samples(mesh, quad.points, coeffs, getattr(g, "reads_position", True))
    # An overflow in g is left to the finiteness check, which names the point.
    with np.errstate(over="ignore", invalid="ignore"):
        for block, _, areas, x, y, values in samples:
            gq = np.broadcast_to(np.asarray(g(x, y, *values), dtype=float),
                                 (len(quad) * areas.size,))
            check_finite(gq, what, partial(_located, mesh, block, quad.points, x, y))
            rows = gq.reshape(len(quad), -1).T @ table.T
            rows *= areas[:, None]
            # In the order of one bincount over the (nt, 3) rows of all blocks.
            np.add.at(out, mesh.triangles[block].ravel(), rows.ravel())
    return out


def assemble_slope_matrix(mesh, d, u, v, floor, quad):
    """Element rows of the weighted mass matrix with the floored difference-quotient weight.

    At every quadrature point the weight is

        b(x) = sgn(e) * (d(x, u) - d(x, v)) / max(|e|, floor),  e = u - v,

    which is nonnegative for monotone d and bounded by the floor at the
    kinks of a non-Lipschitz nonlinearity. d is called as d(x, y, u) on
    flat 1-D arrays holding all quadrature points of a block of elements,
    point-major, once at u and once at v, and must act elementwise; how
    many calls one assembly makes is not part of the API. A d whose
    `reads_position` is False is called as d(None, None, u), and no
    point's coordinates are formed unless one must be named in an error.
    The element
    matrices are returned unassembled, as (6, nt) rows in the layout of
    `vertex_edge_sums`, for `multigrid.VCycle` to sum and coarsen;
    `pattern_matrix` sums them into the matrix, which is symmetric positive
    semidefinite.

    Raises
    ------
    NonFiniteError
        If a weight is non-finite, an overflow of d included, which raises
        no numpy warning; the message carries the physical location.
    ValueError
        If a weight falls below the negative tolerance, signalling a
        non-monotone nonlinearity, if floor is not positive, or if u or v
        lives on another mesh.
    """
    _check_mesh(mesh, u, v)
    if floor <= 0.0:
        raise ValueError(f"slope floor must be positive, got {floor!r}")
    # Row s is weight i times the hat product of entry _UPPER[s] at point i.
    table = np.array([quad.weights * quad.points[:, a] * quad.points[:, c]
                      for a, c in _UPPER])
    upper = np.empty((len(_UPPER), mesh.num_triangles))
    samples = element_samples(mesh, quad.points, (u.coeffs, v.coeffs),
                              getattr(d, "reads_position", True))
    # An overflow in d is left to the finiteness check, which names the point.
    with np.errstate(over="ignore", invalid="ignore"):
        for block, _, areas, x, y, (uq, vq) in samples:
            e = uq - vq
            num = (np.asarray(d(x, y, uq), dtype=float)
                   - np.asarray(d(x, y, vq), dtype=float))
            b = np.sign(e) * num / np.maximum(np.abs(e), floor)
            where = partial(_located, mesh, block, quad.points, x, y)
            check_finite(b, "slope weight", where)
            k = int(np.argmin(b))
            if b[k] < -SLOPE_WEIGHT_TOL:
                x, y = where()
                raise ValueError(
                    f"negative slope weight {b[k]:.3e} at point ({x[k]:g}, {y[k]:g}): "
                    "nonlinearity is not monotone non-decreasing")
            rows = upper[:, block]
            np.matmul(table, np.maximum(b, 0.0).reshape(len(quad), -1), out=rows)
            rows *= areas
    return upper


def coarsen_upper(upper):
    """Element rows of the Galerkin product P^T A P on the parent of a refined mesh.

    upper holds the element rows of A, in the layout of `pattern_matrix`,
    on a mesh made by `refine_uniform`, whose triangles 4k..4k+3 are the
    children of parent triangle k. Only `refine_uniform` makes a mesh with
    a parent, so every refined mesh has this layout.
    P being the nodal prolongation, each parent element matrix of P^T A P
    is a fixed linear map of its four children's element matrices, so the
    returned (6, nt / 4) rows, summed by `pattern_matrix` on the parent,
    give P^T A P. The children are read in blocks of `BLOCK`, so no copy of
    the whole input is made.
    """
    n = upper.shape[1] // 4
    coarse = np.empty((len(_UPPER), n))
    for start in range(0, n, BLOCK // 4):
        stop = min(start + BLOCK // 4, n)
        children = upper[:, 4 * start:4 * stop].reshape(len(_UPPER), stop - start, 4)
        np.matmul(_GALERKIN, children.transpose(0, 2, 1).reshape(_GALERKIN.shape[1], -1),
                  out=coarse[:, start:stop])
    return coarse


def values_interior_block(mesh, values):
    """The interior block of the matrix with vertex and edge values, by one gather.

    values is laid out as `vertex_edge_sums` returns it. The result is a
    canonical CSR matrix that shares the index arrays of
    `mesh.interior_pattern()`.
    """
    return _gathered(values, mesh.interior_pattern())


def apply_dirichlet(matrix, rhs, mesh):
    """Impose homogeneous Dirichlet values by symmetric elimination.

    Rows and columns of boundary vertices are zeroed, their diagonal is
    set to one and the matching right-hand side entries to zero. Symmetry
    of the input is preserved, so a conjugate-gradient solver stays
    applicable. Returns a new (csr_matrix, ndarray) pair. The solvers do
    not use it: they restrict systems to `mesh.interior_vertices`.
    """
    interior = ~mesh.boundary_vertex
    keep = sparse.diags(interior.astype(float))
    constrained = sparse.csr_matrix(keep @ matrix @ keep
                                    + sparse.diags(mesh.boundary_vertex.astype(float)))
    constrained.eliminate_zeros()
    constrained.sort_indices()
    return constrained, np.where(interior, np.asarray(rhs, dtype=float), 0.0)
