"""Galerkin assembly of the discrete operators for P1 elements.

All matrices are returned as `scipy.sparse.csr_matrix` in canonical
format (sorted column indices, no duplicates) on the mesh's fixed
sparsity pattern, `TriMesh.matrix_pattern()`: the diagonal element entries
are summed per vertex and the off-diagonal ones per edge, straight into
the CSR data array, so every matrix of one mesh shares the pattern's
`indptr` and `indices`. Assembly is vectorized over elements and
deterministic, so repeated runs produce bitwise identical operators. The
quadrature-based assemblers gather the corner coordinates and values once
per call and loop over the quadrature points, which keeps their
temporaries of the size of the element count.
"""

import numpy as np
from scipy import sparse

# Negative slope weights beyond this signal a non-monotone nonlinearity.
SLOPE_WEIGHT_TOL = 1e-12

# The six distinct entries (a, b) of a symmetric 3 x 3 element matrix: the
# diagonal ones (j, j), then those of the local edges (j, j + 1) in the
# order of `TriMesh.triangle_edges`, smaller index first.
_UPPER = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)]
_MASS_UPPER = np.array([2.0 if a == b else 1.0 for a, b in _UPPER]) / 12.0


def element_corners(mesh):
    """Corner coordinates of every triangle, shape (2, nt, 3).

    corners[0][k, j] and corners[1][k, j] are the x and y coordinates of
    local vertex j of triangle k.
    """
    return np.take(np.ascontiguousarray(mesh.vertices.T), mesh.triangles, axis=1)


def element_geometry(mesh, corners):
    """Areas and constant P1 basis gradients per element.

    Parameters
    ----------
    mesh : TriMesh
    corners : ndarray
        The mesh's `element_corners`.

    Returns
    -------
    (ndarray, ndarray)
        Areas of shape (nt,) and gradients of shape (nt, 3, 2) where
        grads[k, j] is the gradient of the hat function of local vertex j
        on triangle k.
    """
    areas = mesh.signed_areas()
    cx, cy = corners
    grads = np.empty((2, 3, mesh.num_triangles))
    for j in range(3):
        a, b = (j + 1) % 3, (j + 2) % 3
        grads[0, j] = cy[:, a] - cy[:, b]
        grads[1, j] = cx[:, b] - cx[:, a]
    grads /= 2.0 * areas
    return areas, grads.transpose(2, 1, 0)


def quadrature_points(corners, bary):
    """Physical coordinates (x, y) of one barycentric point in every element."""
    return (corners.reshape(-1, 3) @ bary).reshape(2, -1)


def scatter_vector(mesh, local):
    """Sum (nt, 3) element vectors into a global array."""
    return np.bincount(mesh.triangles.ravel(), weights=local.ravel(),
                       minlength=mesh.num_vertices)


def _pattern_matrix(mesh, upper):
    """Sum symmetric element matrices into a CSR matrix on the mesh's pattern.

    upper has shape (6, nt): row i holds entry `_UPPER[i]` of every
    element matrix. The diagonal entries are summed per vertex in the
    order local vertex 0, 1, 2 of triangles 0, 1, ..., and the
    off-diagonal ones per edge, whose at most two terms give the same sum
    in either order; each edge sum fills both of its CSR entries.
    """
    indptr, indices, diagonal, off_diagonal = mesh.matrix_pattern()
    nv = mesh.num_vertices
    data = np.empty(indices.size)
    data[diagonal] = np.bincount(mesh.triangles.T.ravel(), weights=upper[:3].ravel(),
                                 minlength=nv)
    data[off_diagonal] = np.bincount(mesh.triangle_edges().T.ravel(),
                                     weights=upper[3:].ravel(),
                                     minlength=off_diagonal.shape[1])
    mat = sparse.csr_matrix((data, indices, indptr), shape=(nv, nv))
    mat.has_canonical_format = True
    return mat


def _check_finite(values, x, y, what):
    finite = np.isfinite(values)
    if not np.all(finite):
        k = int(np.argmin(finite))
        raise ValueError(f"{what} returned non-finite value at point "
                         f"({x[k]:g}, {y[k]:g})")


def assemble_stiffness(mesh):
    """Unconstrained stiffness matrix of the Laplacian.

    Exact for P1 elements since the basis gradients are constant per
    triangle; every row of the result sums to zero and the matrix is
    symmetric.
    """
    # The pattern is built before the element arrays exist, and those die
    # before the scatter, so neither adds to the peak of the other.
    mesh.matrix_pattern()
    return _pattern_matrix(mesh, _stiffness_upper(mesh))


def _stiffness_upper(mesh):
    """Element stiffness entries in the layout of `_pattern_matrix`."""
    areas, grads = element_geometry(mesh, element_corners(mesh))
    gx, gy = grads.transpose(2, 1, 0)
    return np.array([(gx[a] * gx[b] + gy[a] * gy[b]) * areas for a, b in _UPPER])


def assemble_mass(mesh):
    """Unconstrained P1 mass matrix, assembled in closed form per element."""
    return _pattern_matrix(mesh, np.multiply.outer(_MASS_UPPER, mesh.signed_areas()))


def assemble_load(mesh, f, quad):
    """Load vector with entries approximating the integral of f against each hat.

    Parameters
    ----------
    mesh : TriMesh
    f : callable
        Evaluated as f(x, y) on coordinate arrays; scalars broadcast.
    quad : QuadRule

    Raises
    ------
    ValueError
        If f is non-finite at any quadrature point; the message carries
        the physical location.
    """
    areas = mesh.signed_areas()
    corners = element_corners(mesh)
    local = np.zeros((3, mesh.num_triangles))
    for bary, w in zip(quad.points, quad.weights):
        x, y = quadrature_points(corners, bary)
        fq = np.broadcast_to(np.asarray(f(x, y), dtype=float), x.shape)
        _check_finite(fq, x, y, "right-hand side")
        s = w * areas * fq
        for row, weight in zip(local, bary):
            row += weight * s
    return scatter_vector(mesh, local.T)


def assemble_nonlinear_residual(mesh, d, u, quad):
    """Vector of integrals of d(x, u_h(x)) against every hat function.

    u_h is interpolated barycentrically at the quadrature points of each
    element and the reaction term is evaluated at the physical point.

    Raises
    ------
    ValueError
        If d is non-finite at any quadrature point; the message carries
        the physical location.
    """
    areas = mesh.signed_areas()
    corners = element_corners(mesh)
    uloc = u.coeffs[mesh.triangles]
    local = np.zeros((3, mesh.num_triangles))
    for bary, w in zip(quad.points, quad.weights):
        x, y = quadrature_points(corners, bary)
        uq = uloc @ bary
        dq = np.broadcast_to(np.asarray(d(x, y, uq), dtype=float), x.shape)
        _check_finite(dq, x, y, "nonlinearity")
        s = w * areas * dq
        for row, weight in zip(local, bary):
            row += weight * s
    return scatter_vector(mesh, local.T)


def assemble_slope_matrix(mesh, d, u, v, floor, quad):
    """Weighted mass matrix with the floored difference-quotient weight.

    At every quadrature point the weight is

        b(x) = sgn(e) * (d(x, u) - d(x, v)) / max(|e|, floor),  e = u - v,

    which is nonnegative for monotone d and bounded by the floor at the
    kinks of a non-Lipschitz nonlinearity. The result is symmetric
    positive semidefinite.

    Raises
    ------
    ValueError
        If a weight is non-finite or falls below the negative tolerance,
        signalling a non-monotone nonlinearity, or if floor is not
        positive.
    """
    if floor <= 0.0:
        raise ValueError(f"slope floor must be positive, got {floor!r}")
    return _pattern_matrix(mesh, _slope_upper(mesh, d, u, v, floor, quad))


def _slope_upper(mesh, d, u, v, floor, quad):
    """Element slope-matrix entries in the layout of `_pattern_matrix`.

    A helper of its own, so the gathered corners and nodal values are
    freed before the scatter.
    """
    areas = mesh.signed_areas()
    corners = element_corners(mesh)
    tri = mesh.triangles
    uloc = u.coeffs[tri]
    vloc = v.coeffs[tri]
    upper = np.zeros((len(_UPPER), mesh.num_triangles))
    for bary, w in zip(quad.points, quad.weights):
        x, y = quadrature_points(corners, bary)
        uq = uloc @ bary
        vq = vloc @ bary
        e = uq - vq
        num = np.asarray(d(x, y, uq), dtype=float) - np.asarray(d(x, y, vq), dtype=float)
        b = np.sign(e) * num / np.maximum(np.abs(e), floor)
        _check_finite(b, x, y, "slope weight")
        worst = b.min() if b.size else 0.0
        if worst < -SLOPE_WEIGHT_TOL:
            k = int(np.argmin(b))
            raise ValueError(
                f"negative slope weight {worst:.3e} at point ({x[k]:g}, {y[k]:g}): "
                "nonlinearity is not monotone non-decreasing")
        s = w * areas * np.maximum(b, 0.0)
        for row, (a, c) in zip(upper, _UPPER):
            row += (bary[a] * bary[c]) * s
    return upper


def apply_dirichlet(matrix, rhs, mesh):
    """Impose homogeneous Dirichlet values by symmetric elimination.

    Rows and columns of boundary vertices are zeroed, their diagonal is
    set to one and the matching right-hand side entries to zero. Symmetry
    of the input is preserved, so a conjugate-gradient solver stays
    applicable. Returns a new (csr_matrix, ndarray) pair. The solvers do
    not use it: they restrict systems to `mesh.interior_vertices`.
    """
    interior = ~mesh.boundary_vertex
    coo = matrix.tocoo()
    data = coo.data * interior[coo.row] * interior[coo.col]
    bnd = np.where(mesh.boundary_vertex)[0]
    rows = np.concatenate([coo.row, bnd])
    cols = np.concatenate([coo.col, bnd])
    data = np.concatenate([data, np.ones(bnd.size)])
    nv = mesh.num_vertices
    constrained = sparse.coo_matrix((data, (rows, cols)), shape=(nv, nv)).tocsr()
    constrained.eliminate_zeros()
    constrained.sort_indices()
    return constrained, np.where(interior, np.asarray(rhs, dtype=float), 0.0)
