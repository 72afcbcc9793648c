"""Galerkin assembly of the discrete operators for P1 elements.

All matrices are returned as `scipy.sparse.csr_matrix` with summed
duplicates and sorted column indices. Assembly is fully vectorized over
elements and deterministic, so repeated runs produce bitwise identical
operators.
"""

import numpy as np
from scipy import sparse

# Negative slope weights beyond this signal a non-monotone nonlinearity.
SLOPE_WEIGHT_TOL = 1e-12


def _element_geometry(mesh):
    """Areas and constant P1 basis gradients per element.

    Returns
    -------
    (ndarray, ndarray)
        Areas of shape (nt,) and gradients of shape (nt, 3, 2) where
        grads[k, j] is the gradient of the hat function of local vertex j
        on triangle k.
    """
    v = mesh.vertices
    t = mesh.triangles
    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    det = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) \
        - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0])
    grads = np.empty((t.shape[0], 3, 2))
    grads[:, 0, 0] = p1[:, 1] - p2[:, 1]
    grads[:, 0, 1] = p2[:, 0] - p1[:, 0]
    grads[:, 1, 0] = p2[:, 1] - p0[:, 1]
    grads[:, 1, 1] = p0[:, 0] - p2[:, 0]
    grads[:, 2, 0] = p0[:, 1] - p1[:, 1]
    grads[:, 2, 1] = p1[:, 0] - p0[:, 0]
    grads /= det[:, None, None]
    return 0.5 * det, grads


def _scatter_matrix(mesh, local):
    """Sum (nt, 3, 3) element matrices into a global CSR matrix."""
    t = mesh.triangles
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    nv = mesh.num_vertices
    mat = sparse.coo_matrix((local.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    mat.sort_indices()
    return mat


def _scatter_vector(mesh, local):
    """Sum (nt, 3) element vectors into a global array."""
    nv = mesh.num_vertices
    out = np.zeros(nv)
    for j in range(3):
        out += np.bincount(mesh.triangles[:, j], weights=local[:, j], minlength=nv)
    return out


def _quad_points_physical(mesh, bary):
    """Physical coordinates of one barycentric point in every element."""
    v = mesh.vertices
    t = mesh.triangles
    p = bary[0] * v[t[:, 0]] + bary[1] * v[t[:, 1]] + bary[2] * v[t[:, 2]]
    return p[:, 0], p[:, 1]


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
    areas, grads = _element_geometry(mesh)
    local = np.einsum("kjd,kld->kjl", grads, grads) * areas[:, None, None]
    return _scatter_matrix(mesh, local)


def assemble_mass(mesh):
    """Unconstrained P1 mass matrix, assembled in closed form per element."""
    template = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    areas, _ = _element_geometry(mesh)
    local = areas[:, None, None] * template[None, :, :]
    return _scatter_matrix(mesh, local)


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
    areas, _ = _element_geometry(mesh)
    local = np.zeros((mesh.num_triangles, 3))
    for bary, w in zip(quad.points, quad.weights):
        x, y = _quad_points_physical(mesh, bary)
        fq = np.broadcast_to(np.asarray(f(x, y), dtype=float), x.shape)
        _check_finite(fq, x, y, "right-hand side")
        local += (w * areas * fq)[:, None] * bary[None, :]
    return _scatter_vector(mesh, local)


def assemble_nonlinear_residual(mesh, d, u, quad):
    """Vector of integrals of d(x, u_h(x)) against every hat function.

    u_h is interpolated barycentrically at the quadrature points of each
    element and the reaction term is evaluated at the physical point.
    """
    areas, _ = _element_geometry(mesh)
    uloc = u.coeffs[mesh.triangles]
    local = np.zeros((mesh.num_triangles, 3))
    for bary, w in zip(quad.points, quad.weights):
        x, y = _quad_points_physical(mesh, bary)
        uq = uloc @ bary
        dq = np.broadcast_to(np.asarray(d(x, y, uq), dtype=float), x.shape)
        _check_finite(dq, x, y, "nonlinearity")
        local += (w * areas * dq)[:, None] * bary[None, :]
    return _scatter_vector(mesh, local)


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
        If a weight falls below the negative tolerance, signalling a
        non-monotone nonlinearity, or if floor is not positive.
    """
    if floor <= 0.0:
        raise ValueError(f"slope floor must be positive, got {floor!r}")
    areas, _ = _element_geometry(mesh)
    tri = mesh.triangles
    uloc = u.coeffs[tri]
    vloc = v.coeffs[tri]
    local = np.zeros((mesh.num_triangles, 3, 3))
    for bary, w in zip(quad.points, quad.weights):
        x, yq = _quad_points_physical(mesh, bary)
        uq = uloc @ bary
        vq = vloc @ bary
        e = uq - vq
        num = np.asarray(d(x, yq, uq), dtype=float) - np.asarray(d(x, yq, vq), dtype=float)
        b = np.sign(e) * num / np.maximum(np.abs(e), floor)
        _check_finite(b, x, yq, "slope weight")
        worst = b.min() if b.size else 0.0
        if worst < -SLOPE_WEIGHT_TOL:
            k = int(np.argmin(b))
            raise ValueError(
                f"negative slope weight {worst:.3e} at point ({x[k]:g}, {yq[k]:g}): "
                "nonlinearity is not monotone non-decreasing")
        b = np.maximum(b, 0.0)
        local += (w * areas * b)[:, None, None] * np.outer(bary, bary)[None, :, :]
    return _scatter_matrix(mesh, local)


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
