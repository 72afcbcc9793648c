"""Nodal piecewise-linear functions on triangulations."""

import numpy as np

from .mesh import MeshError, locate_point


class FemFunction:
    """Piecewise-linear function given by one coefficient per mesh vertex.

    A function belongs to the homogeneous Dirichlet space when its
    coefficients vanish at boundary vertices; `interpolate` does not
    enforce that, callers decide.
    """

    def __init__(self, mesh, coeffs):
        coeffs = np.array(coeffs, dtype=float)
        if coeffs.shape != (mesh.num_vertices,):
            raise ValueError(f"expected {mesh.num_vertices} coefficients, "
                             f"got shape {coeffs.shape}")
        coeffs.setflags(write=False)
        self.mesh = mesh
        self.coeffs = coeffs

    @classmethod
    def zeros(cls, mesh):
        return cls(mesh, np.zeros(mesh.num_vertices))

    def copy(self):
        return FemFunction(self.mesh, self.coeffs.copy())

    def in_dirichlet_space(self):
        """True when all boundary coefficients vanish."""
        return not np.any(self.coeffs[self.mesh.boundary_vertex])

    def max_norm(self):
        """Maximum absolute nodal value (the sup norm of a P1 function)."""
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def __call__(self, x, y):
        """Evaluate at a single point via point location."""
        k, bary = locate_point(self.mesh, (x, y))
        return float(self.coeffs[self.mesh.triangles[k]] @ bary)


def interpolate(mesh, g):
    """Nodal (Lagrange) interpolant of a pointwise function.

    Parameters
    ----------
    mesh : TriMesh
    g : callable
        Evaluated as g(x, y) on coordinate arrays; scalar-valued callables
        broadcast.

    Returns
    -------
    FemFunction
        Coefficients g(vertex); boundary values are kept as returned.
    """
    x = mesh.vertices[:, 0]
    y = mesh.vertices[:, 1]
    values = np.broadcast_to(np.asarray(g(x, y), dtype=float), x.shape).copy()
    if not np.all(np.isfinite(values)):
        i = int(np.argmin(np.isfinite(values)))
        raise ValueError(f"interpolated function is not finite at vertex {i} "
                         f"({x[i]:g}, {y[i]:g})")
    return FemFunction(mesh, values)


def prolongate(u, fine):
    """Express a coarse-mesh function exactly on a nested finer mesh.

    `fine` must be obtained from u's mesh by repeated uniform refinement.
    At each level the parent vertices keep their values and every midpoint
    vertex nv_parent + e receives the mean of the ends of parent edge e,
    which reproduces the same piecewise-linear function, so every norm is
    preserved exactly. The sums are those of a product with the CSR matrix
    of this transfer, bit for bit: adding 0.0 makes a negative zero
    positive, as such a product's sums, which start from 0.0, do.
    """
    chain = []
    m = fine
    while m is not None and m is not u.mesh:
        chain.append(m)
        m = m.parent
    if m is not u.mesh:
        raise MeshError("target mesh is not a refinement descendant of the "
                        "function's mesh")
    coeffs = u.coeffs
    for child in reversed(chain):
        ends = np.take(coeffs, child.parent.edges())
        ends *= 0.5
        coeffs = np.concatenate([coeffs, ends[:, 0] + ends[:, 1]])
        coeffs += 0.0
    return FemFunction(fine, coeffs)


def write_function(u, path):
    """Write nodal values in the text format: `nv`, then one value per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{u.coeffs.size}\n")
        for value in u.coeffs:
            fh.write(f"{value:.16e}\n")


def read_function(mesh, path):
    """Read nodal values written by `write_function` for the given mesh."""
    with open(path, encoding="utf-8") as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty function file")
    try:
        nv = int(lines[0][1])
        values = np.array([float(s) for _, s in lines[1:]])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed function file: {exc}") from None
    if nv != mesh.num_vertices:
        raise ValueError(f"{path}: file holds {nv} values, mesh has "
                         f"{mesh.num_vertices} vertices")
    if len(lines) != 1 + nv:
        raise ValueError(f"{path}: expected {1 + nv} lines, found {len(lines)}")
    if not np.all(np.isfinite(values)):
        i = int(np.argmin(np.isfinite(values)))
        lineno, text = lines[1 + i]
        raise ValueError(f"{path}:{lineno}: value of vertex {i} is not finite ({text})")
    return FemFunction(mesh, values)
