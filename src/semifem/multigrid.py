"""Symmetric multigrid V-cycle on a mesh's refinement hierarchy.

The cycle preconditions conjugate gradients for the systems of `solver`
and `analysis`, which act on the interior unknowns only (the homogeneous
Dirichlet constraint is imposed by restriction). It runs on the chain
mesh, mesh.parent, ... with the exact nested prolongations
`TriMesh.interior_prolongation`, Galerkin coarse operators P^T A P, damped
Jacobi smoothing with equal sweep counts before and after the coarse
correction, and an exact solve on the coarsest level. A mesh without
parent gets a one-level hierarchy, where the cycle is that exact solve.
"""

from functools import partial

import numpy as np

# Damped Jacobi with weight omega: each sweep contracts in the energy norm,
# and the symmetric cycle is positive definite, when omega * lambda_max(D^-1 A)
# < 2. Per level omega = min(SMOOTHING_WEIGHT, 1.9 / g), where the Gershgorin
# bound g = max_i sum_j |a_ij| / a_ii >= lambda_max(D^-1 A). P1 stiffness plus
# a mass matrix has g of 2 to 2.6 on the preset domains; the slope-weighted
# Jacobians of steep reaction terms reach g > 10 and lambda_max(D^-1 A) > 2.5.
SMOOTHING_WEIGHT = 0.8
SMOOTHING_SWEEPS = 2

# Coarsest systems up to this size are inverted densely. The root of a
# refinement hierarchy has a handful of interior vertices, so solves on
# refined meshes never load scipy.sparse.linalg (about 90 ms and 9 MiB).
DENSE_COARSE_SIZE = 500


def _exact_solver(matrix):
    """r -> matrix^-1 r for the SPD coarsest operator."""
    if matrix.shape[0] <= DENSE_COARSE_SIZE:
        inverse = np.linalg.inv(matrix.toarray())
        # Symmetrized, so the whole cycle stays symmetric to rounding.
        return partial(np.matmul, 0.5 * (inverse + inverse.T))
    from scipy.sparse.linalg import splu
    return splu(matrix.tocsc()).solve


class VCycle:
    """One symmetric V-cycle as a preconditioner: r -> approximately A^-1 r.

    Parameters
    ----------
    mesh : TriMesh
        The mesh of the system; its ancestors form the coarse levels, down
        to the root or to the first ancestor without interior vertices.
    matrix : scipy.sparse matrix
        SPD operator on the interior unknowns, `mesh.interior_vertices`
        in that order.

    The coarse operators are built once here, so build one instance per
    system matrix. The instance holds matrices only, no reference to the
    mesh, and forms no reference cycle.
    """

    def __init__(self, mesh, matrix):
        a = matrix.tocsr()
        self._operators = []
        self._weights = []
        self._prolongations = []
        while mesh.parent is not None and mesh.parent.interior_vertices.size:
            p = mesh.interior_prolongation()
            self._operators.append(a)
            diag = a.diagonal()
            gershgorin = np.max(abs(a) @ np.ones(a.shape[0]) / diag)
            self._weights.append(min(SMOOTHING_WEIGHT, 1.9 / gershgorin) / diag)
            self._prolongations.append(p)
            a = (p.T @ (a @ p)).tocsr()
            mesh = mesh.parent
        self._coarse_solve = _exact_solver(a)

    def __call__(self, r):
        """V-cycle from a zero guess, levels visited fine to coarse and back."""
        rhs, sols = [], []
        for a, w, p in zip(self._operators, self._weights, self._prolongations):
            x = w * r
            for _ in range(SMOOTHING_SWEEPS - 1):
                x += w * (r - a @ x)
            rhs.append(r)
            sols.append(x)
            r = p.T @ (r - a @ x)
        x = self._coarse_solve(r)
        for a, w, p, r, fine in zip(reversed(self._operators), reversed(self._weights),
                                    reversed(self._prolongations), reversed(rhs),
                                    reversed(sols)):
            fine += p @ x
            for _ in range(SMOOTHING_SWEEPS):
                fine += w * (r - a @ fine)
            x = fine
        return x
