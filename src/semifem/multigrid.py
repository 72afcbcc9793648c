"""Symmetric multigrid V-cycle on a mesh's refinement hierarchy.

The cycle preconditions conjugate gradients for the systems of `solver`
and `analysis`, which act on the interior unknowns only (the homogeneous
Dirichlet constraint is imposed by restriction). It runs on the chain
mesh, mesh.parent, ... with the exact nested prolongations
`TriMesh.interior_prolongation`, Galerkin coarse operators P^T A P, damped
Jacobi smoothing with equal sweep counts before and after the coarse
correction, and an exact solve on the coarsest level. One rule ends the
chain: it descends while the system has more than DENSE_COARSE_SIZE
unknowns and a coarser space exists, that is, the mesh has a parent with
interior vertices. A system of at most that size, on a refined mesh or
not, gets a one-level hierarchy, where the cycle is the exact solve.
"""

from functools import partial

import numpy as np
from scipy import sparse

# Damped Jacobi with weight omega: each sweep contracts in the energy norm,
# and the symmetric cycle is positive definite, when omega * lambda_max(D^-1 A)
# < 2. Per level omega = min(SMOOTHING_WEIGHT, 1.9 / g), where the Gershgorin
# bound g = max_i sum_j |a_ij| / a_ii >= lambda_max(D^-1 A). P1 stiffness plus
# a mass matrix has g of 2 to 2.6 on the preset domains; the slope-weighted
# Jacobians of steep reaction terms reach g > 10 and lambda_max(D^-1 A) > 2.5.
SMOOTHING_WEIGHT = 0.8
SMOOTHING_SWEEPS = 2

# The coarsest level is the first system of at most this size; it is
# inverted densely, and each cycle applies the inverse as one dense matvec
# (141 unknowns on pentagon level 3, 113 on the unit square). Larger ones,
# met only where no coarser space exists, get sparse LU, so a refined
# preset mesh never loads scipy.sparse.linalg (about 90 ms and 9 MiB).
DENSE_COARSE_SIZE = 200


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
        to the first system of at most DENSE_COARSE_SIZE unknowns, to the
        root, or to the last mesh above an ancestor without interior
        vertices.
    matrix : scipy.sparse matrix
        SPD operator on the interior unknowns, `mesh.interior_vertices`
        in that order.

    The coarse operators are built once here, so build one instance per
    system matrix. Each smoothed level keeps one record (operator, Jacobi
    weights, prolongation P, restriction P^T as CSR); P and P^T are the
    ones each mesh builds once and caches. The instance holds
    matrices only, no reference to the mesh, and forms no reference cycle.
    """

    def __init__(self, mesh, matrix):
        a = matrix.tocsr()
        self._levels = []
        while mesh.parent is not None and a.shape[0] > DENSE_COARSE_SIZE:
            p, restriction = mesh.interior_prolongation(), mesh.interior_restriction()
            if p.shape[1] == 0:
                break
            diag = a.diagonal()
            magnitudes = sparse.csr_matrix((np.abs(a.data), a.indices, a.indptr), shape=a.shape)
            gershgorin = np.max(magnitudes @ np.ones(a.shape[0]) / diag)
            weight = min(SMOOTHING_WEIGHT, 1.9 / gershgorin) / diag
            self._levels.append((a, weight, p, restriction))
            a = restriction @ (a @ p)
            # The product's rows are unsorted, and the matvecs sum in index order.
            a.sort_indices()
            mesh = mesh.parent
        self._coarse_solve = _exact_solver(a)

    def __call__(self, r):
        """V-cycle from a zero guess, levels visited fine to coarse and back."""
        smoothed = []
        for a, w, _, restriction in self._levels:
            x = w * r
            for _ in range(SMOOTHING_SWEEPS - 1):
                x += w * (r - a @ x)
            smoothed.append((r, x))
            r = restriction @ (r - a @ x)
        x = self._coarse_solve(r)
        for (a, w, p, _), (r, fine) in zip(reversed(self._levels), reversed(smoothed)):
            fine += p @ x
            for _ in range(SMOOTHING_SWEEPS):
                fine += w * (r - a @ fine)
            x = fine
        return x
