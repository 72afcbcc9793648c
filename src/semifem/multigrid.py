"""Symmetric multigrid V-cycle on a mesh's refinement hierarchy.

The cycle preconditions conjugate gradients for the systems of `solver`
and `analysis`, which act on the interior unknowns only (the homogeneous
Dirichlet constraint is imposed by restriction). Their operator is the
stiffness matrix plus a reaction given by its element rows (a slope or
mass weight, or none). The cycle runs on the chain mesh, mesh.parent, ...
with the exact nested prolongations `TriMesh.interior_prolongation`,
Galerkin coarse operators P^T A P, damped Jacobi smoothing with equal
sweep counts before and after the coarse correction, and an exact solve
on the coarsest level.

The coarse operators are built as data on each mesh's fixed patterns,
with no sparse product: nested P1 stiffness is Galerkin-exact, P^T K P =
K_H, so a coarse level is its own mesh's stiffness plus the reaction rows
mapped element by element to the parent (`assembly.coarsen_upper`). One
rule builds every level, fine or coarse: the reaction rows are summed per
vertex and per edge (`assembly.vertex_edge_sums`), the mesh's read-only
stiffness sums (`assembly.stiffness_sums`, built once per mesh) are added
to those nv + ne values, and the interior block is one gather of them
(`assembly.values_interior_block`), so no data array of the whole
pattern is made; the Jacobi diagonal is read off the vertex sums. A fine
boundary vertex never prolongates from an interior coarse one, so the
interior block of the full product is the product of the interior
blocks.

One rule ends the chain: it descends while the system has more than
DENSE_COARSE_SIZE unknowns and a coarser space exists, that is, the mesh
has a parent with interior vertices. A system of at most that size, on a
refined mesh or not, gets a one-level hierarchy, where the cycle is the
exact solve.
"""

from functools import partial

import numpy as np
from scipy import sparse

from .assembly import coarsen_upper, stiffness_sums, values_interior_block, vertex_edge_sums

# Damped Jacobi with weight omega: each sweep contracts in the energy norm,
# and the symmetric cycle is positive definite, when omega * lambda_max(D^-1 A)
# < 2. Per level omega = min(SMOOTHING_WEIGHT, 1.9 / g), where the Gershgorin
# bound g = max_i sum_j |a_ij| / a_ii >= lambda_max(D^-1 A). P1 stiffness plus
# a mass matrix has g of 2 to 2.6 on the preset domains; the slope-weighted
# Jacobians of steep reaction terms reach g > 10 and lambda_max(D^-1 A) > 2.5.
SMOOTHING_WEIGHT = 0.8
SMOOTHING_SWEEPS = 2

# Rows per block of the Gershgorin sums of `_jacobi_weights`, which copy |a|
# and, in scipy's constructor, the column indices one block at a time: about
# 1.4 MB for 16384 rows of 7 entries. On a steep pentagon Jacobian (2-CPU VM)
# the sums take 0.7 ms at level 7 and 3.0 ms at level 8 in 11 blocks, against
# 0.5 and 2.0 ms for one copy of all of the operator's data; blocks of 8192
# rows peaked about as low in the traced level-7 V-cycle build.
GERSHGORIN_ROWS = 16384

# The coarsest level is the first system of at most this size (141 unknowns
# on pentagon level 3, 113 on the unit square). It is kept dense and solved
# by `np.linalg.solve` at each application: 0.2-0.3 ms at 141 unknowns,
# against about 1 ms to invert it once per operator, and a Newton correction
# applies the cycle about three times. LU leaves the cycle symmetric only to
# about 1e-14 relative. Larger ones, met only where no coarser space exists,
# get sparse LU, so a refined preset mesh never loads scipy.sparse.linalg
# (about 90 ms and 9 MiB); the dense case uses numpy alone, as scipy.linalg
# would add about 100 ms and 7 MiB to the import.
DENSE_COARSE_SIZE = 200


def _exact_solver(matrix):
    """r -> matrix^-1 r for the SPD coarsest operator."""
    if matrix.shape[0] <= DENSE_COARSE_SIZE:
        return partial(np.linalg.solve, matrix.toarray())
    from scipy.sparse.linalg import splu
    return splu(matrix.tocsc()).solve


def _jacobi_weights(a, diag):
    """omega / diag, omega from the Gershgorin bound (see SMOOTHING_WEIGHT).

    diag is a's diagonal. The row sums of |a| are taken over blocks of
    GERSHGORIN_ROWS rows, each by one matvec with ones of a CSR matrix over
    the block's data in absolute value, so each row is summed in its index
    order and no copy of all of a's data is made.
    """
    n = a.shape[0]
    ones = np.ones(n)
    sums = np.empty(n)
    for start in range(0, n, GERSHGORIN_ROWS):
        stop = min(start + GERSHGORIN_ROWS, n)
        first, last = a.indptr[start], a.indptr[stop]
        sums[start:stop] = sparse.csr_matrix(
            (np.abs(a.data[first:last]), a.indices[first:last], a.indptr[start:stop + 1] - first),
            shape=(stop - start, n)) @ ones
    gershgorin = np.max(sums / diag)
    return min(SMOOTHING_WEIGHT, 1.9 / gershgorin) / diag


def _interior_operator(mesh, reaction):
    """Interior block of the mesh's stiffness plus the matrix of the element rows reaction.

    Returns the block and its diagonal. The sum is taken on the vertex and
    edge values, so no entry that sums to exactly zero leaves the mesh's
    pattern, as scipy's sparse + would drop it.
    """
    values = stiffness_sums(mesh)
    if reaction is not None:
        values = vertex_edge_sums(mesh, reaction)
        values += stiffness_sums(mesh)
    return values_interior_block(mesh, values), values[mesh.interior_vertices]


class VCycle:
    """One symmetric V-cycle as a preconditioner: r -> approximately A^-1 r.

    Parameters
    ----------
    mesh : TriMesh
        The mesh of the system; its ancestors form the coarse levels, down
        to the first system of at most DENSE_COARSE_SIZE unknowns, to the
        root, or to the last mesh above an ancestor without interior
        vertices.
    reaction : ndarray of shape (6, nt), optional
        Element rows, in the layout of `assembly.vertex_edge_sums`, of a
        symmetric positive semidefinite matrix added to the stiffness, such
        as `assembly.assemble_slope_matrix(..., rows=True)` or
        `assembly.mass_upper`; None for the Poisson operator.

    The operator A is the block of the mesh's stiffness + reaction on the
    interior unknowns, `mesh.interior_vertices` in that order; it is kept
    as the CSR matrix `matrix`, which the caller's CG can use. The coarse
    operators are built once here, so build one instance per operator.
    Each smoothed level keeps one record (operator, Jacobi weights,
    prolongation P, restriction P^T as CSR); P and P^T are the ones each
    mesh builds once and caches. The instance holds matrices only, no
    reference to the mesh or to the reaction rows, and forms no reference
    cycle.
    """

    def __init__(self, mesh, reaction=None):
        a, diag = _interior_operator(mesh, reaction)
        self.matrix = a
        self._levels = []
        while mesh.parent is not None and a.shape[0] > DENSE_COARSE_SIZE:
            p, restriction = mesh.interior_prolongation(), mesh.interior_restriction()
            if p.shape[1] == 0:
                break
            self._levels.append((a, _jacobi_weights(a, diag), p, restriction))
            mesh = mesh.parent
            # P^T K P = K_H: the parent's own stiffness, plus the reaction's
            # rows carried one level down. Rows come out sorted by construction.
            if reaction is not None:
                reaction = coarsen_upper(reaction)
            a, diag = _interior_operator(mesh, reaction)
        self._coarse_solve = _exact_solver(a)

    def __call__(self, r):
        """V-cycle from a zero guess, levels visited fine to coarse and back."""
        smoothed = []
        for a, w, _, restriction in self._levels:
            x = w * r
            for _ in range(SMOOTHING_SWEEPS - 1):
                _sweep(a, w, r, x)
            smoothed.append((r, x))
            r = restriction @ _residual(a, r, x)
        x = self._coarse_solve(r)
        for (a, w, p, _), (r, fine) in zip(reversed(self._levels), reversed(smoothed)):
            fine += p @ x
            for _ in range(SMOOTHING_SWEEPS):
                _sweep(a, w, r, fine)
            x = fine
        return x


def _residual(a, r, x):
    """r - a @ x, in the array a @ x allocates."""
    residual = a @ x
    np.subtract(r, residual, out=residual)
    return residual


def _sweep(a, w, r, x):
    """One damped Jacobi sweep x += w * (r - a @ x), in place with one temporary."""
    update = _residual(a, r, x)
    update *= w
    x += update
