"""Damped Newton solution of the discrete semilinear system.

The discrete problem A u + N(u) = F (stiffness, reaction integrals, load)
has a unique solution for monotone reaction terms. The homogeneous
Dirichlet constraint is imposed by restriction: the unknowns are the
values at `mesh.interior_vertices`, every system is the interior block
matrix[i][:, i] of the assembled matrix, and its solution is embedded
into the full coefficient vector with zero boundary values. Each Newton
step linearizes the reaction with a floored symmetric difference
quotient, which stays finite and nonnegative across kinks of
non-Lipschitz terms, and solves the symmetric positive definite
correction system by conjugate gradients preconditioned with one multigrid
V-cycle on the mesh's refinement hierarchy (`multigrid.VCycle`), so the CG
iteration count stays bounded as the mesh is refined. Steps are globalized
by Armijo backtracking on the residual norm with a pseudo-transient mass
regularization as fallback. A solve without an initial iterate starts by
nested iteration: it solves on the mesh's ancestors first, coarse to fine,
and starts each finer mesh from the prolongated solution of the coarser one.
"""

from dataclasses import dataclass, field

import numpy as np

# Unused here; kept importable because benchmarks/tracing.py wraps solver.apply_dirichlet.
from .assembly import (apply_dirichlet, assemble_load, assemble_mass,
                       assemble_nonlinear_residual, assemble_slope_matrix,
                       assemble_stiffness)
from .femfunction import FemFunction
from .multigrid import VCycle
from .quadrature import edge_midpoint_rule, rule_of_degree


class SolverError(RuntimeError):
    """Numerical failure; carries the residual history when available."""

    def __init__(self, message, residual_history=None, best=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])
        self.best = best


class IndefiniteSystemError(SolverError):
    """p^T A p <= 0 observed inside CG: the assembled operator is broken."""


class CgError(SolverError):
    """Conjugate gradients failed to reach the requested tolerance."""


class NewtonError(SolverError):
    """Newton iteration failed; `best` holds the best iterate found."""


@dataclass
class SolverConfig:
    """Tolerances and safeguards of the Newton solver.

    residual_tol is absolute on the Euclidean residual norm scaled by
    1/sqrt(n), n the vertex count; slope_floor is the denominator floor of
    the difference quotient and also the half-width of the symmetric
    difference; cg_maxit = 0 means 10 times the number of interior
    unknowns. continuation_sigma0 = 0 leaves the
    pseudo-transient fallback to start at 1e-3 when triggered.
    """

    residual_tol: float = 1e-10
    max_newton: int = 50
    slope_floor: float = 1e-6
    armijo_beta: float = 0.5
    armijo_c: float = 1e-4
    min_step: float = 2.0 ** -20
    cg_tol: float = 1e-12
    cg_maxit: int = 0
    continuation_sigma0: float = 0.0
    quad_degree: int = 5

    def __post_init__(self):
        if self.residual_tol <= 0 or self.cg_tol <= 0 or self.slope_floor <= 0:
            raise ValueError("tolerances and the slope floor must be positive")
        if self.max_newton < 1:
            raise ValueError("max_newton must be at least 1")
        if not 0.0 < self.armijo_beta < 1.0:
            raise ValueError("armijo_beta must lie in (0, 1)")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must lie in (0, 1)")
        if not 0.0 < self.min_step <= 1.0:
            raise ValueError("min_step must lie in (0, 1]")
        if self.quad_degree < 0:
            raise ValueError("quad_degree must be nonnegative")
        rule_of_degree(self.quad_degree)  # raises for a degree no shipped rule serves


@dataclass
class LevelStats:
    """Work of one mesh of a solve: its refinement level, Newton steps and CG iterations."""

    level: int
    newton_iterations: int
    cg_iterations: int


@dataclass
class SolveStats:
    """Iteration counts and the certified final residual of one solve.

    A cold solve also works on the mesh's ancestors (see
    `solve_semilinear`). newton_iterations, total_cg_iterations,
    damping_activations, residual_history and cg_residuals count the whole
    call, every mesh included; levels holds one `LevelStats` per mesh
    solved, coarse to fine, ending with the requested mesh, and its counts
    sum to the totals. Each mesh adds its starting residual and one entry
    per Newton step to residual_history. final_residual_norm is that of
    the requested mesh. cg_residuals holds, per CG call in call order, the
    true relative residual ||A x - b|| / ||b|| of the returned correction
    (0 for b = 0).
    """

    newton_iterations: int = 0
    total_cg_iterations: int = 0
    final_residual_norm: float = np.inf
    damping_activations: int = 0
    residual_history: list = field(default_factory=list)
    cg_residuals: list = field(default_factory=list)
    levels: list = field(default_factory=list)


def cg_solve(matrix, rhs, tol=1e-12, maxit=None, preconditioner=None):
    """Preconditioned conjugate gradients for SPD systems.

    Parameters
    ----------
    matrix : scipy.sparse matrix
        Symmetric positive definite (after constraints).
    rhs : ndarray
    tol : float
        Relative tolerance: the returned x satisfies
        ||matrix x - rhs|| <= tol * ||rhs||, unless the true residual
        stagnates first (see below).
    maxit : int or None
        Iteration cap; defaults to 10 times the system dimension.
    preconditioner : callable or None
        r -> M^-1 r for an SPD approximation M of matrix, such as a
        `multigrid.VCycle`. None uses the diagonal (Jacobi), which is the
        reference path.

    Returns
    -------
    (ndarray, int)
        Solution and the number of iterations used.

    When the recursive residual meets the tolerance, the true residual is
    recomputed; if it misses, CG restarts from it. If a recomputed true
    residual is no smaller than the best one before it, the tolerance lies
    below the accuracy the recursion can attain (Greenbaum 1997), and the
    iterate with the smallest true residual is returned. Callers that need
    the bound check ||matrix x - rhs|| themselves.

    Raises
    ------
    IndefiniteSystemError
        When a search direction has nonpositive curvature.
    CgError
        On non-convergence within maxit, or when the preconditioner is not
        positive definite; carries the residual history.
    """
    n = matrix.shape[0]
    if maxit is None or maxit <= 0:
        maxit = 10 * n
    rhs = np.asarray(rhs, dtype=float)
    rhs_norm = np.linalg.norm(rhs)
    x = np.zeros(n)
    if rhs_norm == 0.0:
        return x, 0
    diag = matrix.diagonal()
    if np.any(diag <= 0.0):
        k = int(np.argmin(diag))
        raise IndefiniteSystemError(
            f"nonpositive diagonal entry {diag[k]:.3e} at row {k}")
    if preconditioner is None:
        preconditioner = lambda r: r / diag
    history = []

    def direction(r):
        z = preconditioner(r)
        rz = r @ z
        if not rz > 0.0:
            raise CgError(f"preconditioner is not positive definite (r^T M^-1 r = "
                          f"{rz:.3e} in CG iteration {len(history)})",
                          residual_history=history)
        return z, rz

    r = rhs.copy()
    z, rz = direction(r)
    p = z.copy()
    best_res, best_x = np.inf, x
    for it in range(1, maxit + 1):
        ap = matrix @ p
        pap = p @ ap
        if pap <= 0.0:
            raise IndefiniteSystemError(
                f"nonpositive curvature p^T A p = {pap:.3e} in CG iteration {it}",
                residual_history=history)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        res = np.linalg.norm(r)
        history.append(res)
        if res <= tol * rhs_norm:
            # Guard against recurrence drift before declaring victory.
            r = rhs - matrix @ x
            res = np.linalg.norm(r)
            if res <= tol * rhs_norm:
                return x, it
            if res >= best_res:
                return best_x, it
            best_res, best_x = res, x.copy()
            z, rz = direction(r)
            p = z.copy()
            continue
        z, rz_next = direction(r)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise CgError(f"CG did not reach tolerance {tol:g} within {maxit} iterations "
                  f"(last residual {history[-1]:.3e}, target {tol * rhs_norm:.3e})",
                  residual_history=history)


def solve_semilinear(mesh, d, f, cfg=None, initial=None):
    """Solve the constrained system A u + N(u) = F for a monotone reaction term.

    Parameters
    ----------
    mesh : TriMesh
    d : Nonlinearity
        Monotone non-decreasing in u.
    f : callable
        Right-hand side, evaluated as f(x, y).
    cfg : SolverConfig, optional
        Its max_newton caps the Newton steps on each mesh solved.
    initial : FemFunction, optional
        Starting iterate on the same mesh; boundary values are zeroed.
        Without it the solve starts by nested iteration: it first solves
        on the ancestors mesh.parent, ... down to the root or to the first
        ancestor without interior vertices (the levels of
        `multigrid.VCycle`), coarse to fine, and starts each mesh from the
        prolongated solution of the one below. The coarsest of them, and a
        mesh without parent, starts from the solution of the linear
        problem with the reaction frozen at d(x, 0). An ancestor whose
        start already meets residual_tol takes no Newton step, and one
        that raises NewtonError hands its best iterate on.

    Returns
    -------
    (FemFunction, SolveStats)
        The discrete solution, zero at boundary vertices, whose scaled
        residual norm is at most cfg.residual_tol, plus iteration counts
        of the whole call and per mesh solved.

    Raises
    ------
    NewtonError
        If max_newton iterations on the requested mesh do not reach the
        tolerance; carries the best iterate on it and the residual history.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    if initial is not None and initial.mesh is not mesh:
        raise ValueError("initial guess lives on a different mesh")
    levels = [mesh]
    while initial is None and levels[0].parent is not None \
            and levels[0].parent.interior_vertices.size:
        levels.insert(0, levels[0].parent)

    stats = SolveStats()
    coeffs = None if initial is None else initial.coeffs
    for k, level in enumerate(levels):
        if k:
            coeffs = level.prolongation() @ coeffs
        newton, cg = stats.newton_iterations, stats.total_cg_iterations
        try:
            coeffs = _newton(level, d, f, cfg, coeffs, stats, requested=level is mesh)
        except NewtonError as exc:
            if level is mesh:
                raise
            coeffs = exc.best.coeffs
        finally:
            stats.levels.append(LevelStats(level.level, stats.newton_iterations - newton,
                                           stats.total_cg_iterations - cg))
    return FemFunction(mesh, coeffs), stats


def _newton(mesh, d, f, cfg, start, stats, requested):
    """Damped Newton iteration on one mesh; returns the solution's coefficients.

    start holds coefficients on the mesh, of which the interior entries
    are used, or is None for the frozen-reaction start. Counts are added
    to stats, and final_residual_norm is set on success. The requested
    mesh takes at least one step; another mesh takes none when its start
    already meets the tolerance. Raises NewtonError with the best iterate.
    """
    nv = mesh.num_vertices
    interior = mesh.interior_vertices
    scale = 1.0 / np.sqrt(nv)
    quad = rule_of_degree(cfg.quad_degree)

    stiffness = assemble_stiffness(mesh)
    mass = assemble_mass(mesh)
    load = assemble_load(mesh, f, edge_midpoint_rule())

    def correction(matrix, rhs):
        """Interior unknowns x of matrix[i][:, i] x = rhs, by V-cycle CG."""
        block = matrix[interior][:, interior]
        x, used = cg_solve(block, rhs, cfg.cg_tol, cfg.cg_maxit,
                           preconditioner=VCycle(mesh, block))
        stats.total_cg_iterations += used
        rhs_norm = np.linalg.norm(rhs)
        stats.cg_residuals.append(
            float(np.linalg.norm(block @ x - rhs) / rhs_norm) if rhs_norm > 0.0 else 0.0)
        return x

    def residual(coeffs):
        """Interior entries of A u + N(u) - F."""
        reaction = assemble_nonlinear_residual(mesh, d, FemFunction(mesh, coeffs), quad)
        return (stiffness @ coeffs + reaction - load)[interior]

    # Iterates and corrections are full coefficient vectors with zero boundary
    # entries: only interior entries are assigned, and trials are their sums.
    u, delta = np.zeros(nv), np.zeros(nv)
    if start is not None:
        u[interior] = start[interior]
    else:
        frozen = assemble_nonlinear_residual(mesh, d, FemFunction.zeros(mesh), quad)
        u[interior] = correction(stiffness, (load - frozen)[interior])

    res = residual(u)
    res_norm = np.linalg.norm(res) * scale
    stats.residual_history.append(res_norm)
    best_norm, best_u = res_norm, u.copy()
    tau = cfg.slope_floor

    for iteration in range(1, cfg.max_newton + 1):
        if res_norm <= cfg.residual_tol and (iteration > 1 or not requested):
            break
        stats.newton_iterations += 1
        slope = assemble_slope_matrix(
            mesh, d, FemFunction(mesh, u + tau), FemFunction(mesh, u - tau),
            cfg.slope_floor, quad)
        delta[interior] = correction(stiffness + slope, -res)

        step = 1.0
        accepted = False
        while step >= cfg.min_step:
            trial = u + step * delta
            trial_res = residual(trial)
            trial_norm = np.linalg.norm(trial_res) * scale
            # A trial below the global tolerance is always good enough,
            # even when the decrease test stalls at the roundoff floor.
            if trial_norm <= (1.0 - cfg.armijo_c * step) * res_norm \
                    or trial_norm <= cfg.residual_tol:
                accepted = True
                break
            step *= cfg.armijo_beta
        if accepted and step < 1.0:
            stats.damping_activations += 1

        if not accepted:
            # Step floor hit: restart the step from a mass-regularized
            # system, doubling sigma until the residual drops.
            stats.damping_activations += 1
            sigma = max(cfg.continuation_sigma0, 1e-3)
            while sigma <= 1e12:
                delta[interior] = correction(stiffness + slope + sigma * mass, -res)
                trial = u + delta
                trial_res = residual(trial)
                trial_norm = np.linalg.norm(trial_res) * scale
                if trial_norm < res_norm or trial_norm <= cfg.residual_tol:
                    accepted = True
                    break
                sigma *= 2.0
            if not accepted:
                raise NewtonError(
                    f"Newton step stalled at iteration {iteration}: no residual "
                    f"decrease even with mass regularization (residual {res_norm:.3e})",
                    residual_history=stats.residual_history,
                    best=FemFunction(mesh, best_u))

        u, res, res_norm = trial, trial_res, trial_norm
        stats.residual_history.append(res_norm)
        if res_norm < best_norm:
            best_norm, best_u = res_norm, u.copy()

    if res_norm > cfg.residual_tol:
        raise NewtonError(
            f"no convergence within {cfg.max_newton} Newton iterations "
            f"(residual {res_norm:.3e}, target {cfg.residual_tol:g})",
            residual_history=stats.residual_history,
            best=FemFunction(mesh, best_u))

    stats.final_residual_norm = res_norm
    return u


def verify_uniform_bound(u, reference, slack=1e-10):
    """Check the sup-norm bound ||u|| <= 2 ||reference|| + slack.

    Returns (passed, ratio) with ratio = ||u|| / ||reference|| (1.0 when
    both vanish, inf when only the reference does).
    """
    nu = u.max_norm()
    nr = reference.max_norm()
    if nr > 0.0:
        ratio = nu / nr
    else:
        ratio = 1.0 if nu == 0.0 else np.inf
    return nu <= 2.0 * nr + slack, ratio
