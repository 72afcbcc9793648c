"""Damped Newton solution of the discrete semilinear system.

The discrete problem A u + N(u) = F (stiffness, reaction integrals, load)
has a unique solution for monotone reaction terms. The homogeneous
Dirichlet constraint is imposed by restriction: the unknowns are the
values at `mesh.interior_vertices`, every system is the interior block
matrix[i][:, i] of the assembled matrix, and its solution is embedded
into the full coefficient vector with zero boundary values. Each Newton
step linearizes the reaction with a floored symmetric difference
quotient, which stays finite and nonnegative across kinks of
non-Lipschitz terms and whose half-width shrinks with the last step, and
solves the symmetric positive definite correction system by conjugate
gradients preconditioned with one multigrid V-cycle on the mesh's
refinement hierarchy (`multigrid.VCycle`), so the CG iteration count
stays bounded as the mesh is refined. The Jacobian is handed to the
cycle as the slope weight's element rows, which it adds to the mesh's
stiffness matrix to build the interior block and every coarse operator.
Steps are globalized by a regula falsi search on the directional derivative
of the convex energy whose gradient is the residual (`_line_search`). Each
correction is solved only as far as the mesh's Newton target needs: its
relative CG tolerance is FORCING times the target's share of the current
residual, floored at CG_TOL (inexact Newton forcing). Every solve works
by nested iteration: it starts on the mesh of the initial iterate, which
is the requested mesh or one of its ancestors, or on the root without
one, and solves each mesh after it up to the requested one, coarse to
fine, the ones before the requested mesh only to a fixed fraction of
their starting residual, starting each finer mesh from the prolongated
solution of the coarser one.
"""

from dataclasses import dataclass, field

import numpy as np

# apply_dirichlet, assemble_mass and assemble_stiffness are unused here: the
# Newton step takes the interior block of the stiffness from its kept sums.
# They stay importable because benchmarks/tracing.py wraps them by name in
# this namespace. It wraps the other assemblers here too, so the Newton step
# takes its slope rows from assemble_slope_matrix.
from .assembly import (NonFiniteError, apply_dirichlet, assemble_load, assemble_mass,
                       assemble_nonlinear_residual, assemble_slope_matrix,
                       assemble_stiffness, stiffness_sums, values_interior_block)
from .femfunction import FemFunction
from .multigrid import VCycle
from .quadrature import edge_midpoint_rule, rule_of_degree

LINE_SEARCH_RESIDUALS = 5
LINE_SEARCH_REDUCTION = 0.25

# A mesh solved below the requested one only supplies the next mesh's start,
# so its Newton loop stops once its scaled residual has fallen to this fraction
# of its own starting one (or to residual_tol, if that is larger). Each mesh of
# the pentagon kink problem starts about 4 times above the next one's start,
# so an ancestor left 1e4 below its start adds nothing visible to the next.
# On a cold level-7 kink solve any value from 1e-5 to 1e-3 gave about the
# same time; at 1e-2 level 7 needed 5 steps instead of 2 and the solve got
# slower than with every ancestor solved to residual_tol. 1e-4 keeps a
# factor 100 from that cliff.
ANCESTOR_REDUCTION = 1e-4

# A Newton correction's CG stops once its linear residual is FORCING times
# what the mesh's Newton target allows (the rule is stated in `_newton`).
# A tenth keeps the CG error well inside the target, and a step far above
# its target is not solved to a precision the next step discards
# (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 1996; Kelley, Iterative
# Methods for Linear and Nonlinear Equations, 1995, ch. 6, whose safeguard
# bounds the forcing term below by a multiple of target / r_k against this
# oversolving). On a cold level-7 kink solve it cut CG iterations from 135
# to 54 and left every mesh's Newton step count as it was.
FORCING = 0.1

# The floor of every Newton correction's relative CG tolerance, and the
# tolerance of the frozen-reaction start and of `analysis.ritz_project`.
CG_TOL = 1e-12

# The slope's half-width tau (also the floor of the quotient's
# denominator) is MAX_HALF_WIDTH on each mesh's first Newton step. After
# each step it becomes the length of that step, s * max|delta|, bounded to
# [MIN_HALF_WIDTH, MAX_HALF_WIDTH]: a difference increment that shrinks
# with the iteration (Kelley, Iterative Methods for Linear and Nonlinear
# Equations, 1995, ch. 5). With a fixed tau of 1e-6 the unit square with
# PowerLaw(50, 1/3, shift=0.02) stalled at level 6 under the 3-point
# interior rule. The floor keeps the two states about 900 ulps of a value
# of size 1 apart.
MIN_HALF_WIDTH = 1e-13
MAX_HALF_WIDTH = 1e-6


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
    """Newton iteration failed; `best` holds the best iterate found.

    `best` is None when the residual norm, a reaction value, a slope
    weight or the norm of the frozen-reaction start's right-hand side is
    not finite: the data overflow double precision, and a nested solve
    stops there.
    """


@dataclass
class SolverConfig:
    """Tolerances and safeguards of the Newton solver.

    residual_tol is absolute on the Euclidean residual norm scaled by
    1/sqrt(n), n the vertex count, and must be finite and positive.
    quad_degree selects the reaction's rule by `rule_of_degree`;
    the default 2 is the 3-point interior rule. Each Newton correction's
    relative CG tolerance is FORCING times the share of the current
    residual that the mesh's Newton target allows, floored at CG_TOL (see
    `_newton`).
    """

    residual_tol: float = 1e-10
    max_newton: int = 50
    quad_degree: int = 2

    def __post_init__(self):
        if not 0.0 < self.residual_tol < np.inf:
            raise ValueError(f"residual_tol must be finite and positive, "
                             f"got {self.residual_tol!r}")
        if self.max_newton < 1:
            raise ValueError("max_newton must be at least 1")
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

    A solve also works on ancestors of the mesh (see `solve_semilinear`):
    a cold solve on all of them, one started on an ancestor on the meshes
    in between. levels holds one `LevelStats` per mesh solved, coarse to
    fine, ending with the requested mesh; newton_iterations and
    total_cg_iterations are read-only sums of its counts.
    damping_activations, residual_history and cg_residuals count the whole
    call, every mesh included. damping_activations counts the Newton steps
    whose line search took a step below 1. Each mesh adds its starting
    residual and one entry per Newton step to residual_history.
    final_residual_norm is that of the requested mesh. cg_residuals holds,
    per CG call in call order, the true relative residual
    ||A x - b|| / ||b|| of the returned correction (0 for b = 0); a Newton
    correction's entry lies at its forcing tolerance, which can reach
    FORCING, not at CG_TOL.
    """

    final_residual_norm: float = np.inf
    damping_activations: int = 0
    residual_history: list = field(default_factory=list)
    cg_residuals: list = field(default_factory=list)
    levels: list = field(default_factory=list)

    @property
    def newton_iterations(self):
        return sum(level.newton_iterations for level in self.levels)

    @property
    def total_cg_iterations(self):
        return sum(level.cg_iterations for level in self.levels)


def _norm(x):
    """Euclidean norm of x; inf without a warning when it overflows.

    For the norms whose callers raise a SolverError when they are not finite.
    """
    with np.errstate(over="ignore"):
        return np.linalg.norm(x)


def cg_solve(matrix, rhs, tol=CG_TOL, maxit=None, preconditioner=None):
    """Preconditioned conjugate gradients for SPD systems.

    Parameters
    ----------
    matrix : scipy.sparse matrix
        Symmetric positive definite (after constraints).
    rhs : ndarray
    tol : float
        Relative tolerance, `CG_TOL` by default: the returned x satisfies
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
        When the norm of rhs is not finite, on non-convergence within maxit,
        or when the preconditioner is not positive definite; carries the
        residual history.
    """
    n = matrix.shape[0]
    if maxit is None or maxit <= 0:
        maxit = 10 * n
    rhs = np.asarray(rhs, dtype=float)
    rhs_norm = _norm(rhs)
    x = np.zeros(n)
    if rhs_norm == 0.0:
        return x, 0
    if not np.isfinite(rhs_norm):
        raise CgError(f"right-hand side norm is not finite ({rhs_norm}): "
                      "the data overflow double precision")
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
        Starting iterate on mesh or on one of its ancestors, the start
        mesh; its boundary values are zeroed, and its interior ones must
        be finite. The solve works by nested iteration: it solves every
        mesh after the start mesh up to mesh, coarse to fine, and starts
        each from the prolongated solution of the one below; an iterate
        on mesh itself is its start. Without
        an iterate the start mesh is the root, which is solved first from
        the solution of the linear problem with the reaction frozen at
        d(x, 0); a root without interior vertices has the zero solution
        and takes no step. A mesh below mesh is solved as an ancestor: it
        only supplies the next mesh's start, so its target is
        max(residual_tol, ANCESTOR_REDUCTION * r0), r0 its own starting
        scaled residual, and one whose start already meets residual_tol
        takes no Newton step. One that raises NewtonError with a best
        iterate hands it on.

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
        Also, with no best iterate, on any mesh whose residual norm, reaction
        value or slope weight, or the norm of the frozen-reaction start's
        right-hand side, is not finite; the message names the point where
        there is one.
    ValueError
        If f is not finite at a quadrature point, or the slope weight is
        negative there (d is not monotone); if initial lives on a mesh
        that is neither mesh nor one of its ancestors; or if an interior
        coefficient of initial is not finite.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    start = None if initial is None else initial.mesh
    levels = [mesh]
    while levels[0] is not start and levels[0].parent is not None:
        levels.insert(0, levels[0].parent)
    if start is not None and levels[0] is not start:
        raise ValueError(f"initial guess lives on mesh {start!r}, which is neither the "
                         f"requested mesh {mesh!r} nor one of its ancestors")

    stats = SolveStats()
    coeffs = None if initial is None else np.where(start.boundary_vertex, 0.0, initial.coeffs)
    if coeffs is not None and not np.all(np.isfinite(coeffs)):
        k = int(np.argmin(np.isfinite(coeffs)))
        x, y = start.vertices[k]
        raise ValueError(f"initial guess is {coeffs[k]} at interior vertex {k} "
                         f"({x:g}, {y:g})")
    for k, level in enumerate(levels):
        if k:
            # Interior to interior: the boundary coefficients are zero.
            fine = np.zeros(level.num_vertices)
            fine[level.interior_vertices] = \
                level.interior_prolongation() @ coeffs[levels[k - 1].interior_vertices]
            coeffs = fine
        if level is start and level is not mesh:
            continue  # an ancestor start is only handed on
        stats.levels.append(LevelStats(level.level, 0, 0))
        load = assemble_load(level, f, edge_midpoint_rule())
        try:
            coeffs = _newton(level, d, load, cfg, coeffs, stats, requested=level is mesh)
        except NonFiniteError as exc:
            raise NewtonError(f"{exc}: the data overflow double precision",
                              stats.residual_history) from None
        except NewtonError as exc:
            if level is mesh or exc.best is None:
                raise
            coeffs = exc.best.coeffs
    return FemFunction(mesh, coeffs), stats


def _newton(mesh, d, load, cfg, start, stats, requested):
    """Damped Newton iteration on one mesh; returns the solution's coefficients.

    load is the mesh's load vector. start holds coefficients on the mesh,
    of which the interior entries are used, or is None for the
    frozen-reaction start. The loop stops at
    cfg.residual_tol on the requested mesh, and on any other mesh at
    max(cfg.residual_tol, ANCESTOR_REDUCTION * r0), r0 the scaled residual
    of its start. Counts are added to stats, the Newton steps and CG
    iterations to its last `LevelStats`, which is this mesh's, and
    final_residual_norm is set on success. The requested mesh takes at
    least one step; another mesh takes none when its start already meets
    its target. Raises NewtonError with the best iterate when max_newton
    steps miss the target. The line search is given cfg.residual_tol on
    every mesh. A step at scaled residual r_k > 0 solves its correction to
    the relative CG tolerance
    max(CG_TOL, FORCING * min(target, r_k) / r_k), and one at r_k = 0
    to CG_TOL; the frozen-reaction start is solved to CG_TOL. The slope
    weight is the difference quotient of half-width and floor tau: the
    first step takes tau = MAX_HALF_WIDTH, and after a step of length s
    along the correction delta the next one takes
    min(MAX_HALF_WIDTH, max(MIN_HALF_WIDTH, s * max|delta|)). A reaction
    value or slope weight that is not finite raises the assembler's
    NonFiniteError, and a frozen-reaction right-hand side whose norm is
    not finite raises NewtonError without iterate, both without a numpy
    warning for the overflow.
    """
    nv = mesh.num_vertices
    interior = mesh.interior_vertices
    scale = 1.0 / np.sqrt(nv)
    quad = rule_of_degree(cfg.quad_degree)

    # The interior block K_II of the stiffness and the interior load F_I:
    # the residual's interior entries (K_II u_I + N_I) - F_I equal those of
    # (K u + N) - F bitwise, as the boundary columns multiply zeros.
    stiffness = values_interior_block(mesh, stiffness_sums(mesh))
    load = load[interior]

    def reaction_terms(assemble, *args, **kwargs):
        """assemble(mesh, d, ...), with an overflow of d left to its finiteness check."""
        with np.errstate(over="ignore", invalid="ignore"):
            return assemble(mesh, d, *args, **kwargs)

    def correction(reaction, rhs, tol):
        """Interior unknowns x of J x = rhs by V-cycle CG to tol.

        J is the interior block of the stiffness plus the matrix of the
        element rows reaction (None: the stiffness alone). Passed as a
        temporary, the rows are freed once the cycle is built, before CG.
        """
        cycle = VCycle(mesh, reaction)
        del reaction
        block = cycle.matrix
        x, used = cg_solve(block, rhs, tol, preconditioner=cycle)
        stats.levels[-1].cg_iterations += used
        rhs_norm = np.linalg.norm(rhs)
        stats.cg_residuals.append(
            float(np.linalg.norm(block @ x - rhs) / rhs_norm) if rhs_norm > 0.0 else 0.0)
        return x

    def residual(coeffs):
        """A u + N(u) - F with its boundary entries set to zero."""
        reaction = reaction_terms(assemble_nonlinear_residual, FemFunction(mesh, coeffs), quad)
        res = np.zeros(nv)
        res[interior] = stiffness @ coeffs[interior] + reaction[interior] - load
        return res

    # Iterates, corrections and residuals are full vectors with zero boundary
    # entries: only interior entries are assigned, and trials are their sums.
    u, delta = np.zeros(nv), np.zeros(nv)
    if start is not None:
        u[interior] = start[interior]
    else:
        frozen = reaction_terms(assemble_nonlinear_residual, FemFunction.zeros(mesh), quad)
        with np.errstate(over="ignore"):
            rhs = load - frozen[interior]
        if not np.isfinite(_norm(rhs)):
            raise NewtonError("frozen-reaction right-hand side norm is not finite: the data "
                              "overflow double precision", stats.residual_history)
        u[interior] = correction(None, rhs, CG_TOL)

    def scaled_norm(res):
        norm = _norm(res) * scale
        stats.residual_history.append(norm)
        if not np.isfinite(norm):
            raise NewtonError(f"residual norm is not finite ({norm}): the data overflow "
                              "double precision", stats.residual_history)
        return norm

    res = residual(u)
    res_norm = scaled_norm(res)
    best_norm, best_u = res_norm, u
    tau = MAX_HALF_WIDTH
    target = cfg.residual_tol if requested else max(cfg.residual_tol,
                                                    ANCESTOR_REDUCTION * res_norm)

    for iteration in range(1, cfg.max_newton + 1):
        if res_norm <= target and (iteration > 1 or not requested):
            break
        stats.levels[-1].newton_iterations += 1
        forcing_tol = CG_TOL if res_norm == 0.0 else max(
            CG_TOL, FORCING * min(target, res_norm) / res_norm)
        delta[interior] = correction(
            reaction_terms(assemble_slope_matrix, FemFunction(mesh, u + tau),
                           FemFunction(mesh, u - tau), tau, quad, rows=True),
            -res[interior], forcing_tol)
        try:
            step, u, res = _line_search(residual, u, delta, res, cfg.residual_tol, scale)
        except NewtonError as exc:
            raise NewtonError(f"{exc} at Newton iteration {iteration}", stats.residual_history,
                              FemFunction(mesh, best_u)) from None
        if step < 1.0:
            stats.damping_activations += 1
        tau = min(MAX_HALF_WIDTH, max(MIN_HALF_WIDTH, step * np.max(np.abs(delta))))
        res_norm = scaled_norm(res)
        if res_norm < best_norm:
            best_norm, best_u = res_norm, u

    if res_norm > target:
        raise NewtonError(
            f"no convergence within {cfg.max_newton} Newton iterations "
            f"(residual {res_norm:.3e}, target {target:g})",
            residual_history=stats.residual_history,
            best=FemFunction(mesh, best_u))

    stats.final_residual_norm = res_norm
    return u


def _line_search(residual, u, delta, res, tol, scale):
    """Step s along the Newton direction delta from u, where res = residual(u).

    For monotone d the residual is the gradient of a convex energy, so
    phi'(s) = residual(u + s delta) . delta is non-decreasing (Deuflhard
    2004; Nocedal & Wright 2006, ch. 3). With eta = LINE_SEARCH_REDUCTION,
    s = 1 is taken when its residual norm times scale is at most tol or
    phi'(1) <= eta |phi'(0)|; else regula falsi (Illinois) on [0, 1] stops
    at |phi'(s)| <= eta |phi'(0)| or at tol. After LINE_SEARCH_RESIDUALS
    residuals it takes the bracket's lower end if positive, else the last
    trial. Returns (s, u + s delta, its residual). Raises NewtonError,
    without iterate, if s = 1 misses tol and phi'(0) >= 0: delta is no
    descent direction.
    """
    trial = u + delta
    trial_res = residual(trial)
    if np.linalg.norm(trial_res) * scale <= tol:
        return 1.0, trial, trial_res
    slope0 = res @ delta
    if not slope0 < 0.0:
        raise NewtonError(f"no descent direction (phi'(0) = {slope0:.3e})")
    target = -LINE_SEARCH_REDUCTION * slope0
    a, fa, lower = 0.0, slope0, (u, res)
    b, fb, side = 1.0, trial_res @ delta, 0
    if fb <= target:
        return 1.0, trial, trial_res
    for _ in range(LINE_SEARCH_RESIDUALS - 1):
        s = a - fa * (b - a) / (fb - fa)
        trial = u + s * delta
        trial_res = residual(trial)
        fs = trial_res @ delta
        if abs(fs) <= target or np.linalg.norm(trial_res) * scale <= tol:
            return s, trial, trial_res
        # Illinois: an end kept twice in a row has its value halved.
        if fs < 0.0:
            a, fa, lower = s, fs, (trial, trial_res)
            if side < 0:
                fb *= 0.5
            side = -1
        else:
            b, fb = s, fs
            if side > 0:
                fa *= 0.5
            side = 1
    return (a, *lower) if a > 0.0 else (b, trial, trial_res)


def verify_uniform_bound(u, reference):
    """Check the sup-norm bound ||u|| <= 2 ||reference|| + 1e-10.

    Returns (passed, ratio) with ratio = ||u|| / ||reference|| (1.0 when
    both vanish, inf when only the reference does).
    """
    nu = u.max_norm()
    nr = reference.max_norm()
    if nr > 0.0:
        ratio = nu / nr
    else:
        ratio = 1.0 if nu == 0.0 else np.inf
    return nu <= 2.0 * nr + 1e-10, ratio
