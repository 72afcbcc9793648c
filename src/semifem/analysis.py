"""Error norms, Ritz projection, convergence orders, and the study harness.

Errors can be measured against a closed-form solution (value plus
gradient) or against a discrete reference on a nested finer mesh; in the
discrete case the coarse function is transferred exactly, so the computed
norms are exact for P1 functions.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .assembly import (assemble_mass, assemble_stiffness, element_corners,
                       element_geometry, quadrature_points, scatter_vector)
from .femfunction import FemFunction, prolongate
from .mesh import Polygon, mesh_size, preset_polygon, refine_uniform, \
    triangulate_convex_polygon
from .multigrid import VCycle
from .quadrature import rule_of_degree
from .solver import SolverConfig, SolverError, cg_solve, solve_semilinear


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form reference: value(x, y) and grad(x, y) -> (gx, gy)."""

    value: object
    grad: object


def _bary_lattice(degree):
    """Barycentric lattice {(i, j, k)/degree : i+j+k = degree}, vertices included."""
    pts = []
    for i in range(degree, -1, -1):
        for j in range(degree - i, -1, -1):
            pts.append((i / degree, j / degree, (degree - i - j) / degree))
    return np.array(pts)


def _nested_difference(u_h, truth):
    """Coefficients of truth - u_h on truth's mesh, u_h transferred there."""
    return truth.coeffs - prolongate(u_h, truth.mesh).coeffs


def _matrix_norm(e, matrix):
    """sqrt(e^T matrix e) for a symmetric positive semidefinite matrix."""
    return float(np.sqrt(e @ (matrix @ e)))


def error_l2(u_h, truth, quad=None):
    """L2 norm of u_h - truth over the meshed domain.

    For a FemFunction truth on a nested finer mesh, u_h is transferred
    there and the norm of the coefficient difference is computed with the
    exact mass matrix. For a callable truth (evaluated as truth(x, y)),
    per-element quadrature of degree at least 4 is used.
    """
    if isinstance(truth, FemFunction):
        return _matrix_norm(_nested_difference(u_h, truth), assemble_mass(truth.mesh))
    rule = quad if quad is not None else rule_of_degree(4)
    mesh = u_h.mesh
    areas = mesh.signed_areas()
    corners = element_corners(mesh)
    uloc = u_h.coeffs[mesh.triangles]
    total = 0.0
    for bary, wq in zip(rule.points, rule.weights):
        x, y = quadrature_points(corners, bary)
        diff = uloc @ bary - np.asarray(truth(x, y), dtype=float)
        total += wq * np.sum(areas * diff * diff)
    return float(np.sqrt(total))


def error_h1semi(u_h, truth, quad=None):
    """L2 norm of the gradient of u_h - truth.

    Discrete gradients are constant per triangle, so against a nested
    FemFunction the result is exact (a stiffness-weighted norm). A
    callable truth must return the gradient pair: truth(x, y) -> (gx, gy).
    """
    if isinstance(truth, FemFunction):
        return _matrix_norm(_nested_difference(u_h, truth), assemble_stiffness(truth.mesh))
    rule = quad if quad is not None else rule_of_degree(4)
    mesh = u_h.mesh
    corners = element_corners(mesh)
    areas, grads = element_geometry(mesh, corners)
    uloc = u_h.coeffs[mesh.triangles]
    gu = np.einsum("kj,kjd->kd", uloc, grads)
    total = 0.0
    for bary, wq in zip(rule.points, rule.weights):
        x, y = quadrature_points(corners, bary)
        gx, gy = truth(x, y)
        dx = gu[:, 0] - np.asarray(gx, dtype=float)
        dy = gu[:, 1] - np.asarray(gy, dtype=float)
        total += wq * np.sum(areas * (dx * dx + dy * dy))
    return float(np.sqrt(total))


def error_linf(u_h, truth, lattice_degree=4):
    """Maximum absolute difference sampled densely on every triangle.

    Samples all vertices plus a barycentric lattice of the given degree
    (degree 4 gives 15 points per triangle). Against a nested FemFunction
    the difference is piecewise linear and the vertex maximum is exact.
    """
    if isinstance(truth, FemFunction):
        return float(np.max(np.abs(_nested_difference(u_h, truth))))
    if lattice_degree < 1:
        raise ValueError("lattice degree must be at least 1")
    mesh = u_h.mesh
    corners = element_corners(mesh)
    uloc = u_h.coeffs[mesh.triangles]
    worst = 0.0
    for bary in _bary_lattice(lattice_degree):
        x, y = quadrature_points(corners, bary)
        diff = uloc @ bary - np.asarray(truth(x, y), dtype=float)
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def ritz_project(mesh, grad_truth, quad=None, cg_tol=1e-12):
    """Elliptic projection onto the Dirichlet P1 space.

    Solves A r = g on the interior unknowns, with g_i the integrals of
    grad_truth against the hat gradients (quadrature degree at least 4),
    so the gradient of the result is L2-orthogonal to all discrete
    gradients against the given field; boundary values are zero.

    Parameters
    ----------
    mesh : TriMesh
    grad_truth : callable
        Evaluated as grad_truth(x, y) -> (gx, gy) on coordinate arrays.
    """
    rule = quad if quad is not None else rule_of_degree(4)
    corners = element_corners(mesh)
    areas, grads = element_geometry(mesh, corners)
    local = np.zeros((mesh.num_triangles, 3))
    for bary, wq in zip(rule.points, rule.weights):
        x, y = quadrature_points(corners, bary)
        gx, gy = grad_truth(x, y)
        gx = np.asarray(gx, dtype=float)
        gy = np.asarray(gy, dtype=float)
        local += (wq * areas)[:, None] * (grads[:, :, 0] * gx[:, None]
                                          + grads[:, :, 1] * gy[:, None])
    interior = mesh.interior_vertices
    lhs = assemble_stiffness(mesh)[interior][:, interior]
    rhs = scatter_vector(mesh, local)[interior]
    coeffs = np.zeros(mesh.num_vertices)
    coeffs[interior], _ = cg_solve(lhs, rhs, cg_tol, preconditioner=VCycle(mesh, lhs))
    return FemFunction(mesh, coeffs)


def eoc(e_coarse, e_fine, h_coarse, h_fine):
    """Experimental order of convergence between two refinement levels.

    Returns nan (an undefined marker, not an exception) when an error is
    zero or negative.
    """
    if not (h_fine < h_coarse and h_fine > 0.0):
        raise ValueError("mesh sizes must satisfy 0 < h_fine < h_coarse")
    if e_coarse <= 0.0 or e_fine <= 0.0:
        return math.nan
    return math.log(e_coarse / e_fine) / math.log(h_coarse / h_fine)


def eoc_log_corrected(e_coarse, e_fine, h_coarse, h_fine, log_power):
    """EOC after dividing the errors by |ln h|**log_power.

    Matches rate statements of the form h^p |ln h|^k: feeding errors that
    behave exactly like that returns p.
    """
    if not (0.0 < h_fine < h_coarse < 1.0):
        raise ValueError("log-corrected EOC needs 0 < h_fine < h_coarse < 1")
    if e_coarse <= 0.0 or e_fine <= 0.0:
        return math.nan
    ec = e_coarse / abs(math.log(h_coarse)) ** log_power
    ef = e_fine / abs(math.log(h_fine)) ** log_power
    return math.log(ec / ef) / math.log(h_coarse / h_fine)


@dataclass
class StudyRecord:
    """One refinement level of a convergence study."""

    level: int
    h: float
    ndof: int
    err_l2: float = math.nan
    err_h1: float = math.nan
    err_linf: float = math.nan
    eoc_l2: float = None
    eoc_h1: float = None
    eoc_linf: float = None
    eoc_l2_logcorr: float = None
    newton_iterations: int = 0
    wall_time: float = 0.0


@dataclass
class StudyReport:
    """Per-level error record of a convergence study plus its provenance.

    `solutions` maps levels to the computed FemFunctions and
    `reference_solution` holds the fine-grid reference when one was used;
    neither is part of the CSV serialization.
    """

    records: list = field(default_factory=list)
    domain: str = ""
    nonlinearity: str = ""
    reference: str = ""
    solutions: dict = field(default_factory=dict)
    reference_solution: object = None

    CSV_HEADER = ("level,h,ndof,err_l2,err_h1,err_linf,"
                  "eoc_l2,eoc_h1,eoc_linf,eoc_l2_logcorr,newton_iters,wall_time_s")

    def csv_text(self):
        """Render the study as CSV, 10 significant digits, empty first EOCs."""

        def num(value):
            if value is None:
                return ""
            return f"{value:.9e}"

        lines = [self.CSV_HEADER]
        for r in self.records:
            lines.append(",".join([
                str(r.level), num(r.h), str(r.ndof),
                num(r.err_l2), num(r.err_h1), num(r.err_linf),
                num(r.eoc_l2), num(r.eoc_h1), num(r.eoc_linf),
                num(r.eoc_l2_logcorr),
                str(r.newton_iterations), num(r.wall_time),
            ]))
        return "\n".join(lines) + "\n"

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.csv_text())

    def final(self):
        """The finest-level record."""
        return self.records[-1]


class StudyError(RuntimeError):
    """A level failed to converge; `report` holds the completed levels."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


def _fill_eoc(records):
    for prev, cur in zip(records[:-1], records[1:]):
        cur.eoc_l2 = eoc(prev.err_l2, cur.err_l2, prev.h, cur.h)
        cur.eoc_h1 = eoc(prev.err_h1, cur.err_h1, prev.h, cur.h)
        cur.eoc_linf = eoc(prev.err_linf, cur.err_linf, prev.h, cur.h)
        if prev.h < 1.0:
            cur.eoc_l2_logcorr = eoc_log_corrected(
                prev.err_l2, cur.err_l2, prev.h, cur.h, 2)
        else:
            cur.eoc_l2_logcorr = math.nan


def run_convergence_study(domain, d, f, levels, exact=None, extra_refinements=2,
                          cfg=None, lattice_degree=4):
    """Solve a refinement sequence and tabulate errors and their orders.

    Parameters
    ----------
    domain : str or Polygon
        Preset name or an explicit polygon.
    d : Nonlinearity
    f : callable
        Right-hand side f(x, y).
    levels : iterable of int
        Consecutive nonnegative refinement levels to measure, ascending.
    exact : ExactSolution, optional
        Closed-form reference. When absent, a discrete reference is
        computed `extra_refinements` levels beyond the finest study level.
    extra_refinements : int
        Depth of the discrete reference, at least 2.
    cfg : SolverConfig, optional
    lattice_degree : int
        Sampling density of the max-norm error against a callable truth.

    Returns
    -------
    StudyReport

    Raises
    ------
    StudyError
        When a level (or the reference solve) fails; carries the partial
        report truncated at the last completed level.
    """
    levels = [int(l) for l in levels]
    if not levels:
        raise ValueError("levels must be nonempty")
    if any(b - a != 1 for a, b in zip(levels[:-1], levels[1:])):
        raise ValueError("levels must be consecutive ascending integers")
    if levels[0] < 0:
        raise ValueError(f"levels must be nonnegative, got {levels[0]}")
    if exact is None and extra_refinements < 2:
        raise ValueError("a discrete reference needs extra_refinements >= 2")

    cfg = cfg if cfg is not None else SolverConfig()
    if isinstance(domain, str):
        domain_name = domain
        polygon = preset_polygon(domain)
    else:
        domain_name = "custom-polygon"
        polygon = domain if isinstance(domain, Polygon) else Polygon(domain)

    top = max(levels) + (0 if exact is not None else extra_refinements)
    meshes = [triangulate_convex_polygon(polygon)]
    for _ in range(top):
        meshes.append(refine_uniform(meshes[-1]))

    describe = d.describe() if hasattr(d, "describe") else repr(d)
    reference_desc = "exact" if exact is not None else \
        f"fine-grid level {max(levels) + extra_refinements}"
    report = StudyReport(domain=domain_name, nonlinearity=describe,
                         reference=reference_desc)

    solutions = report.solutions
    previous = None
    for level in levels:
        mesh = meshes[level]
        start = time.perf_counter()
        initial = prolongate(previous, mesh) if previous is not None else None
        try:
            u, stats = solve_semilinear(mesh, d, f, cfg, initial=initial)
        except SolverError as exc:
            _fill_eoc(report.records)
            raise StudyError(f"level {level} failed: {exc}", report) from exc
        wall = time.perf_counter() - start
        solutions[level] = u
        previous = u
        record = StudyRecord(
            level=level, h=mesh_size(mesh),
            ndof=mesh.interior_vertices.size,
            newton_iterations=stats.newton_iterations, wall_time=wall)
        if exact is not None:
            record.err_l2 = error_l2(u, exact.value)
            record.err_h1 = error_h1semi(u, exact.grad)
            record.err_linf = error_linf(u, exact.value, lattice_degree)
        report.records.append(record)

    if exact is None:
        ref_mesh = meshes[top]
        try:
            reference, _ = solve_semilinear(
                mesh=ref_mesh, d=d, f=f, cfg=cfg,
                initial=prolongate(previous, ref_mesh))
        except SolverError as exc:
            raise StudyError(f"reference level {top} failed: {exc}", report) from exc
        # The norms of error_l2, error_h1semi and error_linf, with the
        # reference operators assembled once and each level transferred once.
        mass = assemble_mass(ref_mesh)
        stiffness = assemble_stiffness(ref_mesh)
        for record in report.records:
            e = _nested_difference(solutions[record.level], reference)
            record.err_l2 = _matrix_norm(e, mass)
            record.err_h1 = _matrix_norm(e, stiffness)
            record.err_linf = float(np.max(np.abs(e)))
        report.reference_solution = reference

    _fill_eoc(report.records)
    return report
