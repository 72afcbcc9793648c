"""Error norms, Ritz projection, convergence orders, and the study harness.

Errors can be measured against a closed-form solution (value plus
gradient; with its Laplacian, as `UNIT_SQUARE_SINE` has, it also gives
the right-hand side it solves) or against a discrete reference on a
nested finer mesh; in the discrete case the coarse function is
transferred exactly, so the computed norms are exact for P1 functions,
and their quadratic forms are read off the mass and stiffness matrices'
vertex and edge values (`assembly.mass_sums`, `assembly.stiffness_sums`),
with no CSR matrix. The closed-form norms and the load of the Ritz
projection walk the elements by `assembly.element_samples`, as the
assembly kernels do: each calls its truth once per block on all
quadrature or lattice points of the block's elements, so their
temporaries are of the block's size.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

# assemble_mass and assemble_stiffness are unused here: the norms against a
# discrete reference read the matrices' vertex and edge values instead. They
# stay importable because benchmarks/tracing.py wraps them by name in this
# namespace.
from .assembly import (GATHER, assemble_mass, assemble_stiffness, basis_gradients,
                       check_finite, element_samples, mass_sums, stiffness_sums)
from .femfunction import FemFunction, prolongate
from .mesh import TriMesh, mesh_size, preset_polygon, refine_uniform, \
    triangulate_convex_polygon
from .multigrid import VCycle
from .quadrature import rule_of_degree
from .solver import CG_TOL, SolverConfig, SolverError, cg_solve, integer, solve_semilinear


# The quadrature of the closed-form norms and of the Ritz load: degree 4,
# which the 7-point rule serves.
NORM_RULE = rule_of_degree(4)

# The sample points of `error_linf` in every triangle: the barycentric
# lattice {(i, j, k) / 4 : i + j + k = 4}, vertices included (15 points).
LINF_LATTICE = np.array([(i, j, 4 - i - j) for i in range(4, -1, -1)
                         for j in range(4 - i, -1, -1)]) / 4.0


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form reference: value(x, y), grad(x, y) -> (gx, gy) and,
    optionally, laplacian(x, y), which `rhs` needs."""

    value: object
    grad: object
    laplacian: object = None

    def rhs(self, d):
        """f(x, y) = d(x, y, u) - laplacian(x, y) with u = value(x, y): the
        right-hand side for which this solution solves -Δu + d(x, u) = f."""
        if self.laplacian is None:
            raise ValueError("the right-hand side needs the exact solution's laplacian")
        return lambda x, y: d(x, y, self.value(x, y)) - self.laplacian(x, y)


UNIT_SQUARE_SINE = ExactSolution(
    lambda x, y: np.sin(math.pi * x) * np.sin(math.pi * y),
    lambda x, y: (math.pi * np.cos(math.pi * x) * np.sin(math.pi * y),
                  math.pi * np.sin(math.pi * x) * np.cos(math.pi * y)),
    lambda x, y: -2.0 * math.pi ** 2 * UNIT_SQUARE_SINE.value(x, y))
"""u = sin(πx) sin(πy) with Laplacian -2π²u, the manufactured solution on the
unit square, the only preset domain on whose boundary it vanishes."""


def _nested_difference(u_h, truth):
    """Coefficients of truth - u_h on truth's mesh, u_h transferred there."""
    return truth.coeffs - prolongate(u_h, truth.mesh).coeffs


def _reference_norms(mesh, e, *values):
    """sqrt(e^T A e) for each symmetric positive semidefinite P1 matrix A on mesh.

    Each of values holds an A's vertex and edge values, laid out as
    `assembly.vertex_edge_sums` returns them: e^T A e is the sum of the
    vertex terms A_vv e_v^2 plus twice that of the edge terms
    A_e e_lo e_hi over the edges (lo, hi) of `mesh.edges()`. The squares
    and the edge products are formed once for all of values; the products
    fill one (ne,) array from contiguous chunks of `GATHER` edges, so the
    ends of all edges are never gathered at once.
    """
    nv = e.size
    squares = e * e
    edges = mesh.edges()
    products = np.empty(edges.shape[0])
    for start in range(0, products.size, GATHER):
        chunk = slice(start, start + GATHER)
        ends = e[edges[chunk]]
        np.multiply(ends[:, 0], ends[:, 1], out=products[chunk])
    return [float(np.sqrt(a[:nv] @ squares + 2.0 * (a[nv:] @ products))) for a in values]


def _element_means(samples):
    """Each element's `NORM_RULE` mean of flat point-major samples."""
    return np.einsum("i,ik->k", NORM_RULE.weights, samples.reshape(len(NORM_RULE), -1))


def error_l2(u_h, truth):
    """L2 norm of u_h - truth over the meshed domain.

    For a FemFunction truth on a nested finer mesh, u_h is transferred
    there and the norm of the coefficient difference is computed with the
    exact mass matrix, from its vertex and edge values. For a callable
    truth (evaluated as truth(x, y)), the degree-4 rule is used on every
    element.
    """
    if isinstance(truth, FemFunction):
        mesh = truth.mesh
        return _reference_norms(mesh, _nested_difference(u_h, truth), mass_sums(mesh))[0]
    total = 0.0
    for _, _, areas, x, y, (uq,) in element_samples(u_h.mesh, NORM_RULE.points,
                                                    (u_h.coeffs,)):
        diff = uq - truth(x, y)
        total += np.sum(areas * _element_means(diff * diff))
    return float(np.sqrt(total))


def error_h1semi(u_h, truth):
    """L2 norm of the gradient of u_h - truth.

    Discrete gradients are constant per triangle, so against a nested
    FemFunction the result is exact (a stiffness-weighted norm, from the
    mesh's kept `assembly.stiffness_sums`). A
    callable truth must return the gradient pair: truth(x, y) -> (gx, gy),
    and is integrated by the degree-4 rule on every element.
    """
    if isinstance(truth, FemFunction):
        mesh = truth.mesh
        return _reference_norms(mesh, _nested_difference(u_h, truth), stiffness_sums(mesh))[0]
    mesh = u_h.mesh
    total = 0.0
    for block, corners, areas, x, y, _ in element_samples(mesh, NORM_RULE.points):
        uloc = u_h.coeffs[mesh.triangles[block]]
        gux, guy = np.einsum("kj,djk->dk", uloc, basis_gradients(corners, areas))
        gx, gy = truth(x, y)
        # The gradient of u_h is constant per element: one copy per point.
        dx = np.tile(gux, len(NORM_RULE)) - gx
        dy = np.tile(guy, len(NORM_RULE)) - gy
        total += np.sum(areas * _element_means(dx * dx + dy * dy))
    return float(np.sqrt(total))


def error_linf(u_h, truth):
    """Maximum absolute difference sampled densely on every triangle.

    Samples the 15 points of `LINF_LATTICE` in every triangle, its
    vertices included. Against a nested FemFunction the difference is
    piecewise linear and the vertex maximum is exact. A NaN sample makes
    the result NaN, as in `error_l2` and `error_h1semi`.
    """
    if isinstance(truth, FemFunction):
        return float(np.max(np.abs(_nested_difference(u_h, truth))))
    worst = 0.0
    for _, _, _, x, y, (uq,) in element_samples(u_h.mesh, LINF_LATTICE, (u_h.coeffs,)):
        worst = np.maximum(worst, np.max(np.abs(uq - truth(x, y))))
    return float(worst)


def ritz_project(mesh, grad_truth):
    """Elliptic projection onto the Dirichlet P1 space.

    Solves A r = g on the interior unknowns, with g_i the integrals of
    grad_truth against the hat gradients. These are constant on an
    element, so each element adds its area times the hat gradient dotted
    with the degree-4 rule's mean of grad_truth there. The gradient of the
    result is L2-orthogonal to all discrete gradients against the given
    field; boundary values are zero. CG solves to the relative tolerance
    `solver.CG_TOL`.

    Parameters
    ----------
    mesh : TriMesh
    grad_truth : callable
        Evaluated as grad_truth(x, y) -> (gx, gy) on coordinate arrays.

    Raises
    ------
    assembly.NonFiniteError
        If a component of grad_truth is not finite at a quadrature point,
        an overflow included, which raises no numpy warning; the message
        names the gradient field and the point.
    """
    load = np.zeros(mesh.num_vertices)
    # An overflow in grad_truth is left to the finiteness check, which names
    # the point.
    with np.errstate(over="ignore", invalid="ignore"):
        for block, corners, areas, x, y, _ in element_samples(mesh, NORM_RULE.points):
            hx, hy = basis_gradients(corners, areas)
            means = []
            for g in grad_truth(x, y):
                g = np.broadcast_to(g, x.shape)
                check_finite(g, "gradient field", lambda: (x, y))
                means.append(_element_means(g))
            gx, gy = means
            # In the order of one bincount over the (nt, 3) rows of all blocks.
            np.add.at(load, mesh.triangles[block].ravel(),
                      (areas * (hx * gx + hy * gy)).T.ravel())
    interior = mesh.interior_vertices
    rhs = load[interior]
    cycle = VCycle(mesh)
    coeffs = np.zeros(mesh.num_vertices)
    coeffs[interior], _, _ = cg_solve(cycle.matrix, rhs, CG_TOL, preconditioner=cycle)
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
    return eoc(e_coarse / abs(math.log(h_coarse)) ** log_power,
               e_fine / abs(math.log(h_fine)) ** log_power, h_coarse, h_fine)


@dataclass
class StudyRecord:
    """One refinement level of a convergence study.

    Against a discrete reference, linf_vertex is the (x, y) of the
    reference mesh's vertex where the error reaches err_linf; it is not
    part of the CSV.
    """

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
    linf_vertex: tuple = None


@dataclass
class StudyReport:
    """Per-level error record of a convergence study plus its provenance.

    `solutions` maps levels to the computed FemFunctions,
    `reference_solution` holds the fine-grid reference when one was used,
    and `reference_stats` the `solver.SolveStats` of its solve (None
    against a closed-form truth); none of them is part of the CSV
    serialization.
    """

    records: list = field(default_factory=list)
    domain: str = ""
    nonlinearity: str = ""
    reference: str = ""
    solutions: dict = field(default_factory=dict)
    reference_solution: object = None
    reference_stats: object = None

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


def run_convergence_study(domain, d, f, levels, exact=None, extra_refinements=2, cfg=None):
    """Solve a refinement sequence and tabulate errors and their orders.

    Parameters
    ----------
    domain : str, Polygon or TriMesh
        Preset name, an explicit polygon, or the level-0 mesh of the
        refinement sequence, such as a mesh read from a file.
    d : Nonlinearity
    f : callable
        Right-hand side f(x, y).
    levels : iterable of int
        Consecutive nonnegative refinement levels to measure, ascending.
    exact : ExactSolution, optional
        Closed-form reference. When absent, a discrete reference is
        computed `extra_refinements` levels beyond the finest study level.
    extra_refinements : int
        Depth of the discrete reference, at least 2. The reference solve
        starts from the finest study solution and solves every mesh in
        between as an ancestor (see `solver.solve_semilinear`), so it
        takes the same path as each study level, which starts from the
        level below.
    cfg : SolverConfig, optional

    Returns
    -------
    StudyReport

    Raises
    ------
    StudyError
        When a level (or the reference solve) fails; carries the partial
        report truncated at the last completed level.
    """
    levels = [integer(l, "levels") for l in levels]
    extra_refinements = integer(extra_refinements, "extra_refinements")
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
        domain_name, root = domain, triangulate_convex_polygon(preset_polygon(domain))
    elif isinstance(domain, TriMesh):
        domain_name, root = "custom-mesh", domain
    else:
        domain_name, root = "custom-polygon", triangulate_convex_polygon(domain)

    top = max(levels) + (0 if exact is not None else extra_refinements)
    meshes = [root]
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
        try:
            u, stats = solve_semilinear(mesh, d, f, cfg, initial=previous)
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
            record.err_linf = error_linf(u, exact.value)
        report.records.append(record)

    if exact is None:
        ref_mesh = meshes[top]
        try:
            reference, report.reference_stats = solve_semilinear(
                mesh=ref_mesh, d=d, f=f, cfg=cfg, initial=previous)
        except SolverError as exc:
            raise StudyError(f"reference level {top} failed: {exc}", report) from exc
        # The norms of error_l2, error_h1semi and error_linf, with the
        # reference mass values summed once, its stiffness values the mesh's
        # own, and each level transferred once and its squares and edge
        # products formed once for both quadratic forms.
        mass = mass_sums(ref_mesh)
        stiffness = stiffness_sums(ref_mesh)
        for record in report.records:
            e = _nested_difference(solutions[record.level], reference)
            record.err_l2, record.err_h1 = _reference_norms(ref_mesh, e, mass, stiffness)
            magnitude = np.abs(e)
            k = int(np.argmax(magnitude))
            record.err_linf = float(magnitude[k])
            record.linf_vertex = tuple(ref_mesh.vertices[k].tolist())
        report.reference_solution = reference

    _fill_eoc(report.records)
    return report
