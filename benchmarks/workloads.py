"""The benchmark's workloads: inputs made from a seed, the timed call, the gates.

Each workload calls the public semifem API through module attributes
(`analysis.run_convergence_study`, `solver.solve_semilinear`,
`mesh.refine_uniform`), so the tracer's wrappers see every call.
"""

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from semifem import analysis, mesh, solver
from semifem.analysis import ExactSolution, StudyError
from semifem.assembly import (assemble_load, assemble_nonlinear_residual,
                              assemble_stiffness)
from semifem.nonlinearity import PowerLaw
from semifem.quadrature import edge_midpoint_rule, rule_of_degree
from semifem.solver import SolverConfig, SolverError

# Largest relative change a seed makes to the problem data. The damped
# Newton path of the kink problem changes its step count at level 7 for
# relative changes of 1e-6 and above (12 to 14 steps at 1e-6, 12 to 16
# at 1e-4), so a larger perturbation would measure line-search luck
# rather than speed. At 1e-10 every seed takes the seed-0 path.
PERTURBATION = 1e-10


def perturbation(seed):
    """Factor applied to the workload's data; seed 0 keeps the paper's problem."""
    if seed == 0:
        return 1.0
    return 1.0 + PERTURBATION * np.random.default_rng(seed).uniform(-1.0, 1.0)


@dataclass
class Problem:
    """The inputs of one workload, built from the seed during set-up."""

    d: object
    f: object
    cfg: SolverConfig
    data_factor: float
    mesh: object = None
    exact: ExactSolution = None


@dataclass
class Outcome:
    """Gate results of one timed call."""

    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    fingerprint: str = None
    counts: dict = field(default_factory=dict)


def certified_residual(u, problem):
    """Scaled residual norm of u, recomputed from fresh public assemblies."""
    m = u.mesh
    cfg = problem.cfg
    reaction = assemble_nonlinear_residual(m, problem.d, u, rule_of_degree(cfg.quad_degree))
    res = assemble_stiffness(m) @ u.coeffs + reaction - assemble_load(m, problem.f,
                                                                      edge_midpoint_rule())
    res = np.where(m.boundary_vertex, 0.0, res)
    return float(np.linalg.norm(res) / np.sqrt(m.num_vertices))


def study_fingerprint(report):
    """SHA-256 of the study CSV without its `wall_time_s` column."""
    rows = [line.rsplit(",", 1)[0] for line in report.csv_text().splitlines()]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def kink_term():
    return PowerLaw(scale=50.0, exponent=1 / 3, shift=-1.0)


def constant(value):
    return lambda x, y: np.full_like(x, value)


class Workload:
    name = ""
    solves = 0

    def build(self, seed):
        raise NotImplementedError

    def call(self, problem):
        raise NotImplementedError

    def timed(self, problem):
        """Wall time of one call and its result, or the solver failure it raised."""
        start = time.perf_counter()
        try:
            result = self.call(problem)
        except (SolverError, StudyError) as exc:
            result = exc
        return time.perf_counter() - start, result

    def check(self, problem, result):
        """Gate a call's result, or the SolverError/StudyError it raised."""
        if isinstance(result, (SolverError, StudyError)):
            return Outcome(self.solves, self.solves, [f"{type(result).__name__}: {result}"])
        return self.check_result(problem, result)

    def check_result(self, problem, result):
        raise NotImplementedError

    def describe_data(self, problem):
        raise NotImplementedError


class _Study(Workload):
    """Shared gates of the two convergence studies."""

    def check_result(self, problem, report):
        solutions = [report.solutions[r.level] for r in report.records]
        if report.reference_solution is not None:
            solutions.append(report.reference_solution)
        problems = []
        failed = 0
        for u in solutions:
            norm = certified_residual(u, problem)
            if not norm <= problem.cfg.residual_tol:
                failed += 1
                problems.append(f"level {u.mesh.level}: residual {norm:.3e} "
                                f"> {problem.cfg.residual_tol:g}")
        study_problems = self.window_problems(report)
        if study_problems:
            failed = len(solutions)
            problems += study_problems
        final = report.final()
        return Outcome(len(solutions), failed, problems, study_fingerprint(report),
                       {"eoc_l2": final.eoc_l2, "eoc_h1": final.eoc_h1,
                        "eoc_linf": final.eoc_linf})

    def window_problems(self, report):
        raise NotImplementedError


class KinkStudy(_Study):
    name = "kink-study"
    levels = range(2, 7)

    @property
    def solves(self):
        return len(self.levels) + 1  # the levels and the reference

    def build(self, seed):
        factor = perturbation(seed)
        return Problem(kink_term(), constant(factor), SolverConfig(), factor)

    def call(self, problem):
        return analysis.run_convergence_study("pentagon", problem.d, problem.f, self.levels,
                                              extra_refinements=2, cfg=problem.cfg)

    def window_problems(self, report):
        final = report.final()
        problems = []
        if not 1.15 <= final.eoc_linf <= 1.6:
            problems.append(f"eoc_linf {final.eoc_linf:.4f} outside [1.15, 1.6]")
        if not final.eoc_l2 >= 1.75:
            problems.append(f"eoc_l2 {final.eoc_l2:.4f} below 1.75")
        for name in ("err_l2", "err_h1", "err_linf"):
            values = [getattr(r, name) for r in report.records]
            if not all(a > b for a, b in zip(values[:-1], values[1:])):
                problems.append(f"{name} does not fall monotonically: {values}")
        return problems

    def describe_data(self, problem):
        return f"pentagon, PowerLaw(50, 1/3, shift=-1), f = {problem.data_factor!r}"


class KinkCold(Workload):
    name = "kink-cold"
    solves = 1
    level = 7

    def build(self, seed):
        factor = perturbation(seed)
        m = mesh.triangulate_convex_polygon(mesh.preset_polygon("pentagon"))
        for _ in range(self.level):
            m = mesh.refine_uniform(m)
        return Problem(kink_term(), constant(factor), SolverConfig(), factor, mesh=m)

    def call(self, problem):
        return solver.solve_semilinear(problem.mesh, problem.d, problem.f, problem.cfg)

    def check_result(self, problem, result):
        u, stats = result
        norm = certified_residual(u, problem)
        tol = problem.cfg.residual_tol
        problems = []
        if not (norm <= tol and stats.final_residual_norm <= tol):
            problems.append(f"residual {norm:.3e} (reported {stats.final_residual_norm:.3e}) "
                            f"> {tol:g}")
        return Outcome(1, len(problems), problems, None,
                       {"newton_iterations": stats.newton_iterations,
                        "cg_iterations": stats.total_cg_iterations})

    def describe_data(self, problem):
        return (f"pentagon level {self.level} ({problem.mesh.num_vertices} vertices), "
                f"PowerLaw(50, 1/3, shift=-1), f = {problem.data_factor!r}")


class SmoothStudy(_Study):
    name = "smooth-study"
    levels = range(2, 9)

    @property
    def solves(self):
        return len(self.levels)

    def build(self, seed):
        amplitude = perturbation(seed)
        d = PowerLaw(scale=1.0, exponent=0.5)
        pi = np.pi

        def value(x, y):
            return amplitude * np.sin(pi * x) * np.sin(pi * y)

        def grad(x, y):
            return (amplitude * pi * np.cos(pi * x) * np.sin(pi * y),
                    amplitude * pi * np.sin(pi * x) * np.cos(pi * y))

        def f(x, y):
            u = value(x, y)
            return 2.0 * pi ** 2 * u + d(x, y, u)

        return Problem(d, f, SolverConfig(), amplitude, exact=ExactSolution(value, grad))

    def call(self, problem):
        return analysis.run_convergence_study("unit-square", problem.d, problem.f, self.levels,
                                              exact=problem.exact, cfg=problem.cfg)

    def window_problems(self, report):
        final = report.final()
        problems = []
        if not 1.85 <= final.eoc_l2 <= 2.15:
            problems.append(f"eoc_l2 {final.eoc_l2:.4f} outside [1.85, 2.15]")
        if not 0.9 <= final.eoc_h1 <= 1.1:
            problems.append(f"eoc_h1 {final.eoc_h1:.4f} outside [0.9, 1.1]")
        return problems

    def describe_data(self, problem):
        return (f"unit-square, PowerLaw(1, 1/2), exact a sin(pi x) sin(pi y) "
                f"with a = {problem.data_factor!r}")


WORKLOADS = {w.name: w for w in (KinkStudy(), KinkCold(), SmoothStudy())}
