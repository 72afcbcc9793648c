"""Spans around the calls into each semifem layer, recorded from outside.

The library imports its collaborators with `from ... import`, so a call is
intercepted by replacing the name in the namespace that calls it, not in
the module that defines it. `Tracer.installed()` swaps wrappers in and puts
the originals back on exit. Spans stay in memory until `write()`.
"""

import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from semifem.nonlinearity import Nonlinearity

# (module, attribute, span name). Several namespaces may share a span name.
TARGETS = (
    ("semifem.mesh", "refine_uniform", "mesh.refine_uniform"),
    ("semifem.analysis", "refine_uniform", "mesh.refine_uniform"),
    ("semifem.analysis", "prolongate", "femfunction.prolongate"),
    ("semifem.solver", "assemble_stiffness", "assembly.stiffness"),
    ("semifem.analysis", "assemble_stiffness", "assembly.stiffness"),
    ("semifem.solver", "assemble_mass", "assembly.mass"),
    ("semifem.analysis", "assemble_mass", "assembly.mass"),
    ("semifem.solver", "assemble_load", "assembly.load"),
    ("semifem.solver", "assemble_nonlinear_residual", "assembly.reaction_residual"),
    ("semifem.solver", "assemble_slope_matrix", "assembly.slope_matrix"),
    ("semifem.solver", "apply_dirichlet", "assembly.apply_dirichlet"),
    ("semifem.solver", "cg_solve", "solver.cg"),
    ("semifem.solver", "solve_semilinear", "solver.solve"),
    ("semifem.analysis", "solve_semilinear", "solver.solve"),
    ("semifem.analysis", "error_l2", "analysis.error_l2"),
    ("semifem.analysis", "error_h1semi", "analysis.error_h1semi"),
    ("semifem.analysis", "error_linf", "analysis.error_linf"),
    ("semifem.analysis", "run_convergence_study", "analysis.study"),
)

# Per-layer metrics and their units, in report order.
LAYER_METRICS = {
    "mesh.refine_uniform.s": "s",
    "mesh.refine_uniform.calls": "count",
    "femfunction.prolongate.s": "s",
    "femfunction.prolongate.calls": "count",
    "assembly.stiffness.s": "s",
    "assembly.stiffness.calls": "count",
    "assembly.mass.s": "s",
    "assembly.mass.calls": "count",
    "assembly.load.s": "s",
    "assembly.load.calls": "count",
    "assembly.reaction_residual.s": "s",
    "assembly.reaction_residual.calls": "count",
    "assembly.reaction_residual.self_s": "s",
    "assembly.slope_matrix.s": "s",
    "assembly.slope_matrix.calls": "count",
    "assembly.slope_matrix.self_s": "s",
    "assembly.apply_dirichlet.s": "s",
    "assembly.apply_dirichlet.calls": "count",
    "nonlinearity.eval.s": "s",
    "nonlinearity.eval.calls": "count",
    "nonlinearity.eval.points": "count",
    "quadrature.points_per_element": "count",
    "solver.solve.s": "s",
    "solver.solve.calls": "count",
    "solver.newton.self_s": "s",
    "solver.newton_iters": "count",
    "solver.damped_steps": "count",
    "solver.residual_evals": "count",
    "solver.line_search.accept_ratio": "ratio",
    "solver.cg.s": "s",
    "solver.cg.calls": "count",
    "solver.cg.iters": "count",
    "solver.cg.iters_max_per_call": "count",
    "solver.cg.matvec_flops_computed": "flop",
    "solver.cg.matvec_bytes_computed": "byte",
    "analysis.study.s": "s",
    "analysis.study.calls": "count",
    "analysis.study.self_s": "s",
    "analysis.error_l2.s": "s",
    "analysis.error_l2.calls": "count",
    "analysis.error_h1semi.s": "s",
    "analysis.error_h1semi.calls": "count",
    "analysis.error_linf.s": "s",
    "analysis.error_linf.calls": "count",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _observe_cg(span, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    span.attrs.update(iters=int(result[1]), n=int(matrix.shape[0]), nnz=int(matrix.nnz),
                      index_bytes=int(matrix.indices.itemsize))


def _observe_solve(span, args, kwargs, result):
    stats = result[1]
    span.attrs.update(newton_iterations=stats.newton_iterations,
                      damping_activations=stats.damping_activations,
                      cg_iterations=stats.total_cg_iterations,
                      cold=kwargs.get("initial", args[4] if len(args) > 4 else None) is None)


OBSERVERS = {"solver.cg": _observe_cg, "solver.solve": _observe_solve}


class CountingNonlinearity(Nonlinearity):
    """A reaction term that records a span and the point count of every call."""

    def __init__(self, base, tracer):
        self.base = base
        self.tracer = tracer

    def __call__(self, x, y, u):
        with self.tracer.span("nonlinearity.eval") as span:
            span.attrs["points"] = int(np.size(u))
            return self.base(x, y, u)

    def describe(self):
        return self.base.describe()


class Tracer:
    """In-memory span recorder for one single-threaded benchmark process."""

    def __init__(self):
        self.spans = []
        self.run = "setup"
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name):
        span = Span(len(self.spans), name, time.perf_counter(), float("nan"),
                    self._stack[-1].id if self._stack else None, self.run)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, func, name):
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = func(*args, **kwargs)
                if observe is not None:
                    observe(span, args, kwargs, result)
                return result

        traced.__wrapped__ = func
        return traced

    @contextmanager
    def installed(self):
        """Replace every target with its wrapper; restore the originals on exit."""
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def traced_problem(self, problem):
        """The same inputs with the reaction term counted."""
        return replace(problem, d=CountingNonlinearity(problem.d, self))

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def layer_metrics(self, quad_points):
        """Per-layer totals over all recorded spans, keyed as in LAYER_METRICS."""
        own = self.self_times()
        by_name = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)
        values = {}
        for name in {t[2] for t in TARGETS} | {"nonlinearity.eval"}:
            spans = by_name.get(name, [])
            values[f"{name}.s"] = sum(s.duration for s in spans)
            values[f"{name}.calls"] = len(spans)
            values[f"{name}.self_s"] = sum(own[s.id] for s in spans)
        values["nonlinearity.eval.points"] = sum(s.attrs["points"]
                                                 for s in by_name.get("nonlinearity.eval", []))
        values["quadrature.points_per_element"] = quad_points

        solves = by_name.get("solver.solve", [])
        residuals = by_name.get("assembly.reaction_residual", [])
        values["solver.newton.self_s"] = values["solver.solve.self_s"]
        values["solver.newton_iters"] = sum(s.attrs.get("newton_iterations", 0) for s in solves)
        values["solver.damped_steps"] = sum(s.attrs.get("damping_activations", 0)
                                            for s in solves)
        values["solver.residual_evals"] = len(residuals)
        # Every residual of a solve is a line-search trial except the one at
        # the starting iterate and, for a cold start, the frozen-reaction one.
        solve_ids = {s.id for s in solves}
        trials = sum(1 for r in residuals if r.parent in solve_ids)
        trials -= sum(2 if s.attrs.get("cold", True) else 1 for s in solves)
        values["solver.line_search.accept_ratio"] = (
            values["solver.newton_iters"] / trials if trials > 0 else 0.0)

        # A CG call that raised has no iteration count; its time still counts.
        cg = [s for s in by_name.get("solver.cg", []) if "iters" in s.attrs]
        iters = [s.attrs["iters"] for s in cg]
        values["solver.cg.iters"] = sum(iters)
        values["solver.cg.iters_max_per_call"] = max(iters, default=0)
        # One CSR matvec per iteration: 2 flops per stored entry; reads the
        # values, column indices, row pointers and x, writes y.
        values["solver.cg.matvec_flops_computed"] = sum(
            s.attrs["iters"] * 2 * s.attrs["nnz"] for s in cg)
        values["solver.cg.matvec_bytes_computed"] = sum(
            s.attrs["iters"] * (s.attrs["nnz"] * (8 + s.attrs["index_bytes"])
                                + (s.attrs["n"] + 1) * s.attrs["index_bytes"]
                                + 2 * 8 * s.attrs["n"])
            for s in cg)
        return {k: values[k] for k in LAYER_METRICS if k in values}

    def solve_split(self):
        """Time of the direct children of solver.solve spans, by layer."""
        parts = {"solver.cg": 0.0, "assembly": 0.0, "other": 0.0}
        solve_ids = {s.id for s in self.spans if s.name == "solver.solve"}
        for s in self.spans:
            if s.parent in solve_ids:
                layer = s.name if s.name == "solver.cg" else s.name.split(".")[0]
                parts[layer if layer in parts else "other"] += s.duration
        return parts

    def write(self, path):
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent, "run": s.run,
                                     **s.attrs}) + "\n")
