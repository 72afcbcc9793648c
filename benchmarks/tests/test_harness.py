"""Tests of the benchmark harness on tiny levels.

    python3 -m pytest benchmarks/tests -q
"""

import copy
import dataclasses
import importlib
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads
from conftest import BENCH
from semifem.solver import NewtonError, SolverConfig
from tracing import TARGETS, Tracer

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(name):
    """The named workload shrunk to levels that solve in well under a second."""
    w = copy.copy(workloads.WORKLOADS[name])
    if name == "kink-cold":
        w.level = 2
    else:
        w.levels = range(1, 3)
    return w


def originals():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in TARGETS}


@pytest.fixture(scope="module")
def traced():
    """Traced runs of every tiny workload, with the namespaces as they were before."""
    before = originals()
    runs = {}
    for name in workloads.WORKLOADS:
        runs[name] = run.traced_run(tiny(name), seed=0)
    return before, runs


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    result = run.run_workload(tiny(name), seed=3, seconds=0.0, trace=0)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, traced):
    _, runs = traced
    _, _, metrics = runs[name]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]][1] == spec["unit"]
        assert np.isfinite(metrics[spec["name"]][0])


def test_wrappers_restored_after_traced_run(traced):
    before, _ = traced
    assert originals() == before
    for fn in before.values():
        assert not hasattr(fn, "__wrapped__")


def test_wrappers_restored_after_exception():
    before = originals()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert originals() != before
            raise RuntimeError("boom")
    assert originals() == before


def spans_of(name):
    """Spans of a traced tiny run, recorded afresh so they can be inspected."""
    w = tiny(name)
    tracer = Tracer()
    with tracer.installed():
        problem = w.build(0)
        tracer.run = "call"
        result = w.call(tracer.traced_problem(problem))
    return tracer, result


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_spans_nest_and_self_times_sum_to_parent(name):
    tracer, _ = spans_of(name)
    spans = tracer.spans
    assert spans
    for s in spans:
        assert s.end >= s.start
        if s.parent is not None:
            parent = spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
            assert parent.run == s.run
    own = tracer.self_times()
    subtree = list(own)
    for s in reversed(spans):  # children are recorded after their parent
        if s.parent is not None:
            subtree[s.parent] += subtree[s.id]
    for s in spans:
        assert own[s.id] >= -1e-9
        assert subtree[s.id] == pytest.approx(s.duration, rel=1e-9, abs=1e-12)


def test_cg_and_newton_counts_match_solver_stats():
    tracer, (u, stats) = spans_of("kink-cold")
    metrics = tracer.layer_metrics(7)
    assert metrics["solver.cg.iters"] == stats.total_cg_iterations
    assert metrics["solver.newton_iters"] == stats.newton_iterations
    assert metrics["solver.damped_steps"] == stats.damping_activations
    assert metrics["mesh.refine_uniform.calls"] == tiny("kink-cold").level
    parts = tracer.solve_split()
    assert parts["other"] == 0.0
    assert metrics["solver.solve.s"] == pytest.approx(
        parts["solver.cg"] + parts["assembly"] + metrics["solver.newton.self_s"], rel=1e-9)


def test_traced_problem_gives_identical_results():
    w = tiny("kink-study")
    problem = w.build(5)
    plain = workloads.study_fingerprint(w.call(problem))
    tracer = Tracer()
    with tracer.installed():
        counted = workloads.study_fingerprint(w.call(tracer.traced_problem(problem)))
    assert plain == counted
    assert sum(s.name == "nonlinearity.eval" for s in tracer.spans) > 0


def test_seed_makes_small_recorded_change():
    assert workloads.perturbation(0) == 1.0
    assert workloads.perturbation(7) == workloads.perturbation(7)
    factors = [workloads.perturbation(s) for s in range(1, 50)]
    assert len(set(factors)) == len(factors)
    assert all(0.0 < abs(f - 1.0) <= workloads.PERTURBATION for f in factors)


def test_solver_failure_counts_every_solve_as_failed():
    w = workloads.WORKLOADS["kink-study"]
    outcome = w.check(w.build(0), NewtonError("stalled"))
    assert outcome.failed == outcome.attempted == w.solves


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_residual_gate_failure_counts_toward_fail_frac(name):
    w = tiny(name)
    problem = w.build(0)
    result = w.call(problem)
    strict = dataclasses.replace(problem, cfg=SolverConfig(residual_tol=1e-30))
    outcome = w.check(strict, result)
    assert any("residual" in p for p in outcome.problems)
    assert outcome.failed == outcome.attempted == w.solves


def test_determinism_gate_fails_every_call_on_differing_csvs():
    outcomes = [workloads.Outcome(3, 0, fingerprint="a"), workloads.Outcome(3, 0, fingerprint="b")]
    run.gate_determinism(outcomes)
    assert [o.failed for o in outcomes] == [3, 3]


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "kink-cold",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_layer_metrics_cover_the_table():
    assert set(tracing.LAYER_METRICS) == {m["name"] for m in SPEC["per_layer"]}


def test_workload_names_agree():
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    scheduled = [w["name"] for w in SPEC["workloads"]]
    assert scheduled == [n for n in workloads.WORKLOADS if n in scheduled]
    assert len(scheduled) >= 2


def test_importing_run_leaves_numpy_unloaded():
    """env.prepare() fixes the BLAS threads only if numpy loads after it."""
    code = "import sys, run; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "False"
