"""End-to-end and per-layer benchmark of the semifem library.

    python3 benchmarks/run.py --workload kink-study --seed 0 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all

One process runs one workload as a closed loop with one caller: it calls
the workload again only after the previous call returned, and stops
starting calls once the next one would end after `--seconds`. Every call
is checked by the workload's correctness gates.

With `--trace 0` the run reports the end-to-end metrics `wall_s` (median
wall time of the timed call), `setup_s` (median over fresh processes of
the time from process start until the inputs are built) and `peak_rss_mb`.
Both times are scaled to the machine's reference speed, measured by the
kernel of calibrate.py: during each timed call, and right before and
after each set-up probe. The unscaled times are printed as well.
With `--trace 1` it makes one untraced and one traced call and reports
the per-layer metrics of tracing.LAYER_METRICS; spans go to
benchmarks/out/. The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.

Exit codes: 0 every gate passed, 1 a gate failed, 2 the checkout holds no
semifem source to benchmark.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_REPEATS = 7
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
WORKLOAD_NAMES = ("kink-study", "kink-cold", "smooth-study")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(name, seed):
    """Times from process start until a fresh process has built the inputs."""
    from calibrate import Calibration, Timings

    calibration = Calibration()
    times = Timings()
    before = calibration.measure()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), name, str(seed)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe of {name} exited with {proc.returncode}")
        after = calibration.measure()
        times.add(elapsed, [before, after])
        before = after
    return times


def gate_determinism(outcomes):
    """Study CSVs of one process must agree byte for byte, apart from wall_time_s."""
    prints = {o.fingerprint for o in outcomes if o.fingerprint is not None}
    if len(prints) > 1:
        for o in outcomes:
            o.failed = o.attempted
            o.problems.append("study CSV differs between calls of one run")


def untraced_run(workload, problem, seconds):
    """Timed calls until `seconds` are used; the machine's speed is sampled during each."""
    from calibrate import Calibration, Sampler, Timings

    calibration = Calibration()
    sampler = Sampler(calibration)
    walls, outcomes = Timings(), []
    start = time.perf_counter()
    while True:
        with sampler.sampling():
            wall, result = workload.timed(problem)
        # One more sample right after the call, so that a call shorter than
        # the sampling interval is scaled too.
        walls.add(wall - sampler.spent, sampler.samples + [calibration.measure()])
        outcomes.append(workload.check(problem, result))
        del result
        if time.perf_counter() - start + statistics.median(walls.raw) > seconds:
            return walls, outcomes


def traced_run(workload, seed):
    """Set-up and one call under the tracer, after one untraced call."""
    from semifem.quadrature import rule_of_degree
    from tracing import LAYER_METRICS, Tracer

    tracer = Tracer()
    with tracer.installed():
        problem = workload.build(seed)
    plain_wall, plain = workload.timed(problem)
    outcomes = [workload.check(problem, plain)]
    del plain
    tracer.run = "call"
    with tracer.installed():
        traced_wall, traced = workload.timed(tracer.traced_problem(problem))
    outcomes.append(workload.check(problem, traced))
    del traced

    metrics = tracer.layer_metrics(len(rule_of_degree(problem.cfg.quad_degree)))
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path)

    print(f"untraced call {plain_wall:.4f} s, traced call {traced_wall:.4f} s; "
          f"{len(tracer.spans)} spans in {spans_path.relative_to(HERE.parent)}")
    parts = tracer.solve_split()
    print(f"accounting: solver.solve.s {metrics['solver.solve.s']:.4f} = "
          f"solver.cg {parts['solver.cg']:.4f} + assembly {parts['assembly']:.4f} + "
          f"solver.newton.self_s {metrics['solver.newton.self_s']:.4f} + "
          f"other {parts['other']:.4f}")
    return problem, outcomes, {k: (v, LAYER_METRICS[k]) for k, v in metrics.items()}


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; the result is the object the last output line holds."""
    print(f"workload {workload.name}, seed {seed}")
    print("env " + json.dumps(env.record()))
    if trace:
        problem, outcomes, metrics = traced_run(workload, seed)
    else:
        setups = measure_setup(workload.name, seed)
        problem = workload.build(seed)
        walls, outcomes = untraced_run(workload, problem, seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"wall_s": statistics.median(walls.scaled),
                  "setup_s": statistics.median(setups.scaled), "peak_rss_mb": peak}
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        for label, times in (("wall per call", walls), ("setup samples", setups)):
            print(f"{label}: " + " ".join(f"{s:.4f}" for s in times.scaled)
                  + " s at reference speed; unscaled "
                  + " ".join(f"{s:.4f}" for s in times.raw) + " s")
    gate_determinism(outcomes)

    print(f"data: {workload.describe_data(problem)}")
    for o in outcomes:
        print("call gates: " + json.dumps(o.counts) + ("" if not o.problems else
                                                        " FAILED: " + "; ".join(o.problems)))
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:.6g} {unit}")
    print(f"{'fail_frac':<40} {failed / attempted:.6g} ({failed} of {attempted} solves)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args):
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if result is None:
            raise RuntimeError(f"workload {name} exited with {proc.returncode} and no result")
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv):
    args = parse_args(argv)
    try:
        env.prepare()
        env.import_semifem()
    except (env.MissingSourceError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        import workloads

        result = run_workload(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                              args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
