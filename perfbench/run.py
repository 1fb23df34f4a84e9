#!/usr/bin/env python3
"""Benchmark for the shieldbridge simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # the check command

Run it from the root of a checkout: it imports the simulator from `src/`.
One invocation is one fresh interpreter, so module caches start cold; the
hash seed is left as the environment sets it.

With `--trace 0` the run repeats the workload's jobs for about `--seconds`
host seconds and reports the end-to-end metrics. With `--trace 1` it runs
the workload's fixed job prefix once untraced in a child process and once
traced here, and reports the per-layer metrics plus the tracing overhead.
Either way it checks the workload's invariants, compares the job prefix's
output digest (and, traced, its exact counts) with the values recorded in
`golden.json` when run at the default seed and scale, and re-runs every
bundled scenario against its recorded trace.csv/metrics.csv digests.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}.
`--workload all` runs every workload at the default seed in child processes,
traced twice, and checks that the two traced runs count exactly alike.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_REPEATS = 7
SETUP_REFERENCES = 5
P99_CHUNK = 1000  # steps per p99 sample: 10 lie beyond each
CHILD_TIMEOUT_S = 170

BETTER = {"higher": "higher is better", "lower": "lower is better"}
END_TO_END = [  # name, unit, better
    ("ops_per_s", "1/s", "higher"),
    ("step_ms_p50", "ms", "lower"),
    ("step_ms_p99", "ms", "lower"),
    ("job_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
# The same numbers under the names each workload's users know them by.
ALIASES = {
    "bridge_load": {"ops_per_s": "requests_per_s", "step_ms_p50": "tick_ms_p50",
                    "step_ms_p99": "tick_ms_p99"},
    "bridge_episodes": {"ops_per_s": "episodes_per_s", "step_ms_p50": "episode_ms_p50",
                        "step_ms_p99": "episode_ms_p99"},
    "splitting": {"ops_per_s": "split_draws_per_s", "job_s": "check_bounds_s"},
    "chain_reorg": {"ops_per_s": "blocks_per_s", "step_ms_p50": "block_ms_p50",
                    "step_ms_p99": "block_ms_p99"},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("default", "tiny"), default="default",
                        help="input size; golden digests exist for the default only")
    parser.add_argument("--phase", choices=("run", "setup", "job"), default="run",
                        help=argparse.SUPPRESS)  # child processes of a run
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shieldbridge" / "__init__.py").is_file():
        print(f"perfbench: the simulator's sources are missing ({SRC}/shieldbridge); "
              f"run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return check_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    if args.phase == "setup":
        from clock import reference_s
        workload.inputs(0)
        done = perf_counter()
        # the host's speed now, for the parent to scale this set-up by
        references = [reference_s() for _ in range(SETUP_REFERENCES)]
        print(json.dumps({"reference_s": references, "after_setup_s": perf_counter() - done}),
              flush=True)
        os._exit(0)  # the interpreter's teardown is not set-up
    if args.phase == "job":
        results = [workload.run_job(j) for j in range(workload.digest_jobs)]
        print(json.dumps({"wall_s": sum(r.wall_s for r in results)}))
        return 0
    return traced_run(args, workload) if args.trace else timed_run(args, workload)


# --- untraced run: end-to-end metrics -------------------------------------------------


def timed_run(args, workload) -> int:
    results = []
    loop_start = perf_counter()
    while True:
        job_start = perf_counter()
        results.append(workload.run_job(len(results)))
        gc.collect()  # a job's cyclic garbage must not raise the next job's peak
        now = perf_counter()
        # stop before a job that would end past the run's time
        if (len(results) >= max(workload.min_jobs, workload.digest_jobs)
                and now - loop_start + (now - job_start) > args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    steps = [s for r in results for s in r.steps_s]
    # p99 of each run of P99_CHUNK consecutive steps, then their median: a
    # stall of the host lifts one chunk's tail, not the reported figure.
    # Only the tiny smoke-test scale has fewer steps than one chunk.
    chunk = min(P99_CHUNK, len(steps))
    chunk_p99 = [sorted(steps[i:i + chunk])[math.ceil(0.99 * chunk) - 1]
                 for i in range(0, len(steps) - chunk + 1, chunk)]
    ops = sum(r.ops for r in results)
    op_wall = sum(r.wall_s for r in results if r.ops)
    metrics = {
        "ops_per_s": ops / op_wall,
        "step_ms_p50": statistics.median(steps) * 1e3,
        "step_ms_p99": statistics.median(chunk_p99) * 1e3,
        "job_s": statistics.median(r.wall_s for r in results[:1 if workload.cold_job else None]),
        "setup_s": median_setup_s(args),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(f"# provenance {json.dumps(provenance(args, workload))}")
    print(f"# {workload.name}: {len(results)} jobs, {len(steps)} steps "
          f"({workload.step}), {ops} {workload.unit} in {op_wall:.3f} scaled s "
          f"({sum(r.raw_s for r in results if r.ops):.3f} raw host s) of "
          f"{perf_counter() - loop_start:.3f} s looping")
    aliases = ALIASES[workload.name]
    for name, unit, better in END_TO_END:
        print(f"{name} = {metrics[name]:.6g} {unit} ({BETTER[better]})")
        if name in aliases:
            print(f"{aliases[name]} = {metrics[name]:.6g} {unit} ({BETTER[better]})")
    print(f"failed_share = {failed / attempted:.6g} failed/attempted "
          f"({failed}/{attempted}, lower is better)")
    correct = report_errors(results) & check_outputs(args, workload, results[
        :workload.digest_jobs])
    emit(correct, attempted, failed,
         {name: (metrics[name], unit) for name, unit, _ in END_TO_END})
    return 0


def median_setup_s(args) -> float:
    """Process start to the timed loop, as the median over fresh
    interpreters that import the simulator, make the first job's inputs
    and exit. Each child times the reference after its set-up, on the core
    it ran on; its set-up is scaled by that."""
    from clock import REFERENCE_NOMINAL_S
    command = child_command(args, "setup")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        child = subprocess.run(command, cwd=ROOT, check=True, capture_output=True,
                               text=True, timeout=CHILD_TIMEOUT_S)
        wall = perf_counter() - t0
        report = json.loads(child.stdout.splitlines()[-1])
        raw = wall - report["after_setup_s"]
        times.append(raw * REFERENCE_NOMINAL_S / statistics.median(report["reference_s"]))
    return statistics.median(times)


def child_command(args, phase: str) -> list[str]:
    return [sys.executable, str(Path(__file__)), "--workload", args.workload,
            "--seed", str(args.seed), "--scale", args.scale, "--phase", phase]


# --- traced run: per-layer metrics ----------------------------------------------------


def traced_run(args, workload) -> int:
    import tracer as tracing
    baseline = subprocess.run(child_command(args, "job"), cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    untraced_s = json.loads(baseline.stdout.splitlines()[-1])["wall_s"]

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        results = [workload.run_job(j) for j in range(workload.digest_jobs)]
    finally:
        tracer.uninstall()
    traced_s = sum(r.wall_s for r in results)
    layers = tracing.layer_metrics(tracer)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-{args.scale}-{args.seed}.csv"
    tracer.write_spans(spans_path)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(f"# provenance {json.dumps(provenance(args, workload))}")
    print(f"# {workload.name}: traced {len(results)} jobs, {len(tracer.spans)} spans "
          f"({tracer.dropped_spans} dropped) written to {spans_path.relative_to(ROOT)}")
    for name, (value, unit) in layers.items():
        print(f"{name} = {value:.6g} {unit}")
    layers["trace_overhead"] = (traced_s / untraced_s, "x")
    print(f"trace_overhead = {traced_s / untraced_s:.4g} x "
          f"(traced {traced_s:.3f} s / untraced {untraced_s:.3f} s, the job prefix)")
    counts = {name: value for name, (value, unit) in layers.items()
              if unit in tracing.EXACT_UNITS}
    correct = report_errors(results)
    correct &= check_outputs(args, workload, results)
    correct &= check_counts(args, workload, counts)
    emit(correct, attempted, failed, layers)
    return 0


# --- correctness ----------------------------------------------------------------------


def report_errors(results) -> bool:
    errors = [e for r in results for e in r.errors]
    for error in errors[:10]:
        print(f"# FAIL {error}")
    return not any(r.failed for r in results)


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def at_default(args) -> bool:
    return args.seed == DEFAULT_SEED and args.scale == "default"


def check_outputs(args, workload, prefix) -> bool:
    """Digest of the job prefix against the recorded one (default seed and
    scale only), then every bundled scenario against its recorded files."""
    digest = hashlib.sha256("".join(r.digest for r in prefix).encode()).hexdigest()
    ok = True
    if at_default(args):
        expected = golden()["workloads"].get(workload.name)
        ok = digest == expected
        print(f"# workload digest {digest}: {'matches' if ok else 'DIFFERS from'} "
              f"the recorded {expected}")
    else:
        print(f"# workload digest {digest} (seed {args.seed}, scale {args.scale}: "
              f"no recorded value, compare across commits)")
    return ok & check_scenarios()


def check_scenarios() -> bool:
    from shieldbridge import simcli
    recorded = golden()["scenarios"]
    names = simcli.bundled_scenario_names()
    bad = sorted(set(recorded) ^ set(names))
    for name in names:
        result = simcli.run_scenario(simcli.load_scenario(simcli.load_bundled_scenario(name)))
        got = {"trace": hashlib.sha256(result.trace_csv.encode()).hexdigest(),
               "metrics": hashlib.sha256(result.metrics_csv.encode()).hexdigest()}
        if not result.ok or got != recorded.get(name):
            bad.append(name)
            print(f"# FAIL scenario {name}: ok={result.ok} digests {got}")
    print(f"# scenarios: {len(names) - len(bad)}/{len(recorded)} match their recorded "
          f"trace.csv/metrics.csv digests")
    return not bad


def check_counts(args, workload, counts: dict) -> bool:
    if not at_default(args):
        print(f"# counts (seed {args.seed}, scale {args.scale}): {json.dumps(counts)}")
        return True
    expected = golden()["counts"].get(workload.name, {})
    differ = {k: (v, expected.get(k)) for k, v in counts.items() if expected.get(k) != v}
    for name, (got, want) in differ.items():
        print(f"# FAIL count {name} = {got}, recorded {want}")
    print(f"# exact counts: {len(counts) - len(differ)}/{len(counts)} match the recorded values")
    return not differ


# --- output ---------------------------------------------------------------------------


def provenance(args, workload) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "shieldbridge").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(SRC).as_posix().encode())
            source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "scale_detail": repr(getattr(workload, "scale", None)
                             or getattr(workload, "episodes", None)),
        "seconds": args.seconds,
        "trace": args.trace,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
    }


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


# --- the check command ------------------------------------------------------------------


def check_all(args) -> int:
    """Every workload at the given seed: one untraced run and two traced runs
    in fresh interpreters; fails unless all are correct and the traced runs
    count exactly alike."""
    sys.path.insert(0, str(HERE))
    import tracer as tracing
    from workloads import WORKLOADS
    exact = {name for name, unit, _ in tracing.PER_LAYER if unit in tracing.EXACT_UNITS}
    ok = True
    for name in WORKLOADS:
        base = [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--scale", args.scale]
        runs = []
        for trace in (0, 1, 1):
            proc = subprocess.run(base + ["--trace", str(trace)], cwd=ROOT,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
            ok &= result is not None and result["correct"]
            runs.append(result)
        if runs[1] and runs[2]:
            first, second = (
                {k: v["value"] for k, v in r["metrics"].items() if k in exact}
                for r in runs[1:])
            same = first == second
            ok &= same
            print(f"# {name}: two traced runs give {'identical' if same else 'DIFFERENT'} "
                  f"counts ({len(first)} exact metrics)")
    print(f"# check: {'pass' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
