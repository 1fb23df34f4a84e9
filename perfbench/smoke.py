#!/usr/bin/env python3
"""Smoke test for the benchmark: every workload at a tiny scale, untraced
and traced. Each run must exit 0, be correct, print every metric that
`BENCHMARK.json` names by name with its unit, and end with the result
object. Without the simulator's sources the benchmark must fail without a
result. Run from the root of a checkout:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_run(proc, metrics: list[dict], label: str) -> list[str]:
    problems = []
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}; "
                        f"{[l for l in lines if 'FAIL' in l][:3]}")
    if set(result["metrics"]) != {m["name"] for m in metrics}:
        problems.append(f"{label}: metrics {sorted(result['metrics'])}")
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: {name} reported as {got}")
        pattern = rf"^{re.escape(name)} = \S+ {re.escape(unit)}( |$)"
        if not any(re.match(pattern, line) for line in lines):
            problems.append(f"{label}: no line '{name} = <value> {unit}'")
    if not any(line.startswith("# provenance ") for line in lines):
        problems.append(f"{label}: no provenance line")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace, metrics in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{name} --trace {trace}"
            proc = run(["--workload", name, "--seed", "7", "--seconds", "0.5",
                        "--scale", "tiny", "--trace", str(trace)], ROOT)
            found = check_run(proc, metrics, label)
            problems += found
            print(f"{label}: {'ok' if not found else 'FAIL'}")

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0"], Path(bare))
        refused = proc.returncode != 0 and "{" not in proc.stdout
        print(f"without src/: {'refused' if refused else 'FAIL: ran'}")
        if not refused:
            problems.append("the benchmark ran without the simulator's sources")

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("pass" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
