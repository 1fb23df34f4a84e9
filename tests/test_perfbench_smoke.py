"""The benchmark's smoke test as a tier-1 test: an API change that only the
benchmark exercises (its tracer wraps each bot class's own `step`, its
workloads read `phase` and `request_id`) fails here too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
