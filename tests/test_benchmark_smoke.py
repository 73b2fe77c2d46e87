"""The benchmark's command line at toy size: every workload runs, checks its
answers and, traced, reports its layers."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, trace", [
    ("exact-enum", 0), ("local-search", 0), ("variants", 0),
    ("exact-enum", 1), ("local-search", 1), ("variants", 1),
])
def test_benchmark_runs_at_toy_size(tmp_path, workload, trace):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.2", "--toy", "--trace", str(trace)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    if trace:
        assert result["metrics"]["reduction.subsets"]["value"] > 0, result
        assert result["metrics"]["coreset.entries"]["value"] > 0, result
        # as benchmarks/selftest.py checks: only `variants` runs the matroid layer,
        # whose rescored candidates are checked by `is_independent`
        checks = result["metrics"]["matroids.independence_checks"]["value"]
        assert (checks > 0) == (workload == "variants"), result
