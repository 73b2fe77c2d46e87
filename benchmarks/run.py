"""Solve benchmark for trimclust: one workload per call, one JSON line out.

    python3 benchmarks/run.py --workload exact-enum --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it prints the end-to-end
metrics, timed with tracing off in a fresh worker process; with ``--trace 1``
it prints the per-layer metrics of a separate traced run.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.  Workers start with the
BLAS and OpenMP pools pinned to one thread before numpy loads.  See
README.md for the workloads, the checks and the measured spread."""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-enum", "local-search", "variants")
SETUP_PROBES = 3  # fresh processes timed for setup_s: the worker and two that stop there
DEADLINE_S = 170.0  # every worker must have ended by then

END_TO_END = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "oracle_s_mean": "s",
    "cost_ratio_max": "x",
    "cost_ratio_mean": "x",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "coreset.baseline_s": "s",
    "coreset.rings_s": "s",
    "coreset.build_s": "s",
    "coreset.entries": "count",
    "coreset.distinct_entries": "count",
    "coreset.compression": "x",
    "reduction.subsets": "count",
    "reduction.enumerate_s": "s",
    "reduction.blackbox_s": "s",
    "reduction.blackbox_calls": "count",
    "reduction.candidate_evals": "count",
    "reduction.distinct_candidates": "count",
    "reduction.distinct_per_answer": "x",
    "reduction.rescore_s": "s",
    "reduction.self_s": "s",
    "solvers.local_search_call_s_p50": "s",
    "solvers.oracle_s": "s",
    "matroids.bases_s": "s",
    "matroids.independence_checks": "count",
    "trace.overhead_s": "s",
}
THREAD_POOLS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_POOLS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def worker_cmd(args, *extra: str) -> list[str]:
    return [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--trace", str(args.trace), *extra,
    ]


def spawn(args, *extra: str) -> tuple[float, str]:
    """Run one worker process; returns (seconds until it was ready, its last line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        worker_cmd(args, *extra), env=child_env(), cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    killer = threading.Timer(max(0.0, DEADLINE_S - (t0 - STARTED)), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, err = proc.communicate()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{err}")
    lines = out.strip().splitlines()
    return setup, lines[-1] if lines else ""


def untraced(args) -> dict:
    """One timed worker, plus setup-only processes for the median ``setup_s``."""
    extra = ("--toy",) if args.toy else ()
    setup, line = spawn(args, "--seconds", str(args.seconds), *extra)
    result = json.loads(line)
    setups = [setup] + [spawn(args, "--setup-only", *extra)[0] for _ in range(SETUP_PROBES - 1)]
    result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def traced(args) -> dict:
    extra = ("--toy",) if args.toy else ()
    return json.loads(spawn(args, "--seconds", str(args.seconds), *extra)[1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny instances (self-test)")
    args = ap.parse_args(argv)

    try:
        result = traced(args) if args.trace else untraced(args)
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for line in result["problems"] + result["errors"]:
        print(line, file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    values = result["metrics"]
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
