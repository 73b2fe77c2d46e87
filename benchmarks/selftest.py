"""Self-test of the benchmark, in about a minute.

    python3 benchmarks/selftest.py

1. Runs every workload at toy size through run.py, untraced and traced, and
   requires a correct result with every metric present and no failures.
2. Shows that each output check rejects a corrupted answer: an extra center,
   a swapped outlier, a cost off by 1e-6 relative, a dependent matroid set, a
   color over its budget, and costs below the optimum or above the guarantee.
3. Requires the metric tables of run.py to match BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import run  # noqa: E402  (the module path is set just above)

for _pool in run.THREAD_POOLS:  # before numpy loads, as in the benchmark's workers
    os.environ[_pool] = "1"

import workloads  # noqa: E402
from reference import Reference  # noqa: E402


def check_workloads() -> None:
    for name in run.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
                 "--seconds", "1", "--trace", str(trace), "--toy"],
                capture_output=True, text=True, timeout=170, cwd=ROOT,
            )
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"], (name, trace, done.stderr)
            assert result["failed"] == 0 and result["attempted"] >= 1, result
            table = run.PER_LAYER if trace else run.END_TO_END
            assert set(result["metrics"]) == set(table), result["metrics"].keys()
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace:
                assert values["reduction.subsets"] > 0 and values["coreset.entries"] > 0
                ran_matroids = values["matroids.independence_checks"] > 0
                assert ran_matroids == (name == "variants"), values
                ran_ls = values["solvers.local_search_call_s_p50"] > 0
                assert ran_ls == (name == "local-search"), values
            else:
                assert all(v > 0 for v in values.values()), values
            print(f"ok  {name} trace={trace}: {result['attempted']} operations")


def _solved(case):
    out = case.solve()
    return out.best if hasattr(out, "best") else out


def _expect(ref: Reference, centers, outliers, cost, fragment: str) -> None:
    found = ref.check(centers, outliers, cost)
    assert any(fragment in p for p in found), (fragment, found)
    print(f"ok  rejects: {found[0]}")


def check_corruptions() -> None:
    case = workloads.build("exact-enum", 7, toy=True).cases[0]
    ref = Reference.for_case(case)
    sol = _solved(case)
    c, o, cost = list(sol.centers), list(sol.outliers), sol.cost
    assert ref.check(c, o, cost) == [], ref.check(c, o, cost)

    spare = next(f for f in ref.facilities if f not in c)
    _expect(ref, c + [spare], o, cost, "centers for k")
    near = ref.d[:, [ref.col[x] for x in c]].min(axis=1)
    kept = [p for p in ref.clients if p not in o]
    nearest_kept = min(kept, key=lambda p: near[ref.row[p]])
    _expect(ref, c, [nearest_kept] + o[1:], cost, "nearer to the centers")
    _expect(ref, c, o, cost * (1 + 1e-6), "reported cost")

    opt = ref.optimum()
    assert ref.check_quality(cost, opt, 3.0, True) == []
    assert ref.check_quality(opt * (1 - 1e-6), opt, 3.0, False), "cost below optimum"
    assert ref.check_quality(opt * 3.1, opt, 3.0, False), "ratio above the guarantee"
    assert ref.check_quality(opt * (1 + 1e-6), opt, 3.0, True), "lossless exactness"
    print("ok  rejects: costs below the optimum, above the guarantee, or inexact when lossless")

    cases = {c.kind: c for c in workloads.build("variants", 7, toy=True).cases}
    mcase = cases["matroid"]
    mref = Reference.for_case(mcase)
    msol = _solved(mcase)
    assert mref.check(msol.centers, msol.outliers, msol.cost) == []
    ids, _cap = mcase.parts[0]
    dependent = [ids[0], ids[1]] + [x for x in msol.centers if x not in ids][:1]
    _expect(mref, dependent, msol.outliers, msol.cost, "break the matroid")

    ccase = cases["colorful"]
    cref = Reference.for_case(ccase)
    csol = _solved(ccase)
    assert cref.check(csol.centers, csol.outliers, csol.cost) == []
    colors = ccase.colors
    swap_out = next(p for p in csol.outliers if colors[p] == 2)
    near = cref.d[:, [cref.col[x] for x in csol.centers]].min(axis=1)
    far_color1 = max(
        (p for p in ccase.inst.clients if colors[p] == 1 and p not in csol.outliers),
        key=lambda p: near[cref.row[p]],
    )
    over = [far_color1 if p == swap_out else p for p in csol.outliers]
    _expect(cref, csol.centers, over, csol.cost, "in a group with budget")


def check_benchmark_json() -> None:
    path = ROOT / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    print("ok  BENCHMARK.json matches run.py")


if __name__ == "__main__":
    check_benchmark_json()
    check_corruptions()
    check_workloads()
    print("self-test passed")
