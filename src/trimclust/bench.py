"""Experiment orchestration: run the pipeline against the exact oracle over a
suite of instances and emit a machine-readable report.

A suite is a plain dict (usually loaded from JSON):

    {
      "seed": 1234,
      "rounds": 2,
      "params": {"epsilon": 0.5, "lam": 0.1, "mode": "practical", "practical_s": 40},
      "solver": {"kind": "exact"},
      "oracle_budget": 2000000,
      "ratio_threshold": 3.0,
      "min_success_fraction": 0.9,
      "include_timing": false,
      "instances": [
        {"id": "a", "file": "a.inst"},
        {"id": "b", "planted": {"clusters": 2, "points_per_cluster": 30, ...}}
      ]
    }

``params`` holds `CoresetParams` fields and may restate ``z``, which must then
equal each instance's own; every row records the instance's z.  ``solver``
holds `SolverHandle` fields; ``kind`` is "exact" (the default), "local-search"
or "local_search".
Ratios compare re-evaluated costs only.  Timing is off by default so a report
is a pure function of (seed, params, instances).
"""

from __future__ import annotations

import math
import time
from typing import Any

from .coreset import CoresetParams
from .extensions import exact_outlier_oracle
from .fileio import load_instance
from .generate import PlantedConfig, generate_planted
from .metric import MetricInstance, Solution
from .reduction import ReductionReport, solve_with_outliers
from .rng import TAG_EXPERIMENT, derived_seed
from .solvers import DEFAULT_ENUMERATION_BUDGET, SolverBudgetExceeded, SolverHandle


def solver_from_dict(d: dict[str, Any]) -> SolverHandle:
    """The handle of a suite's ``solver`` entry; SolverHandle rejects a bad
    kind, and an unknown field (``z`` included) is a TypeError."""
    rest = dict(d)
    kind = rest.pop("kind", "exact")
    return SolverHandle(kind="local_search" if kind == "local-search" else kind, **rest)


def solution_to_dict(sol: Solution) -> dict[str, Any]:
    return {
        "centers": list(sol.centers),
        "outliers": list(sol.outliers),
        "cost": sol.cost,
        "candidate_tag": sol.candidate_tag,
    }


def report_to_dict(rep: ReductionReport) -> dict[str, Any]:
    return {
        "best": solution_to_dict(rep.best),
        "candidates_evaluated": rep.candidates_evaluated,
        "rounds": rep.rounds,
        "seed": rep.seed,
        "epsilon_factor": rep.epsilon_factor,
        "baseline": {
            "centers": list(rep.baseline.centers),
            "cost": rep.baseline.cost,
            "method": rep.baseline.method,
            "tau_guarantee": rep.baseline.tau_guarantee,
            "converged": rep.baseline.converged,
        },
        "per_round": [
            {
                "round": r.round,
                "stream": list(r.stream),
                "coreset_size": r.coreset_size,
                "coreset_lossless": r.coreset_lossless,
                "best_cost": r.best_cost,
                "evaluated": r.evaluated,
            }
            for r in rep.per_round
        ],
    }


def _load_suite_instance(spec: dict[str, Any]) -> MetricInstance:
    if "file" in spec:
        return load_instance(spec["file"])
    if "planted" in spec:
        inst, _ = generate_planted(PlantedConfig(**spec["planted"]))
        return inst
    raise ValueError(f"instance spec needs 'file' or 'planted': {spec!r}")


def run_experiment(suite: dict[str, Any]) -> tuple[dict[str, Any], bool]:
    """Run every instance of the suite; return (report, thresholds_ok).

    Per instance the exact oracle runs when its enumeration fits the budget
    (otherwise the row is marked oracle_skipped and excluded from ratio
    statistics), then the pipeline runs with a per-instance derived seed.
    """
    seed = int(suite["seed"])
    rounds = int(suite.get("rounds", 2))
    params_spec = dict(suite.get("params", {}))
    solver = solver_from_dict(suite.get("solver", {"kind": "exact"}))
    oracle_budget = int(suite.get("oracle_budget", DEFAULT_ENUMERATION_BUDGET))
    threshold = suite.get("ratio_threshold")
    min_success = suite.get("min_success_fraction")
    include_timing = bool(suite.get("include_timing", False))

    rows = []
    ratios = []
    successes = 0
    compared = 0
    for idx, spec in enumerate(sorted(suite["instances"], key=lambda s: str(s["id"]))):
        inst = _load_suite_instance(spec)
        row_params = dict(params_spec)
        if row_params.setdefault("z", inst.z) != inst.z:
            raise ValueError(f"params.z={row_params['z']} disagrees with instance z={inst.z}")
        params = CoresetParams(**{k: v for k, v in row_params.items() if k != "z"})
        inst_seed = derived_seed(seed, TAG_EXPERIMENT, idx)

        t0 = time.perf_counter()
        rep = solve_with_outliers(inst, params, solver, seed=inst_seed, rounds=rounds)
        framework_cost = rep.best.cost
        elapsed = time.perf_counter() - t0

        oracle_cost = None
        oracle_skipped = True
        try:
            oracle_cost = exact_outlier_oracle(inst, budget=oracle_budget).cost
            oracle_skipped = False
        except SolverBudgetExceeded:
            pass

        ratio = None
        if not oracle_skipped:
            ratio = framework_cost / oracle_cost if oracle_cost > 0 else (
                1.0 if framework_cost == 0 else math.inf
            )
            ratios.append(ratio)
            compared += 1
            if threshold is None or ratio <= threshold:
                successes += 1

        row = {
            "instance": str(spec["id"]),
            "oracle_cost": oracle_cost,
            "framework_cost": framework_cost,
            "ratio": ratio,
            "oracle_skipped": oracle_skipped,
            "rounds": rounds,
            "seed": inst_seed,
            "params": dict(sorted(row_params.items())),
        }
        if include_timing:
            row["wall_time_s"] = elapsed
        rows.append(row)

    success_fraction = (successes / compared) if compared else 1.0
    summary = {
        "instances": len(rows),
        "oracle_compared": compared,
        "mean_ratio": (sum(ratios) / len(ratios)) if ratios else None,
        "max_ratio": max(ratios) if ratios else None,
        "ratio_threshold": threshold,
        "success_fraction": success_fraction,
        "min_success_fraction": min_success,
    }
    ok = True
    if threshold is not None and min_success is not None and compared:
        ok = success_fraction >= min_success
    report = {
        "kind": "experiment-report",
        "version": 1,
        "seed": seed,
        "rows": rows,
        "summary": summary,
    }
    return report, ok
