"""Command-line front end.

Verbs: generate, solve, oracle, experiment, coreset-dump, check-rings.
Reports are canonical JSON, so identical seeds and parameters reproduce them
byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fileio
from .bench import report_to_dict, run_experiment, solution_to_dict, solver_from_dict
from .coreset import (
    CoresetParams,
    baseline_solve,
    build_augmented_instance,
    build_coreset,
    ring_partition,
    verify_ring_bounds,
)
from .extensions import exact_outlier_oracle
from .generate import PlantedConfig, generate_planted
from .reduction import solve_with_outliers
from .rng import TAG_ROUND, generator_for
from .solvers import DEFAULT_ENUMERATION_BUDGET, SolverBudgetExceeded


def _add_params_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--lambda", dest="lam", type=float, default=0.1)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--mode", choices=["theory", "practical"], default="practical")
    p.add_argument("--s", type=int, default=None, help="sample size (practical mode)")
    p.add_argument("--c-theory", type=float, default=1.0, help="theory-mode constant")
    p.add_argument("--c-prime", type=float, default=9.0, help="theory-mode z exponent constant")


def _params_for(args) -> CoresetParams:
    return CoresetParams(
        epsilon=args.epsilon,
        lam=args.lam,
        tau=args.tau,
        c_theory=args.c_theory,
        c_prime=args.c_prime,
        mode=args.mode,
        practical_s=args.s,
    )


def _out(payload, path: str | None) -> None:
    text = fileio.dump_json(payload)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="trimclust")
    sub = ap.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("generate", help="write a planted instance file")
    g.add_argument("--clusters", type=int, required=True)
    g.add_argument("--points-per-cluster", type=int, required=True)
    g.add_argument("--spread", type=float, default=1.0)
    g.add_argument("--outliers", type=int, default=0)
    g.add_argument("--outlier-distance-factor", type=float, default=30.0)
    g.add_argument("--dimension", type=int, default=2)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--k", type=int, default=None)
    g.add_argument("--m", type=int, default=None)
    g.add_argument("--z", type=float, default=1.0)
    g.add_argument("--facility-fraction", type=float, default=None)
    g.add_argument("--out", required=True)

    s = sub.add_parser("solve", help="run the outlier reduction on an instance")
    s.add_argument("--instance", required=True)
    _add_params_flags(s)
    s.add_argument("--solver", choices=["exact", "local-search"], default="exact")
    s.add_argument("--solver-budget", type=int, default=None,
                   help="candidate-set enumeration cap of the exact solver")
    s.add_argument("--iteration-cap", type=int, default=200)
    s.add_argument("--improvement-threshold", type=float, default=1e-3)
    s.add_argument("--rounds", type=int, default=None)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out", default=None)

    o = sub.add_parser("oracle", help="exact optimum by brute force")
    o.add_argument("--instance", required=True)
    o.add_argument("--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET)
    o.add_argument("--out", default=None)

    e = sub.add_parser("experiment", help="run a JSON suite against the oracle")
    e.add_argument("--suite", required=True)
    e.add_argument("--seed", type=int, default=None, help="override the suite seed")
    e.add_argument("--timings", action="store_true",
                   help="include wall times (makes reports non-deterministic)")
    e.add_argument("--out", default=None)

    c = sub.add_parser("coreset-dump", help="build one coreset and dump its entries")
    c.add_argument("--instance", required=True)
    _add_params_flags(c)
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--out", required=True)

    r = sub.add_parser("check-rings", help="verify the ring sums against their bounds")
    r.add_argument("--instance", required=True)
    r.add_argument("--tau", type=float, default=1.0)
    r.add_argument("--out", default=None)

    args = ap.parse_args(argv)
    inst = None
    if "instance" in args:
        try:
            inst = fileio.load_instance(args.instance)
        except (OSError, ValueError) as exc:
            print(f"cannot load instance {args.instance}: {exc}", file=sys.stderr)
            return 2
    try:
        return _run(ap, args, inst)
    except OSError as exc:  # each verb reports its own unreadable input: this is --out
        print(f"{args.verb} failed: {exc}", file=sys.stderr)
        return 2


def _run(ap: argparse.ArgumentParser, args: argparse.Namespace, inst) -> int:
    if args.verb == "generate":
        try:
            cfg = PlantedConfig(
                clusters=args.clusters,
                points_per_cluster=args.points_per_cluster,
                spread=args.spread,
                outlier_count=args.outliers,
                outlier_distance_factor=args.outlier_distance_factor,
                dimension=args.dimension,
                seed=args.seed,
                k=args.k,
                m=args.m,
                z=args.z,
                facility_fraction=args.facility_fraction,
            )
            inst, _ = generate_planted(cfg)
        except ValueError as exc:
            print(f"generate failed: {exc}", file=sys.stderr)
            return 2
        fileio.save_instance(inst, args.out)
        return 0

    if args.verb == "solve":
        # every solver flag reaches the handle, so its checks see them all
        spec: dict = {
            "kind": args.solver,
            "iteration_cap": args.iteration_cap,
            "improvement_threshold": args.improvement_threshold,
        }
        if args.solver_budget is not None:
            spec["enumeration_budget"] = args.solver_budget
        try:
            params = _params_for(args)
            solver = solver_from_dict(spec)
            rep = solve_with_outliers(inst, params, solver, seed=args.seed, rounds=args.rounds)
        except (SolverBudgetExceeded, RuntimeError, ValueError) as exc:
            print(f"solve failed: {exc}", file=sys.stderr)
            return 2
        payload = {"kind": "solve-report", "version": 1, "instance": args.instance}
        payload.update(report_to_dict(rep))
        _out(payload, args.out)
        return 0

    if args.verb == "oracle":
        try:
            sol = exact_outlier_oracle(inst, budget=args.budget)
        except SolverBudgetExceeded as exc:
            print(f"oracle refused: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:  # e.g. every candidate's cost overflows float64
            print(f"oracle failed: {exc}", file=sys.stderr)
            return 2
        payload = {"kind": "oracle-report", "version": 1, "instance": args.instance}
        payload["solution"] = solution_to_dict(sol)
        _out(payload, args.out)
        return 0

    if args.verb == "experiment":
        try:
            with open(args.suite) as fh:
                suite = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"cannot load suite {args.suite}: {exc}", file=sys.stderr)
            return 2
        if args.seed is not None:
            suite["seed"] = args.seed
        if "seed" not in suite:
            ap.error("the suite (or --seed) must provide a seed")
        if args.timings:
            suite["include_timing"] = True
        try:
            report, ok = run_experiment(suite)
        except (OSError, TypeError, ValueError, RuntimeError) as exc:
            print(f"experiment failed: {exc}", file=sys.stderr)
            return 2
        _out(report, args.out)
        return 0 if ok else 1

    if args.verb == "coreset-dump":
        try:
            params = _params_for(args)
            rng = generator_for(args.seed, TAG_ROUND, 0)
        except ValueError as exc:
            print(f"coreset-dump failed: {exc}", file=sys.stderr)
            return 2
        base = baseline_solve(build_augmented_instance(inst))
        rp = ring_partition(inst, base.centers, params.tau)
        cs = build_coreset(rp, params, rng)
        fileio.save_coreset(
            cs, args.out,
            seed=args.seed, R=rp.R, phi=rp.phi, tau=params.tau, baseline=rp.baseline,
        )
        return 0

    # the subparsers are required, so the only verb left is check-rings
    base = baseline_solve(build_augmented_instance(inst))
    try:
        rp = ring_partition(inst, base.centers, args.tau)
    except ValueError as exc:
        print(f"check-rings failed: {exc}", file=sys.stderr)
        return 2
    rep = verify_ring_bounds(rp, inst)
    payload = {
        "kind": "ring-report",
        "version": 1,
        "instance": args.instance,
        "z": rep.z,
        "delta0": rep.delta0,
        "radius_sum": rep.radius_sum,
        "radius_bound": rep.radius_bound,
        "diameter_sum": rep.diameter_sum,
        "diameter_bound": rep.diameter_bound,
        "passed": rep.passed,
    }
    _out(payload, args.out)
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
