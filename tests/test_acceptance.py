"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Tolerances are pinned here; "exact" comparisons use relative 1e-12,
inequalities that hold by construction get only float slack.
"""

from __future__ import annotations

import math
import time
from itertools import combinations

import numpy as np

from trimclust import (
    ColorfulInstance,
    CoresetParams,
    PlantedConfig,
    SampleCheckConfig,
    SolverHandle,
    baseline_solve,
    build_augmented_instance,
    build_coreset,
    check_matroid_axioms,
    colorful_oracle,
    colorful_solve,
    coreset_size_bound,
    direct_sum_matroid,
    exact_kmedian,
    exact_outlier_oracle,
    generate_planted,
    matroid_median_oracle,
    matroid_median_solve,
    PartitionMatroid,
    ExplicitMatroid,
    UniformMatroid,
    ring_partition,
    sample_concentration_check,
    solve_outlier_free,
    solve_with_outliers,
    trimmed_cost,
    verify_ring_bounds,
)
from trimclust.cli import main as cli_main
from trimclust.rng import generator_for
from conftest import random_instance

REL = 1e-12


def _report(num: int, name: str, ok: bool, detail: str, started: float, limit: float):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{name}]: {status} ({detail}; {elapsed:.1f}s / limit {limit:.0f}s)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget ({elapsed:.1f}s)"


def test_criterion_01_cost_function_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    failures = 0
    for i in range(200):
        n_c = int(rng.integers(2, 11))
        n_f = int(rng.integers(1, 7))
        m = int(rng.integers(0, min(3, n_c) + 1))
        z = 1.0 if i % 2 == 0 else 2.0
        inst = random_instance(rng, n_c, n_f, k=1, m=m, z=z)
        size = int(rng.integers(1, n_f + 1))
        C = sorted(int(c) for c in rng.choice(inst.facilities, size=size, replace=False))
        got = trimmed_cost(inst.dist, inst.clients, C, m, z)
        vals = {p: min(inst.dist.d(p, c) for c in C) ** z for p in inst.clients}
        want = min(
            math.fsum(vals[p] for p in inst.clients if p not in set(evicted))
            for evicted in combinations(inst.clients, m)
        )
        if not math.isclose(got, want, rel_tol=REL, abs_tol=1e-15):
            failures += 1
    _report(1, "trimmed cost = eviction oracle", failures == 0,
            f"{200 - failures}/200 instances equal at rel {REL}", t0, 10.0)


def test_criterion_02_augmented_lower_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    failures = 0
    for _ in range(100):
        n_c = int(rng.integers(2, 9))
        inst = random_instance(
            rng, n_c, int(rng.integers(1, 5)),
            k=int(rng.integers(1, 3)), m=int(rng.integers(0, min(2, n_c) + 1)),
        )
        opt = exact_outlier_oracle(inst).cost
        aug = build_augmented_instance(inst)
        centers = exact_kmedian(aug.dist, aug.clients, None, aug.facilities, aug.k, aug.z)
        opt_aug = trimmed_cost(aug.dist, aug.clients, centers, 0, aug.z)
        if opt_aug > opt * (1 + REL) + 1e-15:
            failures += 1
    _report(2, "augmented optimum lower-bounds original", failures == 0,
            f"{100 - failures}/100 instances", t0, 30.0)


def test_criterion_03_ring_sum_bounds():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    checks = 0
    failures = 0
    for _ in range(200):
        n_c = int(rng.integers(4, 25))
        k = int(rng.integers(1, 3))
        m = int(rng.integers(0, 3))
        coords_seed = int(rng.integers(1 << 30))
        for z in (1.0, 2.0):
            local = np.random.default_rng(coords_seed)
            inst = random_instance(local, n_c, int(local.integers(2, 6)), k=k, m=min(m, n_c), z=z)
            base = baseline_solve(build_augmented_instance(inst), exact_budget=20_000)
            rp = ring_partition(inst, base.centers, tau=1.0)
            rep = verify_ring_bounds(rp, inst)
            checks += 1
            expected_radius = (1 + 2**z) * rp.delta0
            expected_diam = 2**z * (1 + 2**z) * rp.delta0
            if not rep.passed:
                failures += 1
            if abs(rep.radius_bound - expected_radius) > REL * max(1, expected_radius):
                failures += 1
            if abs(rep.diameter_bound - expected_diam) > REL * max(1, expected_diam):
                failures += 1
    _report(3, "ring sums within provable factors", failures == 0,
            f"{checks} partitions checked across z in {{1,2}}, zero violations allowed", t0, 10.0)


def test_criterion_04_coreset_size_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    failures = 0
    built = 0
    for _ in range(50):
        n_c = int(rng.integers(10, 80))
        inst = random_instance(rng, n_c, int(rng.integers(2, 6)),
                               k=int(rng.integers(1, 4)), m=int(rng.integers(0, 4)))
        s = int(rng.integers(1, 12))
        params = CoresetParams(mode="practical", practical_s=s)
        base = baseline_solve(build_augmented_instance(inst), exact_budget=5_000)
        rp = ring_partition(inst, base.centers, tau=1.0)
        cs = build_coreset(rp, params, generator_for(built, 1, 0))
        built += 1
        if len(cs) > coreset_size_bound(s, rp.k, rp.m, rp.phi):
            failures += 1
    _report(4, "coreset size within 2s(k+m)(1+phi)", failures == 0,
            f"{built} coresets checked deterministically", t0, 30.0)


def test_criterion_05_lossless_regime_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    failures = 0
    for i in range(100):
        n_c = int(rng.integers(6, 21))
        inst = random_instance(
            rng, n_c, int(rng.integers(2, 9)),
            k=int(rng.integers(1, 4)), m=int(rng.integers(0, 3)),
        )
        params = CoresetParams(mode="practical", practical_s=n_c)
        rep = solve_with_outliers(inst, params, SolverHandle.exact(), seed=i, rounds=1)
        oracle = exact_outlier_oracle(inst)
        if not math.isclose(rep.best.cost, oracle.cost, rel_tol=REL, abs_tol=1e-15):
            failures += 1
    _report(5, "lossless coreset + exact box = oracle", failures == 0,
            f"{100 - failures}/100 instances equal at rel {REL}", t0, 120.0)


def _planted_suite():
    """50 configurations: |X| in 60..120, k <= 3, m <= 3, mixing regimes.

    Large single-cluster instances exceed the per-ring sample size, so their
    dense rings are genuinely resampled; the multi-cluster rows land in the
    lossless regime and cover the mixed case.
    """
    suite = []

    def add(n_total, k, m, count):
        for _ in range(count):
            idx = len(suite)
            ppc = (n_total - m) // k
            suite.append(
                PlantedConfig(
                    clusters=k, points_per_cluster=ppc, spread=1.0,
                    outlier_count=m, outlier_distance_factor=30.0,
                    dimension=2, seed=60_000 + idx,
                )
            )

    add(120, 1, 1, 12)
    add(110, 1, 1, 5)
    add(120, 1, 2, 8)
    add(120, 1, 3, 4)
    add(100, 2, 2, 6)
    add(64, 2, 2, 4)
    add(78, 3, 1, 4)
    add(62, 3, 1, 3)
    add(120, 2, 1, 4)
    assert len(suite) == 50
    return suite


def test_criterion_06_sampled_regime_guarantee():
    t0 = time.perf_counter()
    epsilon = 0.5
    threshold = (1 + epsilon) / (1 - epsilon)
    ratios = []
    sampled_instances = 0
    for i, cfg in enumerate(_planted_suite()):
        inst, _ = generate_planted(cfg)
        n = inst.n
        s = math.ceil(8 * (inst.m + inst.k * math.log(n)))
        params = CoresetParams(epsilon=epsilon, mode="practical", practical_s=s)
        rep = solve_with_outliers(
            inst, params, SolverHandle.exact(), seed=7_000 + i, rounds=2
        )
        if any(not r.coreset_lossless for r in rep.per_round):
            sampled_instances += 1
        oracle = exact_outlier_oracle(inst)
        ratios.append(rep.best.cost / oracle.cost)
    within_eps = sum(1 for r in ratios if r <= threshold + 1e-9)
    within_two = sum(1 for r in ratios if r <= 2.0 + 1e-9)
    ok = (
        within_eps >= 0.9 * len(ratios)
        and within_two == len(ratios)
        and sampled_instances >= 15  # the suite must actually exercise sampling
    )
    _report(
        6, "sampled-regime quality vs oracle", ok,
        f"{within_eps}/50 within {threshold:.1f}x, {within_two}/50 within 2x, "
        f"max ratio {max(ratios):.3f}, {sampled_instances} genuinely sampled instances",
        t0, 600.0,
    )


def test_criterion_07_sampling_concentration():
    t0 = time.perf_counter()
    trials = 1000
    worst = 0.0
    ok = True
    details = []
    configs = [
        (500, 2, 0.30, 0.05, 1.0, 11),
        (500, 3, 0.35, 0.05, 1.0, 12),
        (500, 1, 0.25, 0.10, 1.0, 13),
        (500, 2, 0.40, 0.05, 2.0, 14),
        (500, 0, 0.30, 0.02, 1.0, 15),
    ]
    for n_v, q, xi, lam_p, z, seed in configs:
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, n_v, 4, k=1, m=0, z=z, dim=2)
        cfg = SampleCheckConfig(xi=xi, q=q, lambda_prime=lam_p, z=z)
        assert cfg.sample_size <= n_v, "config must be drawable from |V|=500"
        rep = sample_concentration_check(
            inst.dist, inst.clients, inst.facilities[:2], cfg, trials,
            generator_for(seed, 2, 0),
        )
        bound = lam_p + 3 * math.sqrt(lam_p / trials)
        ok = ok and rep.violation_fraction <= bound
        worst = max(worst, rep.violation_fraction)
        details.append(f"{rep.violation_fraction:.3f}<={bound:.3f}")
    _report(7, "sample concentration Monte-Carlo", ok,
            f"5 configs x {trials} trials, fractions {'; '.join(details)}", t0, 120.0)


def test_criterion_08_local_search_quality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    failures = 0
    worst = 0.0
    for _ in range(100):
        inst = random_instance(
            rng, int(rng.integers(5, 25)), int(rng.integers(2, 11)),
            k=int(rng.integers(1, 4)), m=0,
        )
        k = min(inst.k, len(inst.facilities))
        ls = solve_outlier_free(
            inst.dist, inst.clients, None, inst.facilities, k, 1.0, SolverHandle.local_search()
        )
        ex = exact_kmedian(inst.dist, inst.clients, None, inst.facilities, k)
        c_ls = trimmed_cost(inst.dist, inst.clients, ls, 0)
        c_ex = trimmed_cost(inst.dist, inst.clients, ex, 0)
        if c_ls > 5.0 * c_ex * (1 + REL):
            failures += 1
        if c_ex > 0:
            worst = max(worst, c_ls / c_ex)
    _report(8, "local search within factor 5", failures == 0,
            f"100 instances, worst observed ratio {worst:.3f}", t0, 60.0)


def test_criterion_09_colorful_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    eq_failures = 0
    budget_failures = 0
    for i in range(50):
        n_c = int(rng.integers(6, 15))
        m1 = int(rng.integers(0, 3))
        m2 = int(rng.integers(0, 2))
        if m1 + m2 > n_c:
            m1, m2 = 1, 0
        inst = random_instance(rng, n_c, int(rng.integers(2, 5)),
                               k=int(rng.integers(1, 3)), m=m1 + m2)
        colors = {p: 1 + (j % 2) for j, p in enumerate(inst.clients)}
        cinst = ColorfulInstance(base=inst, colors=colors, budgets=(m1, m2))
        params = CoresetParams(mode="practical", practical_s=n_c)
        sol = colorful_solve(cinst, params, SolverHandle.exact(), seed=i, rounds=1)
        oracle = colorful_oracle(cinst)
        if not math.isclose(sol.cost, oracle.cost, rel_tol=REL, abs_tol=1e-15):
            eq_failures += 1
        for sol_any in (sol, oracle):
            for t in (1, 2):
                if sum(1 for p in sol_any.outliers if colors[p] == t) > (m1, m2)[t - 1]:
                    budget_failures += 1
    # sampled regime: tiny s, budgets must still hold
    for i in range(15):
        inst = random_instance(rng, 24, 4, k=2, m=3)
        colors = {p: 1 + (p % 2) for p in inst.clients}
        cinst = ColorfulInstance(base=inst, colors=colors, budgets=(2, 1))
        params = CoresetParams(mode="practical", practical_s=3)
        sol = colorful_solve(cinst, params, SolverHandle.exact(), seed=100 + i, rounds=1)
        counts = {1: 0, 2: 0}
        for p in sol.outliers:
            counts[colors[p]] += 1
        if counts[1] > 2 or counts[2] > 1:
            budget_failures += 1
    ok = eq_failures == 0 and budget_failures == 0
    _report(9, "colorful solve = colorful oracle + budgets", ok,
            f"{50 - eq_failures}/50 equal; budget violations {budget_failures}", t0, 120.0)


def test_criterion_10_matroid_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    axiom_cases = [
        direct_sum_matroid(UniformMatroid(range(3), 2), [10, 11], 1),
        direct_sum_matroid(PartitionMatroid([((0, 1), 1), ((2,), 1)]), [10, 11, 12], 2),
        direct_sum_matroid(
            ExplicitMatroid(range(3), [[0, 1], [1, 2], [0, 2]]), [10, 11, 12, 13], 1
        ),
        direct_sum_matroid(UniformMatroid(range(4), 2), [10, 11, 12, 13], 2),
    ]
    axioms_ok = True
    for ds in axiom_cases:
        assert len(ds.ground_set) <= 8
        ok, failures = check_matroid_axioms(ds)
        axioms_ok = axioms_ok and ok
    eq_failures = 0
    dependent = 0
    for i in range(50):
        n_c = int(rng.integers(5, 11))
        m = int(rng.integers(0, 3))
        inst = random_instance(rng, n_c, 5, k=3, m=m)
        fac = list(inst.facilities)
        matroid = PartitionMatroid(
            [((fac[0], fac[1]), 1), ((fac[2], fac[3]), 1), ((fac[4],), 1)]
        )
        params = CoresetParams(mode="practical", practical_s=n_c)
        sol = matroid_median_solve(
            inst, matroid, params, SolverHandle.exact(), seed=i, rounds=1
        )
        oracle = matroid_median_oracle(inst, matroid)
        if not math.isclose(sol.cost, oracle.cost, rel_tol=REL, abs_tol=1e-15):
            eq_failures += 1
        if not (matroid.is_independent(sol.centers) and matroid.is_independent(oracle.centers)):
            dependent += 1
    ok = axioms_ok and eq_failures == 0 and dependent == 0
    _report(10, "matroid axioms + solve = oracle", ok,
            f"axioms over {len(axiom_cases)} direct sums; {50 - eq_failures}/50 equal; "
            f"dependent candidates {dependent}", t0, 120.0)


def test_criterion_11_byte_determinism(tmp_path):
    t0 = time.perf_counter()
    inst_path = tmp_path / "det.inst"
    cli_main([
        "generate", "--clusters", "2", "--points-per-cluster", "20", "--spread", "1.0",
        "--outliers", "2", "--outlier-distance-factor", "25.0", "--dimension", "2",
        "--seed", "555", "--out", str(inst_path),
    ])
    blobs = []
    for name in ("d1.json", "d2.json"):
        out = tmp_path / name
        rc = cli_main([
            "solve", "--instance", str(inst_path), "--epsilon", "0.5",
            "--mode", "practical", "--s", "9", "--solver", "exact",
            "--rounds", "3", "--seed", "808", "--out", str(out),
        ])
        assert rc == 0
        blobs.append(out.read_bytes())
    solve_ok = blobs[0] == blobs[1]

    suite = {
        "seed": 31,
        "rounds": 1,
        "params": {"epsilon": 0.5, "mode": "practical", "practical_s": 8},
        "solver": {"kind": "exact"},
        "instances": [
            {"id": "x", "planted": {
                "clusters": 2, "points_per_cluster": 10, "spread": 1.0,
                "outlier_count": 1, "outlier_distance_factor": 25.0,
                "dimension": 2, "seed": 9,
            }},
        ],
    }
    import json

    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(suite))
    exp = []
    for name in ("e1.json", "e2.json"):
        out = tmp_path / name
        cli_main(["experiment", "--suite", str(suite_path), "--out", str(out)])
        exp.append(out.read_bytes())
    exp_ok = exp[0] == exp[1]
    _report(11, "byte-identical reports per seed", solve_ok and exp_ok,
            f"solve reports identical: {solve_ok}; experiment reports identical: {exp_ok}",
            t0, 120.0)
