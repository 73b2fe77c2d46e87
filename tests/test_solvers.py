"""Exact and local-search solvers against brute force."""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from trimclust import (
    ColorfulInstance,
    EuclideanOracle,
    PartitionMatroid,
    SolverBudgetExceeded,
    SolverHandle,
    WeightedPointSet,
    exact_kmedian,
    exact_outlier_oracle,
    expand_unweighted,
    local_search_kmedian,
    trimmed_cost,
    weighted_trimmed_cost,
)
from trimclust import solvers
from trimclust.extensions import colorful_matroid_oracle, colorful_oracle, matroid_median_oracle
from trimclust.solvers import CandidateSpace, argmin_trimmed
from conftest import line_instance, random_instance


def test_expand_unweighted():
    assert expand_unweighted(WeightedPointSet((1, 2), (1, 1))) == (1, 2)
    assert expand_unweighted(WeightedPointSet((7,), (3,))) == (7, 7, 7)


def test_expand_preserves_cost_bit_identical(rng):
    # 1-D integer coordinates make every distance, product, and sum exact in
    # floats, so the weighted and the expanded evaluations agree bit for bit
    for _ in range(20):
        inst = random_instance(rng, 8, 3, k=1, m=0, integer=True, dim=1)
        weights = [int(w) for w in rng.integers(1, 6, size=8)]
        wps = WeightedPointSet(inst.clients, tuple(weights))
        C = [int(c) for c in rng.choice(inst.facilities, size=2, replace=False)]
        a = weighted_trimmed_cost(inst.dist, wps.points, wps.weights, C, 0, 1.0)
        b = trimmed_cost(inst.dist, expand_unweighted(wps), C, 0, 1.0)
        assert a == b


def test_exact_kmedian_weighted_equals_expanded(rng):
    # solving on w(x) copies must match solving natively on weights
    for _ in range(10):
        inst = random_instance(rng, 7, 4, k=2, m=0, integer=True, dim=1)
        weights = tuple(int(w) for w in rng.integers(1, 5, size=7))
        wps = WeightedPointSet(inst.clients, weights)
        expanded = expand_unweighted(wps)
        a = exact_kmedian(inst.dist, wps.points, wps.weights, inst.facilities, 2)
        b = exact_kmedian(inst.dist, expanded, None, inst.facilities, 2)
        assert a == b
        cost_a = weighted_trimmed_cost(inst.dist, wps.points, wps.weights, a, 0)
        cost_b = trimmed_cost(inst.dist, expanded, b, 0)
        assert cost_a == cost_b


def test_exact_kmedian_small_cases():
    inst = line_instance([0, 1, 10], [0, 10], k=1, m=0)
    got = exact_kmedian(inst.dist, inst.clients, None, inst.facilities, 1)
    assert got == (3,)  # facility at coordinate 0 (cost 11 beats 19)

    weighted = exact_kmedian(inst.dist, [0, 2], [5.0, 1.0], inst.facilities, 1)
    assert weighted == (3,)  # 5 copies at 0 pin the center there (10 vs 50)


def test_exact_kmedian_k_at_least_f():
    inst = line_instance([0, 1], [3, 4, 5], k=7, m=0)
    assert exact_kmedian(inst.dist, inst.clients, None, inst.facilities, 7) == (2, 3, 4)


def test_exact_kmedian_budget_refusal():
    inst = line_instance(list(range(5)), list(range(5, 25)), k=8, m=0)
    with pytest.raises(SolverBudgetExceeded):
        exact_kmedian(inst.dist, inst.clients, None, inst.facilities, 8, budget=10)


def test_exact_kmedian_matches_bruteforce(rng):
    for _ in range(20):
        inst = random_instance(rng, int(rng.integers(3, 10)), int(rng.integers(2, 7)), k=2, m=0)
        z = float(rng.choice([1.0, 2.0]))
        got = exact_kmedian(inst.dist, inst.clients, None, inst.facilities, 2, z)
        got_cost = trimmed_cost(inst.dist, inst.clients, got, 0, z)
        want = min(
            trimmed_cost(inst.dist, inst.clients, C, 0, z)
            for C in combinations(inst.facilities, min(2, len(inst.facilities)))
        )
        assert got_cost == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# local search
# ---------------------------------------------------------------------------


def test_local_search_fixpoint_at_optimum():
    inst = line_instance([0.0, 1.0, 10.0, 11.0], [0.0, 1.0, 10.0, 11.0], k=2, m=0)
    opt = exact_kmedian(inst.dist, inst.clients, None, inst.facilities, 2)
    got = local_search_kmedian(
        inst.dist, inst.clients, None, inst.facilities, 2, initial=opt
    )
    assert got == opt


def test_local_search_within_factor_five(rng):
    worst = 0.0
    for _ in range(60):
        inst = random_instance(
            rng, int(rng.integers(5, 20)), int(rng.integers(3, 11)),
            k=int(rng.integers(1, 4)), m=0,
        )
        k = min(inst.k, len(inst.facilities))
        ls = local_search_kmedian(inst.dist, inst.clients, None, inst.facilities, k)
        ex = exact_kmedian(inst.dist, inst.clients, None, inst.facilities, k)
        c_ls = trimmed_cost(inst.dist, inst.clients, ls, 0)
        c_ex = trimmed_cost(inst.dist, inst.clients, ex, 0)
        assert c_ls >= c_ex - 1e-12  # sanity direction
        if c_ex > 0:
            worst = max(worst, c_ls / c_ex)
        assert c_ls <= 5.0 * c_ex * (1 + 1e-12)
    assert worst < 5.0


def test_local_search_deterministic(rng):
    inst = random_instance(rng, 30, 12, k=3, m=0)
    a = local_search_kmedian(inst.dist, inst.clients, None, inst.facilities, 3)
    b = local_search_kmedian(inst.dist, inst.clients, None, inst.facilities, 3)
    assert a == b


def test_local_search_restarts_never_hurt(rng):
    inst = random_instance(rng, 30, 12, k=3, m=0)
    plain = local_search_kmedian(inst.dist, inst.clients, None, inst.facilities, 3)
    multi = local_search_kmedian(
        inst.dist, inst.clients, None, inst.facilities, 3, restarts=3, rng=rng
    )
    c_plain = trimmed_cost(inst.dist, inst.clients, plain, 0)
    c_multi = trimmed_cost(inst.dist, inst.clients, multi, 0)
    assert c_multi <= c_plain + 1e-12


def test_local_search_iteration_cap_warns(rng):
    inst = random_instance(rng, 40, 20, k=4, m=0)
    handle = SolverHandle(
        kind="local_search", beta_guarantee="heuristic", iteration_cap=1,
        improvement_threshold=1e-9,
    )
    with pytest.warns(RuntimeWarning):
        local_search_kmedian(inst.dist, inst.clients, None, inst.facilities, 4, handle=handle)


def test_handle_validation():
    with pytest.raises(ValueError):
        SolverHandle(kind="exact", beta_guarantee=2)
    with pytest.raises(ValueError):
        SolverHandle(kind="simplex", beta_guarantee=1)
    assert SolverHandle.local_search(2.0).beta_guarantee == "heuristic"
    assert SolverHandle.local_search(1.0).beta_guarantee == 5.0


# ---------------------------------------------------------------------------
# exact outlier oracle
# ---------------------------------------------------------------------------


def test_oracle_all_outliers_free():
    inst = line_instance([0, 5, 9], [1, 7], k=1, m=3)
    sol = exact_outlier_oracle(inst)
    assert sol.cost == 0.0 and len(sol.centers) == 1
    assert sol.candidate_tag == "oracle"


def test_oracle_line_example():
    inst = line_instance([0, 1, 10, 50], [0, 10], k=1, m=1)
    sol = exact_outlier_oracle(inst)
    assert sol.centers == (4,)  # the facility at coordinate 0
    assert sol.outliers == (3,)  # the client at 50
    assert sol.cost == 11.0


def test_oracle_m_zero_matches_exact_kmedian(rng):
    for _ in range(15):
        inst = random_instance(rng, 8, 4, k=2, m=0)
        sol = exact_outlier_oracle(inst)
        C = exact_kmedian(inst.dist, inst.clients, None, inst.facilities, 2)
        assert sol.cost == trimmed_cost(inst.dist, inst.clients, C, 0)


def test_oracle_matches_full_enumeration(rng):
    # independent oracle: enumerate center sets AND eviction sets
    for _ in range(10):
        inst = random_instance(rng, 7, 4, k=2, m=2)
        sol = exact_outlier_oracle(inst)
        want = math.inf
        for C in combinations(inst.facilities, 2):
            for Y in combinations(inst.clients, inst.m):
                kept = [p for p in inst.clients if p not in set(Y)]
                want = min(want, trimmed_cost(inst.dist, kept, C, 0))
        assert sol.cost == pytest.approx(want, rel=1e-12)


def test_oracle_budget_refusal():
    inst = line_instance(list(range(4)), list(range(4, 30)), k=10, m=1)
    with pytest.raises(SolverBudgetExceeded):
        exact_outlier_oracle(inst, budget=100)


def test_oracle_solution_is_consistent(rng):
    inst = random_instance(rng, 12, 5, k=2, m=3, z=2.0)
    sol = exact_outlier_oracle(inst)
    assert len(sol.centers) <= inst.k and len(sol.outliers) == inst.m
    assert sol.cost == trimmed_cost(inst.dist, inst.clients, sol.centers, inst.m, inst.z)


# ---------------------------------------------------------------------------
# the trimmed-argmin kernel
# ---------------------------------------------------------------------------


def _argmin_loop(d, space, groups):
    """Plain per-candidate reference for argmin_trimmed."""
    col = {c: j for j, c in enumerate(space.col_ids)}
    all_rows = np.arange(d.shape[0])
    best, best_idx = math.inf, -1
    for i in range(space.count):
        cols = [col[c] for c in space.centers_at(i)]
        cost = 0.0
        for rows, drop in groups:
            mins = sorted(float(d[r, cols].min()) for r in all_rows[rows])
            cost += sum(mins[: len(mins) - drop])
        if cost < best:
            best, best_idx = cost, i
    return best_idx


@pytest.mark.parametrize("explicit", [False, True])
def test_argmin_trimmed_matches_per_candidate_loop(rng, monkeypatch, explicit):
    # 1-D integer coordinates make every sum exact on both sides, and twin
    # facilities make ties between candidate sets real
    monkeypatch.setattr(solvers, "_CHUNK_ELEMENTS", 100)  # two candidates a chunk
    for _ in range(6):
        inst = random_instance(rng, 12, 8, k=3, m=0, integer=True, dim=1)
        coords = inst.dist.coords.copy()
        fac = inst.facilities
        for a, b in zip(fac[::2], fac[1::2]):
            coords[b] = coords[a]
        if explicit:
            combos = list(combinations(fac, 3))
            picks = rng.permutation(len(combos))[:30]
            space = CandidateSpace.from_center_sets([combos[i] for i in picks])
        else:
            space = CandidateSpace.subsets(fac, 3)
        d = EuclideanOracle(coords).pairwise(inst.clients, space.col_ids)
        assert len(list(space.chunks(d.shape[0]))) > 2
        rows = rng.permutation(12)
        for groups in (
            [(slice(None), 0)],
            [(slice(None), 4)],
            [(slice(None), 12)],  # every row dropped: all candidates cost 0
            [(rows[:5], 0), (rows[5:9], 2), (rows[9:], 3)],
        ):
            assert argmin_trimmed(d, space, groups) == _argmin_loop(d, space, groups)


@pytest.mark.parametrize(
    "oracle", ["plain", "colorful", "matroid", "colorful_matroid"]
)
def test_oracles_refuse_when_no_cost_is_finite(rng, oracle):
    # every distance overflows at this scale, so every powered cost is inf
    inst = random_instance(rng, 8, 6, k=2, m=2, z=2.0)
    inst = replace(inst, dist=EuclideanOracle(inst.dist.coords * 1e200))
    fac = inst.facilities
    matroid = PartitionMatroid([(fac[:3], 1), (fac[3:], 1)])
    cinst = ColorfulInstance(
        base=inst, colors={p: 1 + p % 2 for p in inst.clients}, budgets=(1, 1)
    )
    call = {
        "plain": lambda: exact_outlier_oracle(inst),
        "colorful": lambda: colorful_oracle(cinst),
        "matroid": lambda: matroid_median_oracle(inst, matroid),
        "colorful_matroid": lambda: colorful_matroid_oracle(cinst, matroid),
    }[oracle]
    with pytest.raises(ValueError, match="no candidate center set has a finite cost"):
        call()
