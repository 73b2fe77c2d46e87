"""Powered costs, colorful budgets, matroid constraints, and the combination."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from trimclust import (
    ColorfulInstance,
    CoresetParams,
    EuclideanOracle,
    MetricInstance,
    PartitionMatroid,
    SolverHandle,
    UniformMatroid,
    WeightedCoreset,
    baseline_solve,
    build_augmented_instance,
    colorful_cost,
    colorful_matroid_oracle,
    colorful_matroid_solve,
    colorful_oracle,
    colorful_outliers,
    colorful_solve,
    evaluate_candidate,
    exact_kmedian,
    exact_outlier_oracle,
    matroid_median_oracle,
    matroid_median_solve,
    ring_partition,
    solve_with_outliers,
    trimmed_cost,
    trimmed_score,
    trimmed_sum,
)
from trimclust import BaselineResult, extensions, matroids, reduction
from trimclust.bench import report_to_dict
from trimclust.extensions import build_colored_coreset, matroid_baseline
from trimclust.rng import generator_for
from conftest import line_instance, random_instance, shared_point_instance


def practical(s, epsilon=0.5):
    return CoresetParams(epsilon=epsilon, mode="practical", practical_s=s)


def lossless(inst):
    return practical(len(inst.clients))


def colorful(rng, n_clients, n_fac, k, budgets, z=1.0):
    """Round-robin colors, so every class is big enough for its budget."""
    inst = random_instance(rng, n_clients, n_fac, k=k, m=sum(budgets), z=z)
    colors = {p: 1 + (i % len(budgets)) for i, p in enumerate(inst.clients)}
    return ColorfulInstance(base=inst, colors=colors, budgets=tuple(budgets))


# ---------------------------------------------------------------------------
# powered costs
# ---------------------------------------------------------------------------


def test_kz_z1_identical_to_base(rng):
    inst = random_instance(rng, 10, 4, k=2, m=1)
    params = practical(4)
    for seed in range(100):
        a = solve_with_outliers(inst, params, SolverHandle.exact(), seed=seed, rounds=1)
        b = solve_with_outliers(inst, params, SolverHandle.exact(), seed=seed, rounds=1)
        assert report_to_dict(a) == report_to_dict(b)


def test_kz_z2_lossless_equals_squared_oracle(rng):
    for _ in range(10):
        inst = random_instance(
            rng, int(rng.integers(6, 17)), int(rng.integers(2, 6)),
            k=int(rng.integers(1, 3)), m=int(rng.integers(0, 3)), z=2.0,
        )
        rep = solve_with_outliers(inst, lossless(inst), SolverHandle.exact(), seed=3, rounds=1)
        oracle = exact_outlier_oracle(inst)
        assert rep.best.cost == pytest.approx(oracle.cost, rel=1e-12)


def test_squared_distances_relaxed_triangle(rng):
    inst = random_instance(rng, 12, 4, k=1, m=0, dim=3)
    ids = list(inst.clients) + list(inst.facilities)
    for _ in range(200):
        p, r, q = rng.choice(ids, size=3)
        dpq = inst.dist.d(int(p), int(q)) ** 2
        dpr = inst.dist.d(int(p), int(r)) ** 2
        drq = inst.dist.d(int(r), int(q)) ** 2
        assert dpq <= 2 * (dpr + drq) + 1e-9


def test_kz_rejects_invalid_z(rng):
    inst = random_instance(rng, 5, 2, k=1, m=0)
    object.__setattr__(inst, "z", 0.5)  # bypass the constructor check
    # the augmented instance of the baseline is built through the same check
    with pytest.raises(ValueError, match="z must be >= 1"):
        solve_with_outliers(inst, practical(5), SolverHandle.exact(), seed=0)


# ---------------------------------------------------------------------------
# colorful
# ---------------------------------------------------------------------------


def test_single_color_equals_plain(rng):
    for seed in range(5):
        cinst = colorful(rng, 12, 4, k=2, budgets=(2,))
        a = colorful_solve(cinst, lossless(cinst.base), SolverHandle.exact(), seed=seed, rounds=1)
        b = solve_with_outliers(
            cinst.base, lossless(cinst.base), SolverHandle.exact(), seed=seed, rounds=1
        )
        assert a.cost == pytest.approx(b.best.cost, rel=1e-12)


def test_two_color_lossless_equals_oracle(rng):
    for _ in range(12):
        cinst = colorful(
            rng, int(rng.integers(6, 15)), int(rng.integers(2, 5)),
            k=int(rng.integers(1, 3)), budgets=(1, int(rng.integers(0, 2))),
        )
        sol = colorful_solve(cinst, lossless(cinst.base), SolverHandle.exact(), seed=5, rounds=1)
        oracle = colorful_oracle(cinst)
        assert sol.cost == pytest.approx(oracle.cost, rel=1e-12)


def test_zero_budgets_equal_plain_kmedian(rng):
    cinst = colorful(rng, 10, 4, k=2, budgets=(0, 0))
    sol = colorful_solve(cinst, lossless(cinst.base), SolverHandle.exact(), seed=1, rounds=1)
    inst = cinst.base
    C = exact_kmedian(inst.dist, inst.clients, None, inst.facilities, inst.k)
    assert sol.cost == pytest.approx(trimmed_cost(inst.dist, inst.clients, C, 0), rel=1e-12)


def test_colorful_budgets_respected_in_sampled_regime(rng):
    for seed in range(6):
        n = 40
        inst = shared_point_instance(rng, n, k=2, m=3)
        colors = {p: 1 + (p % 2) for p in inst.clients}
        cinst = ColorfulInstance(base=inst, colors=colors, budgets=(2, 1))
        sol = colorful_solve(cinst, practical(4), SolverHandle.exact(), seed=seed, rounds=1)
        assert len(sol.centers) <= inst.k
        by_color = {1: 0, 2: 0}
        for p in sol.outliers:
            by_color[colors[p]] += 1
        assert by_color[1] <= 2 and by_color[2] <= 1
        assert sol.cost == pytest.approx(colorful_cost(cinst, sol.centers), rel=1e-15)


@pytest.mark.parametrize("s", [2, 100])
def test_colored_coreset_is_the_coreset_of_rings_split_by_color(rng, s):
    cinst = colorful(rng, 40, 6, k=2, budgets=(2, 1, 1))
    inst = cinst.base
    rp = ring_partition(inst, baseline_solve(build_augmented_instance(inst)).centers, tau=1.0)
    cs = build_colored_coreset(rp, cinst, practical(s), generator_for(3, 1, 0))
    assert isinstance(cs, WeightedCoreset)
    shares = {
        (t, *ring): count
        for ring, pts in rp.rings.items()
        for t, count in Counter(cinst.colors[p] for p in pts).items()
    }
    # every (color, center, band) group conserves that color's share of the ring
    assert {key: g.total_weight for key, g in cs.groups.items()} == shares
    assert cs.lossless == all(cs.is_small.values()) == all(n <= s for n in shares.values())
    assert cs.lossless == (s == 100)
    # the union is color-major, and each entry has its ring's color
    assert list(cs.entry_rings) == sorted(cs.entry_rings)
    assert [cinst.colors[p] for p in cs.union.points] == [ring[0] for ring in cs.entry_rings]


def test_colorful_validation(rng):
    inst = random_instance(rng, 6, 3, k=1, m=2)
    colors = {p: 1 for p in inst.clients}
    with pytest.raises(ValueError):
        ColorfulInstance(base=inst, colors=colors, budgets=(1,))  # sum != m
    with pytest.raises(ValueError):
        ColorfulInstance(base=inst, colors={0: 1}, budgets=(2,))  # missing clients
    colors_bad = dict(colors)
    colors_bad[0] = 7
    with pytest.raises(ValueError):
        ColorfulInstance(base=inst, colors=colors_bad, budgets=(2,))
    # a budget larger than its color class
    colors2 = {p: (1 if p == 0 else 2) for p in inst.clients}
    with pytest.raises(ValueError):
        ColorfulInstance(base=inst, colors=colors2, budgets=(2, 0))
    # a color between two integers puts its client in no class, so it would
    # be neither scored nor evicted
    line = line_instance([0, 1, 10, 11, 50], [0, 50], k=1, m=1)
    with pytest.raises(ValueError, match="client 4 has color 1.5, not an integer"):
        ColorfulInstance(base=line, colors={0: 1, 1: 1, 2: 2, 3: 2, 4: 1.5}, budgets=(1, 0))


@pytest.mark.parametrize("budgets, error", [
    # int(2.7) was 2, which m = 2 then accepted
    ((2.7,), "color budget must be an integer, got 2.7"),
    ((1.5, 0.5), "color budget must be an integer, got 1.5"),
    ((np.int64(1), np.int32(1)), None),
])
def test_color_budgets_must_be_integers(budgets, error):
    inst = line_instance([0, 1, 10, 11], [0, 10], k=1, m=2)
    colors = {p: 1 + p % len(budgets) for p in inst.clients}
    if error is None:
        cinst = ColorfulInstance(base=inst, colors=colors, budgets=budgets)
        assert cinst.budgets == (1, 1) and all(type(b) is int for b in cinst.budgets)
        return
    with pytest.raises(ValueError, match=error):
        ColorfulInstance(base=inst, colors=colors, budgets=budgets)


# ---------------------------------------------------------------------------
# the trimmed-score kernel against the per-class path it replaced
# ---------------------------------------------------------------------------


def per_class_score(dist, clients, colors, budgets, C, z):
    """Per color class in client order: the trimmed sum of its powered
    distances, and its evicted ids by a key sort (larger distance first,
    then larger id), listed by distance descending, then id ascending."""
    costs, outliers = [], []
    for t, drop in enumerate(budgets, start=1):
        cls = [p for p in clients if colors[p] == t]
        if not cls:
            continue
        vals = dist.pairwise(cls, C).min(axis=1)
        vals = vals if z == 1.0 else vals**z
        costs.append(trimmed_sum(vals.tolist(), drop))
        evict = sorted(range(len(cls)), key=lambda i: (-vals[i], -cls[i]))[:drop]
        evict.sort(key=lambda i: (-vals[i], cls[i]))
        outliers.extend(cls[i] for i in evict)
    return math.fsum(costs), tuple(outliers)


def _budget_cases(rng, sizes):
    """Zero budgets, a budget equal to its class, and random ones; the last
    color has no clients, so its budget is 0."""
    yield (0,) * len(sizes)
    yield (sizes[0], 0, *sizes[2:])
    yield (0, sizes[1], *[0] * (len(sizes) - 2))
    yield tuple(int(rng.integers(0, size + 1)) for size in sizes)


@pytest.mark.parametrize("z", [1.0, 2.0])
def test_trimmed_score_matches_the_per_class_path(rng, z):
    for _ in range(25):
        # integer coordinates on a small grid, so many distances tie
        coords = rng.integers(0, 4, size=(14, 2)).astype(float)
        clients = tuple(int(p) for p in rng.permutation(12))  # ties must go by id, not order
        colors = {p: 1 + int(rng.integers(0, 3)) for p in clients}
        sizes = [sum(1 for t in colors.values() if t == c) for c in (1, 2, 3, 4)]
        C = tuple(int(c) for c in rng.choice(14, size=int(rng.integers(1, 4)), replace=False))
        for budgets in _budget_cases(rng, sizes):
            inst = MetricInstance(clients, (12, 13), EuclideanOracle(coords), 1, sum(budgets), z)
            cinst = ColorfulInstance(base=inst, colors=colors, budgets=budgets)
            want = per_class_score(inst.dist, clients, colors, budgets, C, z)
            got = trimmed_score(inst.dist, clients, C, cinst.groups, z)
            assert got == want, (budgets, C)
            assert (colorful_cost(cinst, C), colorful_outliers(cinst, C)) == want
            assert evaluate_candidate(C, inst, cinst.groups) == want
        # a single color is the m-farthest trimming of the plain instance
        m = int(rng.integers(0, 13))
        inst = MetricInstance(clients, (12, 13), EuclideanOracle(coords), 1, m, z)
        want = per_class_score(inst.dist, clients, dict.fromkeys(clients, 1), (m,), C, z)
        assert trimmed_score(inst.dist, clients, C, [(slice(None), m)], z) == want
        assert evaluate_candidate(C, inst) == want


def test_one_distance_block_per_rescored_candidate(rng, monkeypatch):
    cinst = colorful(rng, 12, 4, 2, (1, 2, 1))
    inst = cinst.base
    calls = []
    pairwise = inst.dist.pairwise
    monkeypatch.setattr(inst.dist, "pairwise", lambda a, b: calls.append(1) or pairwise(a, b))
    C = inst.facilities[:2]
    colorful_cost(cinst, C)
    assert len(calls) == 1
    evaluate_candidate(C, inst)
    assert len(calls) == 2
    evaluate_candidate(C, inst, cinst.groups)
    assert len(calls) == 3


# ---------------------------------------------------------------------------
# matroid
# ---------------------------------------------------------------------------


def _matroid_instance(rng, n_clients, parts, k, m, z=1.0):
    """Clients 0..n-1, facilities n.., partitioned with unit capacities."""
    n_fac = sum(len(p) for p in parts)
    inst = random_instance(rng, n_clients, n_fac, k=k, m=m, z=z)
    fac = list(inst.facilities)
    groups, at = [], 0
    for p in parts:
        groups.append((tuple(fac[at : at + len(p)]), p if isinstance(p, int) else 1))
        at += len(p)
    matroid = PartitionMatroid([(ids, 1) for ids, _ in groups])
    return inst, matroid


def test_uniform_matroid_equals_plain(rng):
    for seed in range(5):
        inst = random_instance(rng, 10, 5, k=2, m=1)
        matroid = UniformMatroid(inst.facilities, 2)
        a = matroid_median_solve(
            inst, matroid, lossless(inst), SolverHandle.exact(), seed=seed, rounds=1
        )
        b = solve_with_outliers(inst, lossless(inst), SolverHandle.exact(), seed=seed, rounds=1)
        assert a.cost == pytest.approx(b.best.cost, rel=1e-12)
        assert matroid.is_independent(a.centers)


def test_partition_matroid_vs_oracle(rng):
    for _ in range(12):
        inst, matroid = _matroid_instance(
            rng, int(rng.integers(5, 12)), [[0, 1], [2, 3], [4]], k=3,
            m=int(rng.integers(0, 3)),
        )
        sol = matroid_median_solve(
            inst, matroid, lossless(inst), SolverHandle.exact(), seed=2, rounds=1
        )
        oracle = matroid_median_oracle(inst, matroid)
        assert sol.cost == pytest.approx(oracle.cost, rel=1e-12)
        assert matroid.is_independent(sol.centers)
        assert matroid.is_independent(oracle.centers)


def test_matroid_constraint_binds(rng):
    # capacity 1 per part forces centers apart; the unconstrained optimum
    # (both facilities in one part) must cost no more
    inst, matroid = _matroid_instance(rng, 10, [[0, 1], [2, 3]], k=2, m=1)
    constrained = matroid_median_oracle(inst, matroid)
    unconstrained = exact_outlier_oracle(inst)
    assert constrained.cost >= unconstrained.cost - 1e-12


def test_matroid_validation(rng):
    inst = random_instance(rng, 6, 4, k=2, m=1)
    with pytest.raises(ValueError):
        matroid_median_solve(
            inst, UniformMatroid(inst.facilities, 1),  # rank != k
            lossless(inst), SolverHandle.exact(), seed=0,
        )
    with pytest.raises(ValueError):
        matroid_median_oracle(inst, UniformMatroid(range(4), 2))  # wrong ground set
    shared = shared_point_instance(rng, 8, k=2, m=1)
    with pytest.raises(ValueError):
        matroid_median_oracle(shared, UniformMatroid(shared.facilities, 2))  # ids overlap


def test_matroid_heuristic_paths(rng):
    inst, matroid = _matroid_instance(rng, 12, [[0, 1], [2, 3]], k=2, m=1)
    exact = matroid_median_oracle(inst, matroid)
    heur = matroid_median_solve(
        inst, matroid, lossless(inst), SolverHandle.local_search(), seed=1, rounds=1
    )
    assert matroid.is_independent(heur.centers)
    assert heur.cost >= exact.cost - 1e-12


def test_matroid_local_search_solve_builds_no_bases(rng):
    # C(30, 3) = 4,060 candidate sets exceed the solver's budget, which the
    # matroid baseline shares; local search and the heuristic baseline need
    # no list of bases, so the solve goes ahead
    inst = random_instance(rng, 12, 30, k=3, m=1)
    fac = inst.facilities
    matroid = PartitionMatroid([(fac[0:10], 1), (fac[10:20], 1), (fac[20:30], 1)])
    cinst = ColorfulInstance(
        base=inst, colors={p: 1 + p % 2 for p in inst.clients}, budgets=(1, 0)
    )
    solver = SolverHandle(kind="local_search", enumeration_budget=1000)
    for solve, oracle in (
        (lambda: matroid_median_solve(
            inst, matroid, lossless(inst), solver, seed=1, rounds=1
        ), lambda: matroid_median_oracle(inst, matroid)),
        (lambda: colorful_matroid_solve(
            cinst, matroid, lossless(inst), solver, seed=1, rounds=1
        ), lambda: colorful_matroid_oracle(cinst, matroid)),
    ):
        sol = solve()
        assert matroid.is_independent(sol.centers) and len(sol.centers) == 3
        assert sol.cost >= oracle().cost - 1e-9


def test_matroid_solve_enumerates_bases_once(rng, monkeypatch):
    # the exact black box's candidate space and the matroid baseline share
    # one array of basis rows (each enumerated its own before); local search
    # over budget refuses the bases before building any row of them
    calls, built = [], []
    real_bases, real_space = extensions._basis_rows, matroids.CandidateSpace

    def bases(matroid, budget):
        calls.append(budget)
        return real_bases(matroid, budget)

    class Space:
        @staticmethod
        def subsets(ids, r, budget):
            built.append((len(ids), r))
            return real_space.subsets(ids, r, budget)

    monkeypatch.setattr(extensions, "_basis_rows", bases)
    monkeypatch.setattr(matroids, "CandidateSpace", Space)
    inst, matroid = _matroid_instance(rng, 8, [[0, 1], [2, 3]], k=2, m=1)
    cinst = ColorfulInstance(
        base=inst, colors={p: 1 + p % 2 for p in inst.clients}, budgets=(1, 0)
    )
    for solve in (
        lambda: matroid_median_solve(inst, matroid, lossless(inst), SolverHandle.exact(),
                                     seed=1, rounds=1),
        lambda: colorful_matroid_solve(cinst, matroid, lossless(inst), SolverHandle.exact(),
                                       seed=1, rounds=1),
    ):
        calls.clear()
        built.clear()
        solve()
        assert len(calls) == 1 and len(built) == 1
    # 4 bases x 8 one-client picks fit the budget: the baseline is exact, on that list
    assert matroid_baseline(inst, matroid).method == "exact"

    inst = random_instance(rng, 12, 30, k=3, m=1)
    fac = inst.facilities
    matroid = PartitionMatroid([(fac[0:10], 1), (fac[10:20], 1), (fac[20:30], 1)])
    calls.clear()
    built.clear()
    matroid_median_solve(
        inst, matroid, lossless(inst), SolverHandle(kind="local_search", enumeration_budget=1000),
        seed=1, rounds=1,
    )
    assert calls == [1000] and built == []  # C(30, 3) = 4,060 bases refused before any row


@pytest.mark.parametrize("budget, want", [
    # 2 x 3 bases times 8 one-client picks = 48 candidates: the exact branch
    (48, BaselineResult((4, 8, 12), 5.5, "exact", 1.0, True)),
    # one below the product: the independence-checked search, stuck at a local optimum
    (47, BaselineResult((6, 8, 11), 6.0, "local_search", None, True)),
])
def test_matroid_baseline_exact_and_fallback(budget, want):
    inst = line_instance([0, 1, 2, 10, 11, 12, 30, 31], [0.5, 1.5, 10.5, 11.5, 30.5], k=2, m=1)
    fac = inst.facilities
    matroid = PartitionMatroid([(fac[:3], 1), (fac[3:], 1)])
    assert matroid_baseline(inst, matroid, budget) == want


def test_dependent_candidate_is_a_named_error(rng, monkeypatch):
    inst, matroid = _matroid_instance(rng, 8, [[0, 1], [2, 3]], k=2, m=1)
    # columns 0 and 1 are the facilities of the first part, of capacity 1;
    # every subset gets them, merged block by block as the engines merge

    def dependent(D, subsets, *a):
        first = reduction._FirstAnswers()
        for block in subsets.blocks(reduction._BLOCK_ELEMENTS):
            first.add(block, np.zeros(block.shape[1], dtype=np.intp))
        return first.answers(lambda _: (0, 1))

    monkeypatch.setattr(reduction, "per_subset_local_search", dependent)
    with pytest.raises(RuntimeError, match=r"candidate .* is not independent"):
        matroid_median_solve(
            inst, matroid, lossless(inst), SolverHandle.local_search(), seed=1, rounds=1
        )


# ---------------------------------------------------------------------------
# colorful + matroid
# ---------------------------------------------------------------------------


def _colorful_matroid_case(rng, n_clients, k, budgets):
    inst, matroid = _matroid_instance(
        rng, n_clients, [[0, 1], [2, 3], [4]], k=k, m=sum(budgets)
    )
    colors = {p: 1 + (i % len(budgets)) for i, p in enumerate(inst.clients)}
    return ColorfulInstance(base=inst, colors=colors, budgets=tuple(budgets)), matroid


def test_combined_single_color_uniform_equals_plain(rng):
    inst = random_instance(rng, 10, 4, k=2, m=1)
    matroid = UniformMatroid(inst.facilities, 2)
    colors = {p: 1 for p in inst.clients}
    cinst = ColorfulInstance(base=inst, colors=colors, budgets=(1,))
    a = colorful_matroid_solve(
        cinst, matroid, lossless(inst), SolverHandle.exact(), seed=4, rounds=1
    )
    b = solve_with_outliers(inst, lossless(inst), SolverHandle.exact(), seed=4, rounds=1)
    assert a.cost == pytest.approx(b.best.cost, rel=1e-12)


def test_combined_vs_combined_oracle(rng):
    for _ in range(8):
        cinst, matroid = _colorful_matroid_case(
            rng, int(rng.integers(6, 12)), k=3, budgets=(1, 1)
        )
        sol = colorful_matroid_solve(
            cinst, matroid, lossless(cinst.base), SolverHandle.exact(), seed=6, rounds=1
        )
        oracle = colorful_matroid_oracle(cinst, matroid)
        assert sol.cost == pytest.approx(oracle.cost, rel=1e-12)
        assert matroid.is_independent(sol.centers)
        for t in (1, 2):
            evicted = sum(1 for p in sol.outliers if cinst.colors[p] == t)
            assert evicted <= cinst.budgets[t - 1]


def test_combined_infeasible_budgets_rejected(rng):
    inst = random_instance(rng, 4, 4, k=2, m=2)
    colors = {p: 1 for p in inst.clients}
    with pytest.raises(ValueError):
        ColorfulInstance(base=inst, colors=colors, budgets=(5,))
