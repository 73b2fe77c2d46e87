"""Exact and local-search solvers against brute force."""

from __future__ import annotations

import math
import warnings
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
    direct_sum_matroid,
    exact_kmedian,
    exact_outlier_oracle,
    local_search_kmedian,
    trimmed_cost,
    weighted_trimmed_cost,
)
from trimclust import solvers
from trimclust.extensions import (
    colorful_matroid_oracle,
    colorful_oracle,
    matroid_local_search,
    matroid_median_oracle,
)
from trimclust.solvers import CandidateSpace, argmin_trimmed
from conftest import line_instance, random_instance


def expand_unweighted(wps: WeightedPointSet) -> tuple[int, ...]:
    """Unweighted multiset with w(x) copies of every entry x.

    Plain (unit-weight) evaluation of the result equals weighted evaluation of
    the input for every center set.
    """
    return tuple(p for p, w in wps.entries for _ in range(w))


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


def test_local_search_initial_must_be_facilities():
    inst = line_instance([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 2.0, 3.0, 4.0], k=2, m=0)
    with pytest.raises(ValueError, match=r"initial centers \[99\] are not facilities"):
        local_search_kmedian(inst.dist, inst.clients, None, inst.facilities, 2, initial=[5, 99])


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


def test_local_search_iteration_cap_warns(rng):
    inst = random_instance(rng, 40, 20, k=4, m=0)
    handle = SolverHandle(
        kind="local_search", iteration_cap=1, improvement_threshold=1e-9,
    )
    with pytest.warns(RuntimeWarning):
        local_search_kmedian(inst.dist, inst.clients, None, inst.facilities, 4, handle=handle)


def test_handle_validation():
    with pytest.raises(ValueError):
        SolverHandle(kind="simplex")
    # the handle takes no exponent: a positional z is a TypeError, not an iteration cap
    with pytest.raises(TypeError):
        SolverHandle.local_search(2.0)


# ---------------------------------------------------------------------------
# the single-swap local search kernel, against the two loops it replaced
# ---------------------------------------------------------------------------


def _plain_swap_loop(dist, points, weights, facilities, k, z, handle):
    """Reference: the per-position swap loop over sorted facility ids."""
    fac = sorted(int(f) for f in facilities)
    k_eff = min(k, len(fac))
    d = solvers._cost_block(dist, points, weights, fac, z)
    if k_eff == len(fac):
        return tuple(fac), float(d.min(axis=1).sum()), 0, True
    current = list(range(k_eff))
    cost = float(d[:, current].min(axis=1).sum())
    converged = False
    it = 0
    for it in range(1, handle.iteration_cap + 1):
        vals = d[:, current]
        arg = vals.argmin(axis=1)
        d1 = vals[np.arange(vals.shape[0]), arg]
        masked = vals.copy()
        masked[np.arange(vals.shape[0]), arg] = np.inf
        d2 = masked.min(axis=1) if k_eff > 1 else np.full(vals.shape[0], np.inf)
        outside = [j for j in range(len(fac)) if j not in set(current)]
        d_out = d[:, outside]
        best_gain_cost = cost
        best_swap = None
        for pos in range(k_eff):
            fallback = np.where(arg == pos, d2, d1)
            cand_costs = np.minimum(fallback[:, None], d_out).sum(axis=0)
            j = int(np.argmin(cand_costs))
            if cand_costs[j] < best_gain_cost:
                best_gain_cost = float(cand_costs[j])
                best_swap = (pos, outside[j])
        if best_swap is None or best_gain_cost >= (1.0 - handle.improvement_threshold) * cost:
            converged = True
            break
        pos, new_col = best_swap
        current[pos] = new_col
        current.sort()
        cost = best_gain_cost
    return tuple(fac[i] for i in current), cost, it, converged


def _matroid_swap_loop(dist, points, weights, matroid, z, handle):
    """Reference: rescore every independent (position, facility) swap from scratch."""
    ground = list(matroid.ground_set)
    current = []
    for g in ground:
        if len(current) == matroid.rank:
            break
        if matroid.is_independent(current + [g]):
            current.append(g)
    d = solvers._cost_block(dist, points, weights, ground, z)
    col = {g: i for i, g in enumerate(ground)}

    def total(cset):
        return float(d[:, [col[c] for c in cset]].min(axis=1).sum())

    cost = total(current)
    converged = False
    for _ in range(handle.iteration_cap):
        best_swap = None
        cur_set = set(current)
        for i, c in enumerate(current):
            for f in ground:
                if f in cur_set:
                    continue
                trial = current[:i] + current[i + 1 :] + [f]
                if not matroid.is_independent(trial):
                    continue
                t_cost = total(trial)
                if t_cost < cost * (1.0 - handle.improvement_threshold) and (
                    best_swap is None or t_cost < best_swap[0]
                ):
                    best_swap = (t_cost, i, f)
        if best_swap is None:
            converged = True
            break
        cost, i, f = best_swap
        current = sorted(current[:i] + current[i + 1 :] + [f])
    return tuple(sorted(current)), converged


def _swap_cases(rng):
    """Small 1-D integer instances (exact sums, frequent ties) and search settings.

    Thresholds 1/4 and 1/2 make the improvement bar an exact value that swap
    costs can meet; an iteration cap of 1 stops most searches early.
    """
    for trial in range(120):
        inst = line_instance(
            rng.integers(0, 12, size=int(rng.integers(3, 9))),
            rng.integers(0, 12, size=int(rng.integers(2, 8))),
            k=1, m=0, z=(1.0, 2.0)[trial % 2],
        )
        weights = None if trial % 3 == 0 else rng.integers(1, 4, size=len(inst.clients))
        handle = SolverHandle(
            kind="local_search",
            iteration_cap=1 if trial % 5 == 0 else 200,
            improvement_threshold=(1e-3, 0.25, 0.5)[trial % 4 % 3],
        )
        yield inst, weights, handle


def _run_warned(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = call()
    return out, any(issubclass(w.category, RuntimeWarning) for w in caught)


def test_local_search_kernel_matches_plain_swap_loop(rng):
    capped = 0
    for inst, weights, handle in _swap_cases(rng):
        X, fac = inst.clients, inst.facilities
        for k in range(1, len(fac) + 1):
            want = _plain_swap_loop(inst.dist, X, weights, fac, k, inst.z, handle)
            d = solvers._cost_block(inst.dist, X, weights, fac, inst.z)
            got, warned = _run_warned(lambda: solvers._local_search(d, k, handle))
            assert (tuple(fac[i] for i in got.centers), got.cost, got.iterations,
                    got.converged) == want
            assert warned == (not got.converged)
            capped += not got.converged
    assert capped > 0


def test_matroid_local_search_matches_swap_loop(rng):
    capped = 0
    for inst, weights, handle in _swap_cases(rng):
        X, fac = inst.clients, list(inst.facilities)
        cut = sorted(rng.choice(np.arange(1, len(fac)), size=min(2, len(fac) - 1),
                                replace=False).tolist()) if len(fac) > 1 else []
        parts = [p for p in np.split(np.asarray(fac), cut) if len(p)]
        # capacities up to the part size; all full gives rank = |ground|
        full = rng.integers(3) == 0
        part_m = PartitionMatroid(
            [(p, len(p) if full else int(rng.integers(1, len(p) + 1))) for p in parts]
        )
        m = int(rng.integers(0, len(X)))
        for matroid, w in ((part_m, weights), (direct_sum_matroid(part_m, X, m), None)):
            want = _matroid_swap_loop(inst.dist, X, w, matroid, inst.z, handle)
            got, warned = _run_warned(
                lambda: matroid_local_search(inst.dist, X, w, matroid, inst.z, handle)
            )
            assert got == want
            assert matroid.is_independent(got[0]) and len(got[0]) == matroid.rank
            assert warned == (not got[1])
            capped += not got[1]
    assert capped > 0


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


def test_combinations_match_itertools():
    for n in range(10):
        for size in range(n + 1):
            got = solvers._combinations(n, size)
            want = np.array(list(combinations(range(n), size)), dtype=np.intp)
            assert got.dtype == np.intp and got.shape == (math.comb(n, size), size)
            np.testing.assert_array_equal(got, want.reshape(got.shape))


def test_subsets_up_to_a_cap_match_itertools():
    # every size 0..cap in (size, lexicographic) order, padded; the colorful
    # enumeration pads with a value other than n
    for n in range(10):
        for cap in range(n + 1):
            for width in (max(1, cap), cap + 2):
                for pad in (n, n + 3):
                    want = [
                        list(T) + [pad] * (width - size)
                        for size in range(cap + 1) for T in combinations(range(n), size)
                    ]
                    got = solvers._up_to(n, cap, width, pad)
                    assert got.dtype == np.intp and got.flags.c_contiguous
                    np.testing.assert_array_equal(
                        got, np.array(want, dtype=np.intp).reshape(len(want), width)
                    )
    combos = CandidateSpace.subsets(range(7), 3).combos
    assert combos.dtype == np.intp and combos.flags.c_contiguous and combos.shape == (35, 3)
    # near n, only the rows the last size reads are built, not all 2**40 subsets
    assert solvers._combinations(40, 38).shape == (780, 38)


def test_candidate_space_refused_before_it_is_built():
    # C(100000, 5) rows would not fit in memory; the count alone refuses them
    with pytest.raises(SolverBudgetExceeded, match="candidate center sets exceed budget 10"):
        CandidateSpace.subsets(range(100_000), 5, budget=10)


def test_candidate_space_keeps_the_given_order(monkeypatch):
    monkeypatch.setattr(solvers, "_CHUNK_ELEMENTS", 4)  # two center sets a chunk
    sets = [(9, 4), (2, 7), (4, 2), (7, 9), (2, 9)]
    space = CandidateSpace.from_center_sets(sets)
    assert space.col_ids == (2, 4, 7, 9) and space.count == 5
    assert [space.centers_at(i) for i in range(5)] == [tuple(sorted(c)) for c in sets]
    chunks = list(space.chunks(1))
    assert [len(c) for c in chunks] == [2, 2, 1]
    rows = [tuple(space.col_ids[i] for i in row) for row in np.vstack(chunks).tolist()]
    assert rows == [tuple(sorted(c)) for c in sets]


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
