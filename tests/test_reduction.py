"""The enumeration-and-select driver against the exact oracle."""

from __future__ import annotations

import importlib.util
import json
import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path
from itertools import chain, combinations, product
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from trimclust import (
    CoresetParams,
    CostOverflowError,
    EuclideanOracle,
    MatrixOracle,
    MetricInstance,
    SolverHandle,
    WeightedCoreset,
    baseline_solve,
    build_augmented_instance,
    build_coreset,
    default_rounds,
    enumerate_outlier_subsets,
    evaluate_candidate,
    exact_kmedian,
    exact_outlier_oracle,
    generate_planted,
    PlantedConfig,
    ring_partition,
    solve_with_outliers,
    trimmed_cost,
)
from trimclust import extensions, reduction, solvers
from trimclust.extensions import (
    ColorfulInstance,
    build_colored_coreset,
    colorful_matroid_solve,
    colorful_solve,
    enumerate_colorful_subsets,
    matroid_median_solve,
)
from trimclust.matroids import PartitionMatroid, matroid_bases
from trimclust.metric import WeightedPointSet
from trimclust.reduction import (
    CandidateSpace,
    ReductionReport,
    SubsetStream,
    per_subset_best_exact,
    per_subset_local_search,
)
from trimclust.solvers import SolverBudgetExceeded, argmin_trimmed, solve_outlier_free
from trimclust.bench import report_to_dict, run_experiment, solution_to_dict
from trimclust.rng import generator_for
from conftest import (
    explicit_space,
    line_instance,
    random_instance,
    shared_point_instance,
    space_rows,
    space_sets,
)


def practical(s, epsilon=0.5):
    return CoresetParams(epsilon=epsilon, mode="practical", practical_s=s)


def lossless_params(inst, **kw):
    return practical(len(inst.clients), **kw)


# ---------------------------------------------------------------------------
# subset enumeration
# ---------------------------------------------------------------------------


def _coreset_for(inst, s, seed=1):
    aug = build_augmented_instance(inst)
    base = baseline_solve(aug, exact_budget=3000)
    rp = ring_partition(inst, base.centers, tau=1.0)
    return build_coreset(rp, practical(s), generator_for(seed, 1, 0))


def _tuples(rows, n):
    """The subsets of padded subset rows (an array or a stream) as tuples,
    padding ``n`` stripped."""
    return [tuple(row[row < n].tolist()) for row in rows]


def _padded(subsets, n):
    """Tuples as one padded subset array, one subset per row."""
    rows = np.full((len(subsets), max(1, max(map(len, subsets)))), n, dtype=np.intp)
    for i, T in enumerate(subsets):
        rows[i, : len(T)] = T
    return rows


def _stream(subsets, n):
    """Tuples as a subset stream, the layout the enumerators return."""
    return SubsetStream.from_rows(_padded(subsets, n))


def _rows(stream):
    """A stream's subsets as one padded array, one subset per row, built from
    its blocks; checks each block's shape and the stream's ``len``."""
    blocks = [block.T.copy() for block in stream.blocks(reduction._BLOCK_ELEMENTS)]
    assert all(b.shape[1] == stream.width for b in blocks)
    assert all(0 < len(b) <= reduction._BLOCK_ELEMENTS for b in blocks)
    rows = np.vstack(blocks)
    assert len(rows) == len(stream)
    np.testing.assert_array_equal(np.stack(list(stream)), rows)  # the rows it iterates
    return rows


def _assert_stream_layout(stream, n, width):
    """intp, ``width`` entries a subset, each increasing entries then padding ``n``."""
    rows = _rows(stream)
    assert rows.dtype == np.intp and rows.shape[1] == width >= 1
    assert ((rows >= 0) & (rows <= n)).all()
    real = rows < n
    assert (real[:, :-1] >= real[:, 1:]).all()  # the padding comes last
    assert ((rows[:, 1:] > rows[:, :-1]) | ~real[:, 1:]).all()


def test_enumeration_counts(rng):
    inst = random_instance(rng, 4, 2, k=1, m=2)
    cs = _coreset_for(inst, s=10)
    assert len(cs) == 4
    subsets = _tuples(enumerate_outlier_subsets(cs, 2), 4)
    assert len(subsets) == 1 + 4 + 6
    assert subsets[0] == ()
    assert subsets[1:5] == [(0,), (1,), (2,), (3,)]
    assert subsets[5] == (0, 1)  # lexicographic within each size


def test_enumeration_zero_outliers(rng):
    inst = random_instance(rng, 5, 2, k=1, m=0)
    cs = _coreset_for(inst, s=10)
    assert _tuples(enumerate_outlier_subsets(cs, 0), len(cs)) == [()]


def test_enumeration_stable(rng):
    inst = random_instance(rng, 6, 2, k=1, m=2)
    cs = _coreset_for(inst, s=10)
    assert np.array_equal(
        _rows(enumerate_outlier_subsets(cs, 2)), _rows(enumerate_outlier_subsets(cs, 2))
    )


def test_enumeration_rejects_m_over_entries(rng):
    inst = random_instance(rng, 3, 2, k=1, m=2)
    cs = _coreset_for(inst, s=10)
    with pytest.raises(ValueError):
        enumerate_outlier_subsets(cs, 4)


def _colored(colors):
    """A colorful coreset of unit entries whose entry e has color colors[e]."""
    return WeightedCoreset(
        groups={}, is_small={}, union=WeightedPointSet.unit(range(len(colors))),
        entry_rings=tuple((c, 0, 0) for c in colors), sample_size=1,
    )


def _reference_colorful_subsets(ccs, budgets):
    """The tuple generator the array stream replaced, kept as its reference."""
    per_color_options = []
    for t in range(1, len(budgets) + 1):
        idx = tuple(i for i, ring in enumerate(ccs.entry_rings) if ring[0] == t)
        cap = min(budgets[t - 1], len(idx))
        per_color_options.append([c for size in range(cap + 1) for c in combinations(idx, size)])
    for chosen in product(*per_color_options):
        yield tuple(sorted(chain.from_iterable(chosen)))


@pytest.mark.parametrize("n_clients", [3, 6])
def test_enumeration_matches_tuple_reference(rng, n_clients):
    inst = random_instance(rng, n_clients, 2, k=1, m=1)
    cs = _coreset_for(inst, s=10)
    n = len(cs)
    assert n == n_clients  # so m = 3 is every entry at n = 3
    for m in range(4):
        rows = enumerate_outlier_subsets(cs, m)
        _assert_stream_layout(rows, n, max(1, m))
        assert _tuples(rows, n) == _all_subsets(n, m), m


@pytest.mark.parametrize("block", [1, 7, reduction._BLOCK_ELEMENTS])
def test_plain_stream_matches_the_array_builders(monkeypatch, block):
    # blocks of 1 and 7 split the groups of one size and one first entry
    monkeypatch.setattr(reduction, "_BLOCK_ELEMENTS", block)
    for n in range(10):
        cs = SimpleNamespace(union=WeightedPointSet.unit(range(n)))
        for m in range(n + 1):
            stream = enumerate_outlier_subsets(cs, m)
            assert len(stream) == sum(math.comb(n, size) for size in range(m + 1))
            rows = _rows(stream)
            np.testing.assert_array_equal(rows, solvers._up_to(n, m, max(1, m), n).T)
            assert _tuples(rows, n) == _all_subsets(n, m), (n, m)


@pytest.mark.parametrize("budgets", [
    (2, 3, 1, 5),  # color 3 has no entry; color 4's budget exceeds its one entry
    (0, 2, 0, 1),  # zero budgets
    (0, 0, 0, 0),  # only the empty subset
    (1, 1, 1, 1),
])
def test_colorful_enumeration_matches_tuple_reference(budgets):
    colors = (2, 1, 2, 2, 1, 2, 4, 2)
    ccs = _colored(colors)
    rows = enumerate_colorful_subsets(ccs, budgets)
    want = list(_reference_colorful_subsets(ccs, budgets))
    _assert_stream_layout(rows, len(colors), max(1, max(map(len, want))))
    assert _tuples(rows, len(colors)) == want


def _product_then_sort_subsets(ccs, budgets):
    """The array builder the colorful stream replaced, kept as its reference:
    the per-color option arrays multiplied out with `np.repeat` and
    `np.tile`, then each row sorted."""
    n = len(ccs.union)
    colors = np.asarray([ring[0] for ring in ccs.entry_rings], dtype=np.intp)
    rows = np.empty((1, 0), dtype=np.intp)
    for t in range(1, len(budgets) + 1):
        idx = np.flatnonzero(colors == t)
        cap = min(budgets[t - 1], len(idx))
        # positions in the class, padded with len(idx), which maps to n
        options = np.append(idx, n)[solvers._up_to(len(idx), cap, cap, len(idx)).T]
        rows = np.hstack([
            np.repeat(rows, len(options), axis=0), np.tile(options, (len(rows), 1))
        ])
    if rows.shape[1] == 0:
        rows = np.full((len(rows), 1), n, dtype=np.intp)
    return np.sort(rows, axis=1)


@pytest.mark.parametrize("block", [1, 7, reduction._BLOCK_ELEMENTS])
def test_colorful_stream_matches_the_array_builder(monkeypatch, block):
    monkeypatch.setattr(reduction, "_BLOCK_ELEMENTS", block)
    rng = np.random.default_rng(2501)
    for _ in range(30):
        colors = tuple(rng.integers(1, 4, size=int(rng.integers(0, 10))).tolist())
        budgets = tuple(rng.integers(0, 4, size=int(rng.integers(1, 4))).tolist())
        ccs = _colored(colors)
        want = _product_then_sort_subsets(ccs, budgets)
        stream = enumerate_colorful_subsets(ccs, budgets)
        assert len(stream) == len(want)
        np.testing.assert_array_equal(_rows(stream), want)


# ---------------------------------------------------------------------------
# evaluate_candidate
# ---------------------------------------------------------------------------


def test_evaluate_candidate_consistency(rng):
    inst = random_instance(rng, 10, 5, k=2, m=2)
    oracle = exact_outlier_oracle(inst)
    cost, outliers = evaluate_candidate(oracle.centers, inst)
    assert cost == oracle.cost and outliers == oracle.outliers
    for _ in range(10):
        C = sorted(rng.choice(inst.facilities, size=2, replace=False))
        cost, outliers = evaluate_candidate(C, inst)
        assert cost >= oracle.cost - 1e-12
        assert len(outliers) == inst.m


# ---------------------------------------------------------------------------
# solve_with_outliers
# ---------------------------------------------------------------------------


def test_degenerate_no_outliers(rng):
    inst = random_instance(rng, 12, 5, k=2, m=0)
    rep = solve_with_outliers(inst, lossless_params(inst), SolverHandle.exact(), seed=5, rounds=1)
    C = exact_kmedian(inst.dist, inst.clients, None, inst.facilities, 2)
    assert rep.best.cost == trimmed_cost(inst.dist, inst.clients, C, 0)
    assert rep.candidates_evaluated >= 1


def test_lossless_exact_equals_oracle(rng):
    for _ in range(20):
        inst = random_instance(
            rng, int(rng.integers(6, 21)), int(rng.integers(2, 7)),
            k=int(rng.integers(1, 4)), m=int(rng.integers(0, 3)),
        )
        rep = solve_with_outliers(
            inst, lossless_params(inst), SolverHandle.exact(), seed=11, rounds=1
        )
        oracle = exact_outlier_oracle(inst)
        assert rep.best.cost == pytest.approx(oracle.cost, rel=1e-12)


def test_solution_always_feasible_even_with_tiny_sample(rng):
    # quality may suffer at s=1, feasibility never does
    for seed in range(8):
        inst = shared_point_instance(rng, 40, k=2, m=2)
        rep = solve_with_outliers(inst, practical(1), SolverHandle.exact(), seed=seed, rounds=1)
        sol = rep.best
        assert len(sol.centers) <= inst.k and len(sol.outliers) <= inst.m
        assert sol.cost == trimmed_cost(inst.dist, inst.clients, sol.centers, inst.m, inst.z)
        assert sol.cost >= exact_outlier_oracle(inst).cost - 1e-9


def test_more_outliers_than_coreset_entries():
    # co-located clients collapse into a single ring; at s=1 it holds one
    # entry, fewer than m, and enumeration caps at the entry count
    inst = line_instance([5.0] * 9, [5.0, 8.0], k=1, m=3)
    rep = solve_with_outliers(inst, practical(1), SolverHandle.exact(), seed=0, rounds=1)
    assert rep.per_round[0].coreset_size < inst.m
    assert rep.best.cost == 0.0
    assert len(rep.best.outliers) == inst.m  # the final eviction is on the real instance


def test_monotone_in_rounds(rng):
    inst = shared_point_instance(rng, 50, k=2, m=2)
    params = practical(6)
    costs = [
        solve_with_outliers(inst, params, SolverHandle.exact(), seed=3, rounds=r).best.cost
        for r in (1, 2, 3)
    ]
    assert costs[0] >= costs[1] >= costs[2]


def test_deterministic_reports(rng):
    inst = shared_point_instance(rng, 45, k=2, m=2)
    a = solve_with_outliers(inst, practical(8), SolverHandle.exact(), seed=7, rounds=2)
    b = solve_with_outliers(inst, practical(8), SolverHandle.exact(), seed=7, rounds=2)
    assert report_to_dict(a) == report_to_dict(b)


def test_candidate_count_bounded(rng):
    inst = random_instance(rng, 10, 4, k=2, m=2)
    rep = solve_with_outliers(inst, practical(4), SolverHandle.exact(), seed=2, rounds=1)
    n_s = rep.per_round[0].coreset_size
    cap = sum(math.comb(n_s, t) for t in range(inst.m + 1))
    assert rep.candidates_evaluated <= cap


def test_all_refused_raises(rng):
    inst = random_instance(rng, 8, 6, k=3, m=1)
    tiny_budget = SolverHandle.exact(enumeration_budget=2)
    with pytest.raises(RuntimeError):
        solve_with_outliers(inst, lossless_params(inst), tiny_budget, seed=1, rounds=1)


def _no_baseline(monkeypatch):
    """Make any baseline run fail the test, in every module that calls one."""

    def boom(*args, **kwargs):
        raise AssertionError("the baseline ran before the refusal")

    for mod in (reduction, extensions):
        monkeypatch.setattr(mod, "baseline_solve", boom)
    monkeypatch.setattr(extensions, "matroid_baseline", boom)


def test_exact_budget_decided_before_baseline(rng, monkeypatch):
    _no_baseline(monkeypatch)
    inst = shared_point_instance(rng, 12, k=2, m=1)  # C(12, 2) = 66 candidate sets
    solver = SolverHandle.exact(enumeration_budget=10)
    with pytest.raises(SolverBudgetExceeded, match=r"66 candidate center sets .* budget 10"):
        solve_with_outliers(inst, lossless_params(inst), solver, seed=1, rounds=1)
    colors = {p: 1 + p % 2 for p in inst.clients}
    cinst = ColorfulInstance(base=inst, colors=colors, budgets=(1, 0))
    with pytest.raises(SolverBudgetExceeded, match=r"66 candidate center sets .* budget 10"):
        colorful_solve(cinst, lossless_params(inst), solver, seed=1, rounds=1)
    # matroid bases: C(30, 3) = 4,060 sets to check against a budget of 1,000
    inst = random_instance(rng, 12, 30, k=3, m=1)
    fac = inst.facilities
    matroid = PartitionMatroid([(fac[0:10], 1), (fac[10:20], 1), (fac[20:30], 1)])
    cinst = ColorfulInstance(base=inst, colors=colors, budgets=(1, 0))
    solver = SolverHandle.exact(enumeration_budget=1000)
    with pytest.raises(SolverBudgetExceeded, match=r"4060 candidate bases exceed budget 1000"):
        matroid_median_solve(inst, matroid, lossless_params(inst), solver, seed=1, rounds=1)
    with pytest.raises(SolverBudgetExceeded, match=r"4060 candidate bases exceed budget 1000"):
        colorful_matroid_solve(cinst, matroid, lossless_params(inst), solver, seed=1, rounds=1)


@pytest.mark.parametrize(
    "solver", [SolverHandle.exact(), SolverHandle.local_search()], ids=["exact", "local"]
)
def test_round_over_budget_refused_before_any_block(rng, monkeypatch, solver):
    # every block a round's stream builds is recorded with the stream's length
    built = []

    def spied(enumerate_subsets):
        def enumerate_recorded(*args):
            stream = enumerate_subsets(*args)
            blocks = stream.blocks
            stream.blocks = lambda per: built.append(len(stream)) or blocks(per)
            return stream
        return enumerate_recorded

    for module, name in (
        (reduction, "enumerate_outlier_subsets"), (extensions, "enumerate_colorful_subsets")
    ):
        monkeypatch.setattr(module, name, spied(getattr(module, name)))
    inst = random_instance(rng, 12, 4, k=2, m=2)  # C(4, 2) = 6 candidate sets
    cinst = ColorfulInstance(
        base=inst, colors={p: 1 + p % 2 for p in inst.clients}, budgets=(1, 1)
    )
    params, kw = lossless_params(inst), dict(seed=1, rounds=1)
    for solve, count in (
        # lossless: one entry per client, so C(12, <= 2) subsets, and 7 * 7
        # for one eviction of each color's six entries
        (lambda solver: solve_with_outliers(inst, params, solver, **kw), 1 + 12 + 66),
        (lambda solver: colorful_solve(cinst, params, solver, **kw), 7 * 7),
    ):
        built.clear()
        with pytest.raises(
            SolverBudgetExceeded, match=rf"^{count} outlier subsets exceed budget {count - 1}$"
        ):
            solve(replace(solver, enumeration_budget=count - 1))
        assert built == []
        solve(replace(solver, enumeration_budget=count))
        assert built and set(built) == {count}


@pytest.mark.parametrize("rounds", [0, -1])
@pytest.mark.parametrize(
    "solver", [SolverHandle.exact(), SolverHandle.local_search()], ids=["exact", "local"]
)
def test_rounds_below_one_refused_before_baseline(rng, monkeypatch, rounds, solver):
    _no_baseline(monkeypatch)
    inst = random_instance(rng, 10, 4, k=2, m=1)
    params = lossless_params(inst)
    matroid = PartitionMatroid([(inst.facilities[:2], 1), (inst.facilities[2:], 1)])
    cinst = ColorfulInstance(
        base=inst, colors={p: 1 + p % 2 for p in inst.clients}, budgets=(1, 0)
    )
    kw = dict(seed=1, rounds=rounds)
    for call in (
        lambda: solve_with_outliers(inst, params, solver, **kw),
        lambda: colorful_solve(cinst, params, solver, **kw),
        lambda: matroid_median_solve(inst, matroid, params, solver, **kw),
        lambda: colorful_matroid_solve(cinst, matroid, params, solver, **kw),
    ):
        with pytest.raises(ValueError, match="rounds must be >= 1"):
            call()


@pytest.mark.parametrize("setting, error", [
    (lambda inst: practical(2.5), "practical_s must be an integer, got 2.5"),
    (lambda inst: SolverHandle("local_search", iteration_cap=2.5),
     "iteration_cap must be an integer, got 2.5"),
    (lambda inst: SolverHandle.exact(enumeration_budget=1.5),
     "enumeration_budget must be an integer, got 1.5"),
    (lambda inst: SolverHandle.exact(enumeration_budget=0), "enumeration_budget must be positive"),
    (lambda inst: solve_with_outliers(
        inst, lossless_params(inst), SolverHandle.exact(), seed=1, rounds=1.5
    ), "rounds must be an integer, got 1.5"),
    (lambda inst: solve_with_outliers(
        inst, lossless_params(inst), SolverHandle.local_search(), seed=1.5, rounds=1
    ), "seed must be an integer, got 1.5"),
    (lambda inst: run_experiment({"seed": 1.5, "instances": []}),
     "seed must be an integer, got 1.5"),
    (lambda inst: run_experiment({"seed": 1, "rounds": 1.5, "instances": []}),
     "rounds must be an integer, got 1.5"),
    # an oracle budget of 2.9 ran as 2 and skipped every oracle
    (lambda inst: run_experiment({"seed": 1, "oracle_budget": 2.9, "instances": []}),
     "oracle_budget must be an integer, got 2.9"),
    (lambda inst: generator_for(1.5, 1, 0), "seed must be an integer, got 1.5"),
])
def test_non_integer_settings_refused_where_they_enter(rng, monkeypatch, setting, error):
    # a float would fail deep in a solve or be truncated (seed 1.5 ran as seed 1)
    _no_baseline(monkeypatch)
    inst = random_instance(rng, 10, 4, k=2, m=1)
    with pytest.raises(ValueError, match=error):
        setting(inst)


def test_default_rounds():
    assert default_rounds() == 5
    assert default_rounds(0.5) == 1


def test_local_search_black_box_sane(rng):
    inst = random_instance(rng, 15, 6, k=2, m=1)
    rep = solve_with_outliers(
        inst, lossless_params(inst), SolverHandle.local_search(), seed=4, rounds=1
    )
    oracle = exact_outlier_oracle(inst)
    assert rep.best.cost >= oracle.cost - 1e-12
    assert rep.best.cost <= 5.0 * oracle.cost + 1e-9


def test_sampled_regime_quality(rng):
    # a handful of planted-style instances: sampled coreset, exact black box
    hits = 0
    for seed in range(6):
        inst = shared_point_instance(rng, 70, k=2, m=2)
        rep = solve_with_outliers(inst, practical(10), SolverHandle.exact(), seed=seed, rounds=2)
        oracle = exact_outlier_oracle(inst)
        ratio = rep.best.cost / oracle.cost
        assert ratio >= 1 - 1e-9
        if ratio <= 2.0:
            hits += 1
    assert hits >= 5  # uniform points are a hard case; quality still lands close


# ---------------------------------------------------------------------------
# batched vs per-subset black box
# ---------------------------------------------------------------------------


def _per_subset_generic(inst, pts, w, subsets, black_box, solver):
    """One black-box call per subset, the path the batched engines replaced,
    kept as their reference.  ``black_box`` defaults to the configured
    outlier-free solver over the instance's facilities."""
    bb = black_box or (
        lambda p, ww: solve_outlier_free(
            inst.dist, p, ww, inst.facilities, inst.k, inst.z, solver
        )
    )
    for T in subsets:
        mask = np.ones(len(pts), dtype=bool)
        mask[list(T)] = False
        yield bb(pts[mask], w[mask])


class _PerSubset:
    """Every subset's answer, read through the engines' per-block merge: each
    call of `reduction._FirstAnswers.add` is recorded with its block and its
    per-subset keys."""

    def __init__(self, monkeypatch):
        self.calls = []
        add = reduction._FirstAnswers.add

        def spy(log, block, keys):
            self.calls.append((log, block.T.copy(), keys.copy()))
            return add(log, block, keys)

        monkeypatch.setattr(reduction._FirstAnswers, "add", spy)

    def expand(self, answers):
        """Every costed subset's answer in subset order, from the blocks of
        the one engine call that returned ``answers``.  The merged
        ``answers`` must be their first occurrences: each distinct answer
        once, in the order of its first subset, with that subset's row.  The
        engine may have costed only the first ``answers.costed`` of the
        ``answers.count`` subsets (see `first_occurrences`)."""
        assert len({id(log) for log, _, _ in self.calls}) == 1
        log = self.calls[0][0]
        rows = np.vstack([block for _, block, _ in self.calls])
        keys = np.concatenate([k for _, _, k in self.calls]).tolist()
        self.calls.clear()
        answer_of = dict(zip(log.keys, answers.centers))
        got = [answer_of[key] for key in keys]
        first = {}
        for q, centers in enumerate(got):
            first.setdefault(centers, q)
        assert answers.centers == list(first)
        assert [T.tolist() for T in answers.firsts] == [rows[q].tolist() for q in first.values()]
        assert len(answers) == answers.count >= answers.costed == len(got)
        return got

    def first_occurrences(self, answers, want):
        """Check the ``answers`` of one engine call against ``want``, every
        subset's answer over the whole stream: the costed subsets answer as
        ``want`` does and no later subset adds an answer, so ``answers`` are
        the first occurrences of ``want`` and count its subsets.  Returns
        whether the engine stopped before the last subset."""
        got = self.expand(answers)
        assert got == want[: len(got)] and set(want[len(got) :]) <= set(got)
        assert answers.count == len(want)
        return len(got) < len(want)


def _count_live_columns(monkeypatch):
    """Record ``(kept, offered)`` for every call of the column prune."""
    prune, counts = reduction._live_columns, []

    def spy(full, *args):
        live = prune(full, *args)
        counts.append((len(live), len(full)))
        return live

    monkeypatch.setattr(reduction, "_live_columns", spy)
    return counts


def test_batched_engine_matches_per_subset_calls(rng, monkeypatch):
    # 1-D integer coordinates make both paths exact, hence identical
    pruned = _count_live_columns(monkeypatch)
    per_subset = _PerSubset(monkeypatch)
    for _ in range(5):
        inst = random_instance(rng, 12, 5, k=2, m=2, integer=True, dim=1)
        cs = _coreset_for(inst, s=4, seed=int(rng.integers(1 << 16)))
        pts, w = cs.union.as_arrays()
        rows = enumerate_outlier_subsets(cs, inst.m)
        space = CandidateSpace.subsets(inst.facilities, inst.k)
        batched = per_subset_best_exact(inst.dist, pts, w, space, inst.z, rows)
        generic = list(_per_subset_generic(
            inst, pts, w, _tuples(rows, len(pts)), None, SolverHandle.exact()
        ))
        assert per_subset.expand(batched) == generic
    assert sum(offered - kept for kept, offered in pruned) > 0  # the prune dropped columns


def _reference_best_exact(dist, points, weights, space, z, subsets):
    """The per-subset loop the batched engine replaced, kept as its
    reference.  Its sums run down the columns of the whole space, so twin
    candidates get one float wherever they stand (a BLAS product over the
    whole space may round them apart)."""
    d = dist.pairwise(points, space.col_ids)
    if z != 1.0:
        d = d**z
    wm = np.asarray(weights, dtype=float)[:, None] * d[:, space_rows(space)].min(axis=2)
    full = wm.sum(axis=0)
    best_idx = []
    for T in subsets:
        costs = full - wm[list(T)].sum(axis=0) if T else full
        best_idx.append(int(np.argmin(costs)))
    sets = space_sets(space)
    return [sets[i] for i in best_idx]


def _with_twin_facilities(inst):
    """Move every second facility onto the one before it, so candidate sets tie."""
    coords = inst.dist.coords.copy()
    fac = inst.facilities
    for a, b in zip(fac[::2], fac[1::2]):
        coords[b] = coords[a]
    return replace(inst, dist=EuclideanOracle(coords))


def _maybe_twins(inst, twins):
    return _with_twin_facilities(inst) if twins else inst


def _plain_case(rng, twins=True):
    inst = _maybe_twins(random_instance(rng, 16, 8, k=2, m=3, z=2.0), twins)
    cs = _coreset_for(inst, s=3, seed=int(rng.integers(1 << 16)))
    return inst, cs, enumerate_outlier_subsets(cs, 3), CandidateSpace.subsets(
        inst.facilities, inst.k
    )


def _colorful_case(rng, twins=True):
    inst = _maybe_twins(random_instance(rng, 18, 7, k=2, m=3), twins)
    cinst = ColorfulInstance(
        base=inst, colors={p: 1 + p % 2 for p in inst.clients}, budgets=(2, 1)
    )
    base = baseline_solve(build_augmented_instance(inst), exact_budget=3000)
    rp = ring_partition(inst, base.centers, tau=1.0)
    cs = build_colored_coreset(rp, cinst, practical(3), generator_for(int(rng.integers(99)), 1, 0))
    rows = enumerate_colorful_subsets(cs, cinst.budgets)
    sizes = [len(T) for T in _tuples(rows, len(cs.union))]
    assert sizes != sorted(sizes)  # the stream is not in size order
    return inst, cs, rows, CandidateSpace.subsets(inst.facilities, inst.k)


def _matroid_case(rng, twins=True):
    inst = _maybe_twins(random_instance(rng, 16, 9, k=3, m=2), twins)
    fac = inst.facilities
    matroid = PartitionMatroid([(fac[0:3], 1), (fac[3:6], 1), (fac[6:9], 1)])
    cs = _coreset_for(inst, s=3, seed=int(rng.integers(1 << 16)))
    space = explicit_space(matroid_bases(matroid))
    return inst, cs, enumerate_outlier_subsets(cs, 2), space


def _empty_case(rng, twins=True):
    """Only the empty subset (m = 0): every entry of the stream is padding."""
    inst, cs, _, space = _plain_case(rng, twins)
    return inst, cs, enumerate_outlier_subsets(cs, 0), space


@pytest.mark.parametrize("case", [_plain_case, _colorful_case, _matroid_case, _empty_case])
def test_grouped_engine_matches_per_subset_loop(rng, monkeypatch, case):
    # small blocks of candidate sets and of subsets, so both are crossed
    monkeypatch.setattr(solvers, "_TRIM_BLOCK_ELEMENTS", 150)
    monkeypatch.setattr(reduction, "_BLOCK_ELEMENTS", 20)
    per_subset = _PerSubset(monkeypatch)
    for _ in range(4):
        inst, cs, rows, space = case(rng)
        pts, _ = cs.union.as_arrays()
        # integer weights as a sampled coreset has, so evicted rows are scaled
        w = rng.integers(1, 6, size=len(pts)).astype(float)
        assert _candidate_block_count(space, len(pts)) > 2
        subsets = _tuples(rows, len(pts))
        want = _reference_best_exact(inst.dist, pts, w, space, inst.z, subsets)
        got = per_subset_best_exact(inst.dist, pts, w, space, inst.z, rows)
        assert per_subset.expand(got) == want


def _row_major_best_exact(dist, points, weights, space, z, rows):
    """The exact engine's earlier layout, kept as its reference: over the
    whole candidate space, one row-major gather-sum of the live columns over
    the padded subset array ``rows``, each subset's rows added in T's own
    order, then ``argmin(axis=1)``; ``full`` is each candidate's sum over its
    contiguous row of terms, as the engine takes it.  A cost that is ``inf -
    inf`` is instead the sum of the rows the subset keeps, added in row
    order.  Returns each subset's candidate index (-1: none) and how many
    costs were such kept sums."""
    d = solvers._cost_block(dist, points, None, space.col_ids, z)
    w = np.asarray(weights, dtype=float)
    wm = np.zeros((len(w) + 1, space.count))
    wm[:-1] = w[:, None] * d[:, space_rows(space)].min(axis=2)
    full = np.ascontiguousarray(wm[:-1].T).sum(axis=1)
    live = reduction._live_columns(
        full, wm[:-1], rows.shape[1], reduction._rounding_bound(wm[:-1])
    )
    removed = wm[rows[:, 0]][:, live]
    for col in range(1, rows.shape[1]):
        removed += wm[rows[:, col]][:, live]
    with np.errstate(invalid="ignore"):  # inf - inf
        costs = full[live] - removed
    kept_sums = 0
    for q, c in zip(*np.nonzero(np.isnan(costs))):
        evicted = set(rows[q].tolist())
        costs[q, c] = sum(float(wm[i, live[c]]) for i in range(len(w)) if i not in evicted)
        kept_sums += 1
    j = costs.argmin(axis=1)
    best_idx = np.where(np.isfinite(costs[np.arange(len(j)), j]), live[j], -1)
    return best_idx, kept_sums


def _candidate_block_count(space, n_points):
    """How many blocks `solvers._candidate_blocks` walks ``space`` in."""
    d = np.zeros((n_points, len(space.col_ids)))
    return sum(1 for _ in solvers._candidate_blocks(d, space.sets))


def _far_facility_case(rng):
    """1-D float points, one client and one facility at 1e300, z = 2: a
    candidate set without the far facility has an ``inf`` ``full``, and
    costs ``inf - inf`` = NaN to a subset that evicts the far client.  The
    far facility comes first, so in blocks of 4 candidate sets the first
    block is all finite and the second mixes both.  Returns the instance,
    the entries, the subset stream and the candidate space."""
    xs = rng.uniform(0.0, 10.0, size=21)
    clients, facs = np.append(xs[:15], 1e300), np.append(1e300, xs[15:])
    inst = line_instance(clients, facs, k=2, m=2, z=2.0)
    rows = _stream(_all_subsets(len(clients), 2), len(clients))
    return inst, np.arange(len(clients)), rows, CandidateSpace.subsets(inst.facilities, inst.k)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_exact_engine_matches_the_row_major_reference(rng, monkeypatch):
    # float data with twin facilities (ties), the colorful stream (rows not in
    # size order), the all-padding stream of m = 0, and an inf ``full``
    # beside finite columns; blocks of candidate sets and of subsets are crossed
    monkeypatch.setattr(solvers, "_TRIM_BLOCK_ELEMENTS", 150)
    monkeypatch.setattr(reduction, "_BLOCK_ELEMENTS", 7)
    per_subset = _PerSubset(monkeypatch)
    cases = [
        lambda rng, case=case: (lambda inst, cs, rows, space: (
            inst, cs.union.as_arrays()[0], rows, space
        ))(*case(rng))
        for case in (_plain_case, _colorful_case, _empty_case, _matroid_case)
    ] + [_far_facility_case]
    kept_rule = overflowed = 0
    for i in range(40):
        inst, pts, stream, space = cases[i % len(cases)](rng)
        w = rng.uniform(0.5, 3.0, size=len(pts))
        rows = _rows(stream)
        assert _candidate_block_count(space, len(pts)) > 2 and (len(rows) > 7 or len(rows) == 1)
        want, kept_sums = _row_major_best_exact(inst.dist, pts, w, space, inst.z, rows)
        kept_rule += kept_sums
        if (want < 0).any():
            overflowed += 1
            with pytest.raises(CostOverflowError):
                per_subset_best_exact(inst.dist, pts, w, space, inst.z, stream)
            per_subset.calls.clear()
            continue
        got = per_subset_best_exact(inst.dist, pts, w, space, inst.z, stream)
        # subset by subset, each block's answers are the reference's
        sets = space_sets(space)
        assert per_subset.expand(got) == [sets[c] for c in want.tolist()]
    # a subset that evicts the far client from a candidate without the far
    # facility is costed by its kept rows, so every case answers every subset
    assert kept_rule > 0 and overflowed == 0


def test_exact_engine_ties_go_to_the_earliest_candidate(rng, monkeypatch):
    # float data with twin facilities, so candidate sets tie exactly, and
    # float weights: in blocks of one candidate set, of four and of the whole
    # space, every subset gets the earliest of its least candidates, and the
    # empty subset alone gets `argmin_trimmed`'s answer on the same weighted
    # block.  The colorful case's 21 sets in blocks of four leave the last
    # alone, the later twin of a set in a wider block: its sum must not
    # depend on the block's width
    per_subset = _PerSubset(monkeypatch)
    ties = lone = 0
    for case in (_plain_case, _colorful_case, _matroid_case):
        inst, cs, stream, space = case(rng)
        pts, _ = cs.union.as_arrays()
        w = rng.uniform(0.5, 3.0, size=len(pts))
        lone += space.count % 4 == 1
        d = solvers._cost_block(inst.dist, pts, w, space.col_ids, inst.z)
        terms = np.zeros((len(pts) + 1, space.count))
        terms[:-1] = d[:, space_rows(space)].min(axis=2)
        full = np.ascontiguousarray(terms[:-1].T).sum(axis=1)
        rows = _rows(stream)
        want = []
        for _, costs in reduction._evicted_sums(full, terms, np.arange(len(rows)), rows.T):
            ties += ((costs == costs.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum()
            want += [space_sets(space)[j] for j in costs.argmin(axis=1).tolist()]
        empty = enumerate_outlier_subsets(cs, 0)
        for per, blocks in ((1, space.count), (4, -(-space.count // 4)), (space.count, 1)):
            monkeypatch.setattr(solvers, "_TRIM_BLOCK_ELEMENTS", per * len(pts))
            assert _candidate_block_count(space, len(pts)) == blocks
            got = per_subset_best_exact(inst.dist, pts, w, space, inst.z, stream)
            assert per_subset.expand(got) == want, per
            alone = per_subset_best_exact(inst.dist, pts, w, space, inst.z, empty)
            assert per_subset.expand(alone) == [argmin_trimmed(d, space, [(slice(None), 0)])], per
    assert ties > 0 and lone


def test_exact_engine_stops_once_every_live_column_has_answered(rng, monkeypatch):
    # the engine may stop reading the stream after the block in which every
    # live column has answered some subset; in blocks of 1, 7 and the
    # default, its Answers are the first occurrences of every subset's
    # answer over the whole stream.  Without twin facilities some calls
    # stop early; with them a live later twin never wins (ties go to the
    # earlier), so every block is read
    per_subset = _PerSubset(monkeypatch)
    stopped = dict.fromkeys([1, 7, reduction._BLOCK_ELEMENTS], 0)
    for twins in (False, True):
        for case in (_plain_case, _colorful_case, _empty_case, _matroid_case):
            for _ in range(8):
                inst, cs, stream, space = case(rng, twins)
                pts, _ = cs.union.as_arrays()
                w = rng.uniform(0.5, 3.0, size=len(pts))
                best, _ = _row_major_best_exact(inst.dist, pts, w, space, inst.z, _rows(stream))
                want = [space_sets(space)[c] for c in best.tolist()]
                for block in stopped:
                    monkeypatch.setattr(reduction, "_BLOCK_ELEMENTS", block)
                    got = per_subset_best_exact(inst.dist, pts, w, space, inst.z, stream)
                    early = per_subset.first_occurrences(got, want)
                    assert not (early and twins)
                    stopped[block] += early
    assert stopped[1] and stopped[7], stopped


def _exact_enum_instance(seed, k=1):
    """The benchmark's exact-enum shape: 77 planted points in k clusters and
    3 far outliers, every point a facility, m = 3."""
    inst, _ = generate_planted(PlantedConfig(
        clusters=k, points_per_cluster=77 // k, spread=1.0, outlier_count=3,
        outlier_distance_factor=30.0, dimension=2, seed=seed,
    ))
    ids = tuple(range(inst.dist.n_points))
    return replace(inst, clients=ids, facilities=ids, k=k, m=3)


def test_exact_enum_shape_costs_one_block_of_six(monkeypatch):
    # every live candidate has answered within the first of the six blocks
    # of C(80, <= 3) subsets, so the engine costs no other block
    engine, answers = reduction.per_subset_best_exact, []
    monkeypatch.setattr(
        reduction, "per_subset_best_exact", lambda *a: answers.append(engine(*a)) or answers[-1]
    )
    for seed in (6100, 6101):
        solve_with_outliers(
            _exact_enum_instance(seed), practical(60), SolverHandle.exact(), seed=1, rounds=1
        )
    assert [(a.count, a.costed) for a in answers] == [(85_401, reduction._BLOCK_ELEMENTS)] * 2
    assert -(-85_401 // reduction._BLOCK_ELEMENTS) == 6


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_exact_engine_reads_every_block_where_a_cost_could_overflow(rng, monkeypatch):
    # 12 clients in the unit square and 4 facilities on a ring of radius
    # 0.9 * 2**24 / 12, k = 1, m = 2, as a `MatrixOracle`: every term of a
    # candidate is about its ring radius, and its full sum about 12 of them.
    # Scaled by 2**1000, every full sum is finite but ``full + 2 * width *
    # max(row)`` overflows, so the engine must read every block, though it
    # rounds alike to the unscaled instance, where it stops early.  Scaled
    # by 2**1001, every full sum overflows and so does every subset's cost:
    # the walk and the engine both raise
    monkeypatch.setattr(reduction, "_BLOCK_ELEMENTS", 7)
    per_subset = _PerSubset(monkeypatch)
    pts, stream = np.arange(12), _stream(_all_subsets(12, 2), 12)
    stopped = 0
    for _ in range(6):
        angles = rng.uniform(0.0, 2 * np.pi, size=4)
        ring = 0.9 * 2.0**24 / 12 * np.c_[np.cos(angles), np.sin(angles)]
        coords = np.vstack([rng.uniform(-1.0, 1.0, size=(12, 2)), ring])
        seen = []
        for scale in (1.0, 2.0**1000, 2.0**1001):
            inst = MetricInstance(
                pts.tolist(), list(range(12, 16)),
                MatrixOracle(cdist(coords, coords) * scale), k=1, m=2,
            )
            space = CandidateSpace.subsets(inst.facilities, 1)
            d = solvers._cost_block(inst.dist, pts, None, space.col_ids, 1.0)
            with np.errstate(over="ignore"):  # full + 2 * width * max(row), width 2
                full = d.sum(axis=0)
                reach = full + 2 * 2 * d.max(axis=0)
            assert np.isfinite(full).all() == (scale < 2.0**1001)
            assert np.isfinite(reach).all() == (scale == 1.0)
            best, _ = _row_major_best_exact(inst.dist, pts, np.ones(12), space, 1.0, _rows(stream))
            if (best < 0).any():
                with pytest.raises(CostOverflowError):
                    per_subset_best_exact(inst.dist, pts, np.ones(12), space, 1.0, stream)
                per_subset.calls.clear()
                seen.append(None)
                continue
            got = per_subset_best_exact(inst.dist, pts, np.ones(12), space, 1.0, stream)
            want = [space_sets(space)[c] for c in best.tolist()]
            early = per_subset.first_occurrences(got, want)
            assert not (early and scale > 1.0)
            stopped += early
            seen.append((got.centers, [T.tolist() for T in got.firsts]))
        assert seen[1] == seen[0] and seen[2] is None
    assert stopped
    # a far client whose squared distances overflow gives both candidates an
    # inf full sum, so no full is finite.  The first block evicts it, and
    # each candidate answers some subset there by the rows it keeps; only
    # the last subset keeps the far client, and the engine must reach it
    inst = line_instance([0, 1, 2, 3, 4, 10, 1e300], [2.5, 3.5], k=1, m=2, z=2.0)
    pts, space = np.arange(7), CandidateSpace.subsets(inst.facilities, 1)
    stream = _stream([T for T in _all_subsets(7, 2) if 6 in T] + [()], 7)
    best, _ = _row_major_best_exact(inst.dist, pts, np.ones(7), space, 2.0, _rows(stream))
    assert best[:-1].tolist() == [1, 1, 1, 1, 1, 1, 0] and best[-1] < 0
    with pytest.raises(CostOverflowError):
        per_subset_best_exact(inst.dist, pts, np.ones(7), space, 2.0, stream)


def _grid_line(rng, step):
    """1-D coordinates on a grid of ``step``: costs tie in exact arithmetic,
    and on the 0.1 grid their float sums also carry rounding noise.  Some
    instances have k >= |F|, and some let every entry be evicted."""
    n_c, n_f = int(rng.integers(3, 9)), int(rng.integers(1, 6))
    xs = rng.integers(0, 13, size=n_c + n_f) * step
    z = float(rng.choice([1.0, 2.0]))
    inst = line_instance(xs[:n_c], xs[n_c:], k=int(rng.integers(1, 4)), m=2, z=z)
    m = n_c if rng.random() < 0.3 else 2
    return inst, np.arange(n_c), _all_subsets(n_c, m), None


def _all_subsets(n, m):
    return list(chain(*(combinations(range(n), size) for size in range(m + 1))))


def _plane(rng):
    """2-D float coordinates: no ties, so the lockstep path answers."""
    z = float(rng.choice([1.0, 2.0]))
    inst = random_instance(rng, 12, 6, k=int(rng.integers(2, 4)), m=2, z=z)
    return inst, np.arange(12), _all_subsets(12, 2), None


def _colorful_stream(rng):
    inst, cs, rows, _ = _colorful_case(rng)
    return inst, cs.union.as_arrays()[0], _tuples(rows, len(cs.union)), None


def _one_spot(rng):
    """Every point at one spot: an all-zero block, one swap to price."""
    inst = line_instance([0, 0, 0, 0], [0, 0], k=1, m=1, z=float(rng.choice([1.0, 2.0])))
    return inst, np.arange(4), [(), (0,), (1,), (2,), (3,)], None


def _empty_stream(rng):
    """`_plane` with only the empty subset (m = 0): every row is padding."""
    inst, pts, _, _ = _plane(rng)
    return inst, pts, [()], None


def _twin_facilities(rng):
    """Twin facilities at 10 price the start's two best swaps alike: a
    near-tie, so the kernel runs, on subsets shorter than the width too."""
    inst = line_instance([10, 10, 10, 0], [0, 10, 10], k=1, m=2, z=float(rng.choice([1.0, 2.0])))
    return inst, np.arange(4), _all_subsets(4, 2), None


def _partition(inst, dealt):
    """k parts of capacity 1 over the sorted facilities.  Dealt to the parts
    in turn, the greedy basis is the first k columns, the start without a
    matroid too; in consecutive blocks, it is not."""
    space = CandidateSpace.subsets(inst.facilities, inst.k)
    cols, k = space.col_ids, space.sets.width
    parts = [cols[p::k] for p in range(k)] if dealt else np.array_split(cols, k)
    return PartitionMatroid([(part, 1) for part in parts])


def _plane_partition(rng):
    """`_plane` under a dealt partition: the cheapest swap often puts two
    centers in one part, so the mask decides the move."""
    inst, pts, subsets, _ = _plane(rng)
    return inst, pts, subsets, _partition(inst, dealt=True)


def _grid_partition(rng):
    """Integer 1-D coordinates under a partition in blocks: ties, so the
    fallback kernel runs under the test."""
    n_c, n_f, k = int(rng.integers(4, 9)), int(rng.integers(4, 8)), int(rng.integers(2, 4))
    xs = rng.integers(0, 13, size=n_c + n_f)
    inst = line_instance(xs[:n_c], xs[n_c:], k=k, m=2, z=float(rng.choice([1.0, 2.0])))
    return inst, np.arange(n_c), _all_subsets(n_c, 2), _partition(inst, dealt=False)


def test_lockstep_local_search_matches_per_subset_calls(rng, monkeypatch):
    # blocks of 7 subsets, so the lockstep runs block by block and its row
    # blocks are crossed; every kernel run is counted, with the number of
    # rows it keeps, and every state priced, with the blocks it is used in
    monkeypatch.setattr(reduction, "_BLOCK_ELEMENTS", 7)
    kernel, kernel_runs = reduction._local_search, []
    monkeypatch.setattr(
        reduction, "_local_search",
        lambda D, *a, **kw: kernel_runs.append(len(D)) or kernel(D, *a, **kw),
    )
    pruned = _count_live_columns(monkeypatch)
    per_subset = _PerSubset(monkeypatch)
    swap_terms, evicted, priced, used_in = reduction._swap_terms, reduction._evicted_sums, [], {}
    monkeypatch.setattr(
        reduction, "_swap_terms", lambda D, current: priced.append(current) or swap_terms(D, current)
    )
    monkeypatch.setattr(
        reduction, "_evicted_sums",
        lambda full, *a: used_in.setdefault(id(full), set()).add(len(per_subset.calls))
        or evicted(full, *a),
    )
    reused = 0
    builders = [
        lambda rng: _grid_line(rng, 1.0), lambda rng: _grid_line(rng, 0.1),
        _plane, _colorful_stream, _one_spot, _plane_partition, _grid_partition,
        _empty_stream, _twin_facilities,
    ]
    answered = fallbacks = all_columns = all_evicted = capped = short_fallbacks = 0
    masked = matroid_fallbacks = matroid_capped = 0
    for i in range(108):
        inst, pts, subsets, matroid = builders[i % len(builders)](rng)
        # integer weights as a sampled coreset has, so evicted rows are scaled
        w = rng.integers(1, 4, size=len(pts)).astype(float)
        solver = SolverHandle.local_search(
            iteration_cap=1 if i % 3 == 0 else 200,
            improvement_threshold=float(rng.choice([1e-3, 0.25])),
        )
        facs = CandidateSpace.subsets(inst.facilities, inst.k)
        k = facs.sets.width
        black_box = test = None
        if matroid is not None:
            black_box = lambda p, ww: extensions.matroid_local_search(
                inst.dist, p, ww, matroid, inst.z, solver
            )[0]
            test = solvers.ColumnTest(matroid, facs.col_ids)
        with warnings.catch_warnings(record=True) as old:
            warnings.simplefilter("always")
            want = list(_per_subset_generic(inst, pts, w, subsets, black_box, solver))
        kernel_runs.clear()
        priced.clear()
        used_in.clear()
        with warnings.catch_warnings(record=True) as new:
            warnings.simplefilter("always")
            D = solvers._cost_block(inst.dist, pts, w, facs.col_ids, inst.z)
            rows = _padded(subsets, len(pts))
            got = per_subset.expand(
                per_subset_local_search(D, SubsetStream.from_rows(rows), k, solver, test)
            )
        assert [tuple(facs.col_ids[c] for c in cols) for cols in got] == want, i
        assert [str(x.message) for x in new] == [str(x.message) for x in old], i
        # each state is priced once, however many blocks meet it
        assert len(priced) == len(set(priced)), i
        reused += any(len(blocks) > 1 for blocks in used_in.values())
        answered += len(subsets) - len(kernel_runs)
        fallbacks += len(kernel_runs)
        # a kernel run keeping more rows than the widest subset leaves was
        # given a row with padding
        short_fallbacks += sum(kept > len(pts) - rows.shape[1] for kept in kernel_runs)
        all_columns += k == len(facs.col_ids)
        all_evicted += max(map(len, subsets)) == len(pts)
        capped += len(old) > 0
        if matroid is not None:
            matroid_fallbacks += len(kernel_runs)
            matroid_capped += len(old) > 0
            start = solvers._greedy_basis(len(facs.col_ids), k, test)
            if not kernel_runs and start == list(range(k)):
                # every subset searched in lockstep; from the same start
                # without the test, a different answer means the mask
                # decided a move
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    free = per_subset.expand(
                        per_subset_local_search(D, SubsetStream.from_rows(rows), k, solver)
                    )
                masked += got != free
    assert fallbacks and answered  # both paths were taken ...
    assert all_columns and all_evicted and capped and short_fallbacks  # ... on every kind of input
    assert masked and matroid_fallbacks and matroid_capped  # ... under a matroid too
    assert sum(offered - kept for kept, offered in pruned) > 0  # the prune dropped swaps
    assert reused  # a state priced in one block was used again in a later one


def test_live_columns_boundaries():
    # three rows, width 2; each column's full is its sum.  The reference r
    # is the first column with the least finite full, and a column's gap is
    # (full - full[r]) minus the sum of its two largest positive differences
    # d = terms - terms[:, r]; the slack is 1.0
    e = 2.0**-8
    cols = {
        "r": [0, 4, 6],  # full 10
        "r's twin": [0, 4, 6],  # a later column with the same full is not r
        "gap == slack": [1, 5, 9],  # d = [1, 1, 3]: 5 - 4 == 1, kept
        "gap just over": [1 + e, 5 + e, 9],  # d = [1+e, 1+e, 3]: 1 + e > 1
        "lb <= U": [10, 10, 10],  # full - top = 10 == full[r], yet the gap is 20 - 16 = 4
        "pass 1": [11.5, 12, 12],  # full - 2 * max = 11.5 > full[r] + 1
        "pass 2": [2, 6, 8],  # (16 - 10) - 2 * max(d) = 2 > 1
        "NaN gap": [1, np.inf, np.inf],  # inf - inf
        "masked": [1, 2, 3],  # full set to +inf below
    }
    names = list(cols)
    terms = np.array(list(cols.values()), dtype=float).T
    full = terms.sum(axis=0)
    full[names.index("masked")] = np.inf
    bound = 2.0**-10  # a slack of 1.0: the slack is 1024 rounding bounds
    live = reduction._live_columns(full, terms, 2, bound)
    assert [names[c] for c in live] == ["r", "r's twin", "gap == slack", "NaN gap"]
    # r given as the reference of the other columns: the same columns stay;
    # a reference with no finite full keeps them all
    others = reduction._live_columns(full[1:], terms[:, 1:], 2, bound, (full[0], terms[:, 0]))
    assert [names[c + 1] for c in others] == ["r's twin", "gap == slack", "NaN gap"]
    assert len(reduction._live_columns(full, terms, 2, bound, (np.inf, None))) == len(names)
    # a bound against the least full alone, full - (its two largest terms),
    # keeps "lb <= U"; the gap drops it
    row_top = np.sort(terms, axis=0)[1:].sum(axis=0)
    assert full[names.index("lb <= U")] - row_top[names.index("lb <= U")] <= full[0]
    # width above the three rows: every subset may evict every row, so
    # every column with a finite full costs 0 then and is kept
    assert [names[c] for c in reduction._live_columns(full, terms, 4, bound)] == [
        n for n in names if n != "masked"
    ]
    # fewer rows than the width and every difference negative (``full`` is
    # not the sum of the terms here): without the max(0, .) the second pass
    # would drop column 1, whose gap to r is exactly the slack
    few = np.array([[5.0, 1.0], [5.0, 1.0]])
    assert reduction._live_columns(np.array([1.0, 2.0]), few, 3, bound).tolist() == [0, 1]
    # no finite full: every column is kept
    assert reduction._live_columns(np.full(len(names), np.inf), terms, 2, bound).tolist() == list(
        range(len(names))
    )
    # an unbounded margin (an overflowing block) keeps every column
    assert len(reduction._live_columns(full, terms, 2, np.inf)) == len(names)


def test_local_search_prune_keeps_the_current_column(monkeypatch):
    # a cold start far from both clusters: offered with the swaps, the
    # start's own column would be dropped
    inst = line_instance([0, 1, 2, 100, 101, 102, 480], [500, 700, 0, 100], k=2, m=1)
    facs = CandidateSpace.subsets(inst.facilities, inst.k)
    D = solvers._cost_block(inst.dist, np.arange(7), np.ones(7), facs.col_ids, inst.z)
    rows = _stream(_all_subsets(7, 1), 7)
    seen, offered = [], []
    swap_terms, evicted = reduction._swap_terms, reduction._evicted_sums
    monkeypatch.setattr(
        reduction, "_swap_terms", lambda *a: seen.append(swap_terms(*a)) or seen[-1]
    )
    monkeypatch.setattr(
        reduction, "_evicted_sums",
        lambda full, per_row, *a: offered.append((full, per_row)) or evicted(full, per_row, *a),
    )
    per_subset_local_search(D, rows, facs.sets.width, SolverHandle.local_search())
    assert len(seen) == len(offered) > 1
    for (terms, _), (full, per_row) in zip(seen, offered):
        np.testing.assert_array_equal(per_row[:, -1], terms[:, -1])
        assert full[-1] == terms[:-1, -1].sum()
    terms = seen[0][0]
    current = terms.shape[1] - 1
    assert current not in reduction._live_columns(
        terms[:-1].sum(axis=0), terms[:-1], rows.width, reduction._rounding_bound(D)
    )


def test_local_search_prune_drops_most_swaps(monkeypatch):
    # the benchmark's local-search shape: about 3% of the swaps are kept
    pruned = _count_live_columns(monkeypatch)
    for seed in (6201, 6202):
        inst, _ = generate_planted(PlantedConfig(
            clusters=2, points_per_cluster=80, spread=1.0, outlier_count=2,
            outlier_distance_factor=30.0, dimension=2, seed=seed,
        ))
        solve_with_outliers(inst, practical(10), SolverHandle.local_search(), seed=1, rounds=1)
    kept, offered = map(sum, zip(*pruned))
    assert kept < 0.1 * offered


def test_exact_prune_drops_most_candidates(monkeypatch):
    # the benchmark's exact-enum shape (k = 1, m = 3, every point a
    # facility): a handful of the 80 candidates per instance are kept.  With
    # two clusters and k = 2 the 3,081 candidate sets span four blocks, and
    # the last pass, against the best of all blocks, drops columns their own
    # block kept
    pruned = _count_live_columns(monkeypatch)
    for seed, k in ((6100, 1), (6101, 1), (6100, 2)):
        start = len(pruned)
        solve_with_outliers(
            _exact_enum_instance(seed, k), practical(60), SolverHandle.exact(), seed=1, rounds=1
        )
    *blocks, (final_kept, final_offered) = pruned[start:]
    assert len(blocks) > 2 and final_offered == sum(kept for kept, _ in blocks) > final_kept
    kept, offered = map(sum, zip(*pruned))
    assert kept < 0.1 * offered


def _overflowing_instance(seed, far=1):
    """14 points, ``far`` of them (a drawn point and the ones after it) with
    one coordinate at +-1e300, the first two on opposite sides of the first
    axis, the third on the second: the squared distances to such a point
    overflow, so every cost sum that has it is inf."""
    rng = np.random.default_rng(seed)
    inst = shared_point_instance(rng, 14, k=2, m=2)
    coords = inst.dist.coords.copy()
    first = int(rng.integers(14))
    for i, (axis, sign) in enumerate([(0, 1), (0, -1), (1, 1)][:far]):
        coords[(first + i) % 14, axis] = sign * 1e300
    return replace(inst, dist=EuclideanOracle(coords))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_cost_sums_raise_a_named_error(monkeypatch):
    for seed in range(30):
        inst = _overflowing_instance(seed)
        oracle = exact_outlier_oracle(inst)  # trims before it sums, so it answers
        # evicting the far point leaves inf - inf for the candidates without
        # it; the exact engine costs those subsets by the rows they keep
        lossless = solve_with_outliers(
            inst, lossless_params(inst), SolverHandle.exact(), seed=seed, rounds=1
        )
        assert lossless.best.cost == oracle.cost, seed
        sampled = solve_with_outliers(inst, practical(4), SolverHandle.exact(), seed=seed, rounds=1)
        assert sampled.best.cost >= oracle.cost, seed
        solve = lambda: report_to_dict(solve_with_outliers(
            inst, practical(4), SolverHandle.local_search(), seed=seed, rounds=1
        ))
        kernel, calls = reduction._local_search, []
        with monkeypatch.context() as m:
            m.setattr(
                reduction, "_local_search", lambda *a, **kw: calls.append(1) or kernel(*a, **kw)
            )
            pruned = solve()
        # the rounding bound skips the inf entries, so the engine keeps batching
        # and only a few subsets fall back to the kernel (106 with an inf bound)
        assert len(calls) <= 14, seed
        assert _unpruned(monkeypatch, solve) == pruned, seed
    # three far points and k = 2: the empty subset keeps one of them under
    # every candidate, so even its kept sum is inf on every column
    inst = _overflowing_instance(0, far=3)
    exact_outlier_oracle(inst)
    with pytest.raises(CostOverflowError, match="overflow float64.*rescale"):
        solve_with_outliers(inst, lossless_params(inst), SolverHandle.exact(), seed=0, rounds=1)


def _unpruned(monkeypatch, run):
    """``run()`` with every column offered to the gather-sum."""
    with monkeypatch.context() as m:
        m.setattr(reduction, "_live_columns", lambda full, *a: np.arange(len(full)))
        return run()


def _assert_same_answers(got, want):
    """Engine calls' ``(Answers, every subset's answer)`` pairs are equal."""
    assert len(got) == len(want)
    for (a, a_each), (b, b_each) in zip(got, want):
        assert a.centers == b.centers and a.count == b.count
        assert [T.tolist() for T in a.firsts] == [T.tolist() for T in b.firsts]
        assert a_each == b_each


def _planted_far(seed, k, m):
    """2-D planted clusters with far outliers, every point a facility."""
    inst, _ = generate_planted(PlantedConfig(
        clusters=k, points_per_cluster=30, spread=1.0, outlier_count=m,
        outlier_distance_factor=30.0, dimension=2, seed=seed,
    ))
    ids = tuple(range(inst.dist.n_points))
    return replace(inst, clients=ids, facilities=ids, k=k, m=m)


def _all_evicted(rng):
    """`_grid_line` on the 0.1 grid, its subsets up to every row."""
    inst, pts, _, matroid = _grid_line(rng, 0.1)
    return inst, pts, _all_subsets(len(pts), len(pts)), matroid


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_prune_changes_no_answer(rng, monkeypatch):
    # float data, where costs differ by rounding: both engines give the same
    # Answers and the same answer to every subset, with the prune as with
    # every column offered
    pruned = _count_live_columns(monkeypatch)
    per_subset = _PerSubset(monkeypatch)
    answers = []

    def recorded(engine, *a, **kw):
        got = engine(*a, **kw)
        answers.append((got, per_subset.expand(got)))
        return got

    for name in ("per_subset_best_exact", "per_subset_local_search"):
        monkeypatch.setattr(reduction, name, partial(recorded, getattr(reduction, name)))

    def engine_answers(solve):
        answers.clear()
        solve()
        return list(answers)

    solves = []
    for solver in (SolverHandle.exact(), SolverHandle.local_search()):
        for seed, k, m in ((7001, 1, 3), (7002, 2, 2), (7003, 2, 3)):
            inst = _planted_far(seed, k, m)
            solves.append(lambda inst=inst, solver=solver, seed=seed: solve_with_outliers(
                inst, practical(10), solver, seed=seed, rounds=1
            ))
        # the colorful stream, matroid bases and masked swaps, and both at once
        solves += _four_solves(rng, solver, budgets=(2, 1))[2][1:]
        # subsets costed by their kept rows, where a sum overflowed
        overflowing = _overflowing_instance(3)
        solves.append(lambda solver=solver: solve_with_outliers(
            overflowing, practical(4), solver, seed=3, rounds=1
        ))
    for solve in solves:
        want = _unpruned(monkeypatch, lambda: engine_answers(solve))
        _assert_same_answers(engine_answers(solve), want)

    # the batched engines called directly: twin facilities, the colorful
    # stream, matroid bases, masked swaps and every row evicted
    for case in (_plain_case, _colorful_case, _matroid_case, _empty_case):
        inst, cs, rows, space = case(rng)
        pts, w = cs.union.as_arrays()
        run = lambda: engine_answers(
            lambda: reduction.per_subset_best_exact(inst.dist, pts, w, space, inst.z, rows)
        )
        _assert_same_answers(run(), _unpruned(monkeypatch, run))
    builders = [
        _all_evicted, _plane, _colorful_stream, _one_spot,
        _plane_partition, _grid_partition, _empty_stream, _twin_facilities,
    ]
    for i in range(48):
        inst, pts, subsets, matroid = builders[i % len(builders)](rng)
        w = rng.integers(1, 4, size=len(pts)).astype(float)
        facs = CandidateSpace.subsets(inst.facilities, inst.k)
        test = None if matroid is None else solvers.ColumnTest(matroid, facs.col_ids)
        D = solvers._cost_block(inst.dist, pts, w, facs.col_ids, inst.z)
        rows = _stream(subsets, len(pts))
        solver = SolverHandle.local_search(iteration_cap=200)
        run = lambda: engine_answers(
            lambda: reduction.per_subset_local_search(D, rows, facs.sets.width, solver, test)
        )
        _assert_same_answers(run(), _unpruned(monkeypatch, run))
    assert sum(offered - kept for kept, offered in pruned) > 0  # the prune dropped columns


def test_live_columns_keep_every_subsets_best():
    # small random blocks with ties, inf entries, masked columns and widths
    # past the real rows: for every subset of at most ``width`` real rows,
    # its first least cost, every cost within the local search's tol of it
    # and every NaN cost are on kept columns
    rng = np.random.default_rng(2117)
    dropped = 0
    for _ in range(400):
        n, n_cols = int(rng.integers(1, 6)), int(rng.integers(1, 9))
        width = int(rng.integers(1, n + 3))
        terms = np.zeros((n + 1, n_cols))
        terms[:-1] = rng.integers(0, 6, size=(n, n_cols)) * rng.choice([1.0, 0.1, 1e-3])
        if rng.random() < 0.5:  # tied columns
            terms[:, rng.integers(n_cols)] = terms[:, rng.integers(n_cols)]
        if rng.random() < 0.3:
            terms[rng.integers(n), rng.integers(n_cols)] = np.inf
        full = terms[:-1].sum(axis=0)
        full[rng.random(n_cols) < 0.15] = np.inf  # masked swaps
        bound = reduction._rounding_bound(terms[:-1])
        live = set(reduction._live_columns(full, terms[:-1], width, bound).tolist())
        dropped += n_cols - len(live)
        rows = reduction._up_to(n, min(width, n), width, n).T
        with np.errstate(invalid="ignore"):  # inf - inf
            for _, costs in reduction._evicted_sums(full, terms, np.arange(len(rows)), rows.T):
                first = costs.argmin(axis=1)
                least = costs[np.arange(len(first)), first]
                near = np.isnan(costs) | (costs <= least[:, None] + 256 * bound)
                assert set(first.tolist()) <= live
                assert set(np.flatnonzero(near.any(axis=0)).tolist()) <= live
    assert dropped > 0


def test_round_memory_is_bounded_by_the_block():
    # 40 entries and m = 4: 102,091 subsets in seven blocks; the round as one
    # padded (102,091, 4) index array would take 3.3 MB by itself
    inst = random_instance(np.random.default_rng(2502), 40, 6, k=2, m=4)
    params = lossless_params(inst)
    for solver in (SolverHandle.exact(), SolverHandle.local_search()):
        solve = lambda: solve_with_outliers(inst, params, solver, seed=1, rounds=1)
        want = report_to_dict(solve())
        tracemalloc.start()
        try:
            rep = solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.per_round[0].coreset_lossless and rep.per_round[0].coreset_size == 40
        assert report_to_dict(rep) == want
        assert peak < 4_000_000, (solver.kind, peak)


def test_exact_solve_memory_is_bounded_by_the_candidate_block():
    # 40 entries and 60 facilities, k = 3: 34,220 candidate sets, walked in
    # blocks of about 64K distances; as one (entries x sets) weighted block
    # the terms alone would take 11 MB
    inst = random_instance(np.random.default_rng(2601), 40, 60, k=3, m=2)
    params = practical(40)
    assert CandidateSpace.subsets(inst.facilities, inst.k).count == 34_220
    solve = lambda: solve_with_outliers(inst, params, SolverHandle.exact(), seed=1, rounds=1)
    want = report_to_dict(solve())
    tracemalloc.start()
    try:
        rep = solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.per_round[0].coreset_lossless and rep.per_round[0].coreset_size == 40
    assert report_to_dict(rep) == want
    assert peak < 8 * 2**20, peak


def test_theory_mode_pipeline(rng):
    # theory-mode sample sizes dwarf desk-scale rings, so the run is lossless
    # and the exact black box recovers the optimum
    inst = random_instance(rng, 12, 4, k=2, m=1)
    params = CoresetParams(epsilon=0.5, lam=0.1, mode="theory")
    assert params.sample_size(inst.n, inst.k, inst.m, inst.z) > len(inst.clients)
    rep = solve_with_outliers(inst, params, SolverHandle.exact(), seed=3, rounds=1)
    assert rep.per_round[0].coreset_lossless
    assert rep.best.cost == pytest.approx(exact_outlier_oracle(inst).cost, rel=1e-12)


def test_matrix_backed_pipeline(rng):
    inst = random_instance(rng, 14, 5, k=2, m=1, matrix=True)
    rep = solve_with_outliers(inst, lossless_params(inst), SolverHandle.exact(), seed=9, rounds=1)
    oracle = exact_outlier_oracle(inst)
    assert rep.best.cost == pytest.approx(oracle.cost, rel=1e-12)


def test_candidate_space_unrank(rng):
    space = CandidateSpace.subsets(range(10, 20), 3)
    combos = list(combinations(range(10), 3))
    for rank in [0, 1, 17, 50, len(combos) - 1]:
        assert space_sets(space)[rank] == tuple(10 + i for i in combos[rank])


# ---------------------------------------------------------------------------
# the benchmark's tracer wraps layer functions by name
# ---------------------------------------------------------------------------


def _benchmark_tracing():
    """benchmarks/tracing.py, loaded by path (the benchmarks are not a package)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up by name
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_hooks_resolve():
    tracing = _benchmark_tracing()
    for module, attr, _ in tracing.WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def _four_solves(rng, solver, budgets=(1, 0), params=None):
    """The four solve entry points on one instance of m = sum(budgets), and its matroid."""
    inst = random_instance(rng, 10, 6, k=2, m=sum(budgets))
    fac = inst.facilities
    matroid = PartitionMatroid([(fac[:3], 1), (fac[3:], 1)])
    cinst = ColorfulInstance(
        base=inst, colors={p: 1 + p % 2 for p in inst.clients}, budgets=budgets
    )
    params, kw = params or lossless_params(inst), dict(seed=1, rounds=1)
    solves = [
        lambda: solve_with_outliers(inst, params, solver, **kw),
        lambda: colorful_solve(cinst, params, solver, **kw),
        lambda: matroid_median_solve(inst, matroid, params, solver, **kw),
        lambda: colorful_matroid_solve(cinst, matroid, params, solver, **kw),
    ]
    return inst, matroid, solves


def test_benchmark_trace_sees_every_layer(rng, monkeypatch):
    # each solve entry point must still call its layers through the wrapped
    # module names, or a traced benchmark run loses their spans
    tracing = _benchmark_tracing()
    inst, matroid, solves = _four_solves(rng, SolverHandle.exact())
    scored = {sid: [] for sid in range(4)}  # the centers of each rescore, per solve
    evaluate = reduction.evaluate_candidate

    def recorded(C, *args):
        scored[sid].append(tuple(C))  # ``sid``: the solve that is running
        return evaluate(C, *args)

    monkeypatch.setattr(reduction, "evaluate_candidate", recorded)
    tracer, results = tracing.Tracer(), []
    with tracer.installed(matroid):
        for sid, solve in enumerate(solves):
            with tracer.span("solve", sid):
                results.append(solve())
    _, problems = tracing.layer_metrics(tracer, {sid: len(inst.clients) for sid in range(4)})
    assert problems == []
    layers = {"baseline", "rings", "build", "enumerate", "blackbox", "rescore"}
    for sid in range(4):
        root = next(
            i for i, s in enumerate(tracer.spans) if s.name == "solve" and s.solve_id == sid
        )
        kids = [s for s in tracer.spans if s.parent == root]
        assert layers <= {s.name for s in kids}, sid
        # one `evaluate_candidate` span per rescored candidate, each distinct
        # in the solve's one round
        rescores = [s for s in kids if s.name == "rescore"]
        assert {s.func for s in rescores} == {"evaluate_candidate"}, sid
        assert all(s.info.get("candidate") for s in rescores), sid
        assert len(rescores) == len(scored[sid]) == len(set(scored[sid])), sid
    assert len(scored[0]) == results[0].candidates_evaluated


def _report_bytes(result):
    rep = report_to_dict(result) if isinstance(result, ReductionReport) else None
    return json.dumps(rep or solution_to_dict(result))


@pytest.mark.parametrize("solver", [SolverHandle.exact(), SolverHandle.local_search()])
def test_benchmark_trace_leaves_reports_unchanged(rng, solver):
    # traced, every enumerator's stream reaches `_run_rounds` as an iterator of
    # rows; the reports must not change by a byte
    tracing = _benchmark_tracing()
    _, matroid, solves = _four_solves(rng, solver, budgets=(2, 1), params=practical(3))

    untraced = [_report_bytes(solve()) for solve in solves]
    tracer, traced = tracing.Tracer(), []
    with tracer.installed(matroid):
        for sid, solve in enumerate(solves):
            with tracer.span("solve", sid):
                traced.append(_report_bytes(solve()))
    assert traced == untraced
    assert {s.func for s in tracer.spans} >= {
        "enumerate_outlier_subsets", "enumerate_colorful_subsets"
    }
