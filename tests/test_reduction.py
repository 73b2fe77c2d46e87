"""The enumeration-and-select driver against the exact oracle."""

from __future__ import annotations

import importlib.util
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from itertools import chain, combinations

import numpy as np
import pytest

from trimclust import (
    CoresetParams,
    EuclideanOracle,
    SolverHandle,
    baseline_solve,
    build_augmented_instance,
    build_coreset,
    default_rounds,
    enumerate_outlier_subsets,
    evaluate_candidate,
    exact_kmedian,
    exact_outlier_oracle,
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
from trimclust.reduction import (
    CandidateSpace,
    per_subset_best_exact,
    per_subset_local_search,
)
from trimclust.solvers import SolverBudgetExceeded, solve_outlier_free
from trimclust.bench import report_to_dict
from trimclust.rng import generator_for
from conftest import line_instance, random_instance, shared_point_instance


def practical(s, z=1.0, epsilon=0.5):
    return CoresetParams(epsilon=epsilon, mode="practical", practical_s=s, z=z)


def lossless_params(inst, **kw):
    return practical(len(inst.clients), z=inst.z, **kw)


# ---------------------------------------------------------------------------
# subset enumeration
# ---------------------------------------------------------------------------


def _coreset_for(inst, s, seed=1):
    aug = build_augmented_instance(inst)
    base = baseline_solve(aug, exact_budget=3000)
    rp = ring_partition(inst, base.centers, tau=1.0)
    return build_coreset(rp, practical(s, z=inst.z), generator_for(seed, 1, 0))


def test_enumeration_counts(rng):
    inst = random_instance(rng, 4, 2, k=1, m=2)
    cs = _coreset_for(inst, s=10)
    assert len(cs) == 4
    subsets = list(enumerate_outlier_subsets(cs, 2))
    assert len(subsets) == 1 + 4 + 6
    assert subsets[0] == ()
    assert subsets[1:5] == [(0,), (1,), (2,), (3,)]
    assert subsets[5] == (0, 1)  # lexicographic within each size


def test_enumeration_zero_outliers(rng):
    inst = random_instance(rng, 5, 2, k=1, m=0)
    cs = _coreset_for(inst, s=10)
    assert list(enumerate_outlier_subsets(cs, 0)) == [()]


def test_enumeration_stable(rng):
    inst = random_instance(rng, 6, 2, k=1, m=2)
    cs = _coreset_for(inst, s=10)
    assert list(enumerate_outlier_subsets(cs, 2)) == list(enumerate_outlier_subsets(cs, 2))


def test_enumeration_rejects_m_over_entries(rng):
    inst = random_instance(rng, 3, 2, k=1, m=2)
    cs = _coreset_for(inst, s=10)
    with pytest.raises(ValueError):
        list(enumerate_outlier_subsets(cs, 4))


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


def test_params_z_mismatch_rejected(rng):
    inst = random_instance(rng, 6, 3, k=1, m=1, z=2.0)
    with pytest.raises(ValueError):
        solve_with_outliers(inst, practical(5, z=1.0), SolverHandle.exact(), seed=1)


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


def test_batched_engine_matches_per_subset_calls(rng):
    # 1-D integer coordinates make both paths exact, hence identical
    for _ in range(5):
        inst = random_instance(rng, 12, 5, k=2, m=2, integer=True, dim=1)
        cs = _coreset_for(inst, s=4, seed=int(rng.integers(1 << 16)))
        pts, w = cs.union.as_arrays()
        subsets = list(enumerate_outlier_subsets(cs, inst.m))
        space = CandidateSpace.subsets(inst.facilities, inst.k)
        batched = per_subset_best_exact(
            inst.dist, pts, w, space, inst.z, subsets, budget=10**6
        )
        generic = list(
            _per_subset_generic(inst, pts, w, subsets, None, SolverHandle.exact())
        )
        assert batched == generic


def _reference_best_exact(dist, points, weights, space, z, subsets):
    """The per-subset loop the batched engine replaced, kept as its reference."""
    d = dist.pairwise(points, space.col_ids)
    if z != 1.0:
        d = d**z
    w = np.asarray(weights, dtype=float)
    best_cost = np.full(len(subsets), np.inf)
    best_idx = np.full(len(subsets), -1, dtype=np.int64)
    offset = 0
    for chunk in space.chunks(len(points)):
        min_d = d[:, chunk].min(axis=2)
        full = w @ min_d
        for ti, T in enumerate(subsets):
            if T:
                rows = list(T)
                costs = full - w[rows] @ min_d[rows, :]
            else:
                costs = full
            j = int(np.argmin(costs))
            if costs[j] < best_cost[ti]:
                best_cost[ti] = costs[j]
                best_idx[ti] = offset + j
        offset += chunk.shape[0]
    return [space.centers_at(int(i)) for i in best_idx]


def _with_twin_facilities(inst):
    """Move every second facility onto the one before it, so candidate sets tie."""
    coords = inst.dist.coords.copy()
    fac = inst.facilities
    for a, b in zip(fac[::2], fac[1::2]):
        coords[b] = coords[a]
    return replace(inst, dist=EuclideanOracle(coords))


def _plain_case(rng):
    inst = _with_twin_facilities(random_instance(rng, 16, 8, k=2, m=3, z=2.0))
    cs = _coreset_for(inst, s=3, seed=int(rng.integers(1 << 16)))
    return inst, cs, list(enumerate_outlier_subsets(cs, 3)), CandidateSpace.subsets(
        inst.facilities, inst.k
    )


def _colorful_case(rng):
    inst = _with_twin_facilities(random_instance(rng, 18, 7, k=2, m=3))
    cinst = ColorfulInstance(
        base=inst, colors={p: 1 + p % 2 for p in inst.clients}, budgets=(2, 1)
    )
    base = baseline_solve(build_augmented_instance(inst), exact_budget=3000)
    rp = ring_partition(inst, base.centers, tau=1.0)
    cs = build_colored_coreset(rp, cinst, practical(3), generator_for(int(rng.integers(99)), 1, 0))
    subsets = list(enumerate_colorful_subsets(cs, cinst.budgets))
    sizes = [len(T) for T in subsets]
    assert sizes != sorted(sizes)  # the stream is not in size order
    return inst, cs, subsets, CandidateSpace.subsets(inst.facilities, inst.k)


def _matroid_case(rng):
    inst = _with_twin_facilities(random_instance(rng, 16, 9, k=3, m=2))
    fac = inst.facilities
    matroid = PartitionMatroid([(fac[0:3], 1), (fac[3:6], 1), (fac[6:9], 1)])
    cs = _coreset_for(inst, s=3, seed=int(rng.integers(1 << 16)))
    space = CandidateSpace.from_center_sets(matroid_bases(matroid))
    return inst, cs, list(enumerate_outlier_subsets(cs, 2)), space


def _empty_case(rng):
    """Only the empty subset (m = 0): every row of the subset array is padding."""
    inst, cs, _, space = _plain_case(rng)
    return inst, cs, [()], space


@pytest.mark.parametrize("case", [_plain_case, _colorful_case, _matroid_case, _empty_case])
def test_grouped_engine_matches_per_subset_loop(rng, monkeypatch, case):
    # small chunks and blocks, so candidate chunks and row blocks are crossed
    monkeypatch.setattr(solvers, "_CHUNK_ELEMENTS", 150)
    monkeypatch.setattr(reduction, "_BLOCK_ELEMENTS", 20)
    for _ in range(4):
        inst, cs, subsets, space = case(rng)
        pts, _ = cs.union.as_arrays()
        # integer weights as a sampled coreset has, so evicted rows are scaled
        w = rng.integers(1, 6, size=len(pts)).astype(float)
        assert len(list(space.chunks(len(pts)))) > 2
        want = _reference_best_exact(inst.dist, pts, w, space, inst.z, subsets)
        got = per_subset_best_exact(inst.dist, pts, w, space, inst.z, subsets, 10**6)
        assert got == want


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
    inst, cs, subsets, _ = _colorful_case(rng)
    return inst, cs.union.as_arrays()[0], subsets, None


def _one_spot(rng):
    """Every point at one spot: an all-zero block, one swap to price."""
    inst = line_instance([0, 0, 0, 0], [0, 0], k=1, m=1, z=float(rng.choice([1.0, 2.0])))
    return inst, np.arange(4), [(), (0,), (1,), (2,), (3,)], None


def _empty_stream(rng):
    """`_plane` with only the empty subset (m = 0): every row is padding."""
    inst, pts, _, _ = _plane(rng)
    return inst, pts, [()], None


def _partition(inst, dealt):
    """k parts of capacity 1 over the sorted facilities.  Dealt to the parts
    in turn, the greedy basis is the first k columns, the start without a
    matroid too; in consecutive blocks, it is not."""
    space = CandidateSpace.subsets(inst.facilities, inst.k)
    cols, k = space.col_ids, space.k
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
    # small blocks, so row blocks are crossed; every kernel run is counted
    monkeypatch.setattr(reduction, "_BLOCK_ELEMENTS", 20)
    kernel, kernel_runs = reduction._local_search, []
    monkeypatch.setattr(
        reduction, "_local_search", lambda *a, **kw: kernel_runs.append(1) or kernel(*a, **kw)
    )
    builders = [
        lambda rng: _grid_line(rng, 1.0), lambda rng: _grid_line(rng, 0.1),
        _plane, _colorful_stream, _one_spot, _plane_partition, _grid_partition,
        _empty_stream,
    ]
    answered = fallbacks = all_columns = all_evicted = capped = 0
    masked = matroid_fallbacks = matroid_capped = 0
    for i in range(96):
        inst, pts, subsets, matroid = builders[i % len(builders)](rng)
        # integer weights as a sampled coreset has, so evicted rows are scaled
        w = rng.integers(1, 4, size=len(pts)).astype(float)
        solver = SolverHandle.local_search(
            inst.z,
            iteration_cap=1 if i % 3 == 0 else 200,
            improvement_threshold=float(rng.choice([1e-3, 0.25])),
        )
        facs = CandidateSpace.subsets(inst.facilities, inst.k)
        black_box = test = None
        if matroid is not None:
            black_box = lambda p, ww: extensions.matroid_local_search(
                inst.dist, p, ww, matroid, inst.z, solver
            )[0]
            test = lambda cols: matroid.is_independent([facs.col_ids[c] for c in cols])
        with warnings.catch_warnings(record=True) as old:
            warnings.simplefilter("always")
            want = list(_per_subset_generic(inst, pts, w, subsets, black_box, solver))
        kernel_runs.clear()
        with warnings.catch_warnings(record=True) as new:
            warnings.simplefilter("always")
            D = solvers._cost_block(inst.dist, pts, w, facs.col_ids, inst.z)
            got = per_subset_local_search(D, subsets, facs.k, solver, test)
        assert [tuple(facs.col_ids[c] for c in cols) for cols in got] == want, i
        assert [str(x.message) for x in new] == [str(x.message) for x in old], i
        answered += len(subsets) - len(kernel_runs)
        fallbacks += len(kernel_runs)
        all_columns += facs.k == len(facs.col_ids)
        all_evicted += max(map(len, subsets)) == len(pts)
        capped += len(old) > 0
        if matroid is not None:
            matroid_fallbacks += len(kernel_runs)
            matroid_capped += len(old) > 0
            start = solvers._greedy_basis(len(facs.col_ids), facs.k, test)
            if not kernel_runs and start == list(range(facs.k)):
                # every subset searched in lockstep; from the same start
                # without the test, a different answer means the mask
                # decided a move
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    free = per_subset_local_search(D, subsets, facs.k, solver)
                masked += got != free
    assert fallbacks and answered  # both paths were taken ...
    assert all_columns and all_evicted and capped  # ... on every kind of input
    assert masked and matroid_fallbacks and matroid_capped  # ... under a matroid too


def test_theory_mode_pipeline(rng):
    # theory-mode sample sizes dwarf desk-scale rings, so the run is lossless
    # and the exact black box recovers the optimum
    inst = random_instance(rng, 12, 4, k=2, m=1)
    params = CoresetParams(epsilon=0.5, lam=0.1, mode="theory", z=inst.z)
    assert params.sample_size(inst.n, inst.k, inst.m) > len(inst.clients)
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
        assert space.centers_at(rank) == tuple(10 + i for i in combos[rank])


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


def test_benchmark_trace_sees_every_layer(rng):
    # each solve entry point must still call its layers through the wrapped
    # module names, or a traced benchmark run loses their spans
    tracing = _benchmark_tracing()
    inst = random_instance(rng, 10, 6, k=2, m=1)
    fac = inst.facilities
    matroid = PartitionMatroid([(fac[:3], 1), (fac[3:], 1)])
    cinst = ColorfulInstance(
        base=inst, colors={p: 1 + p % 2 for p in inst.clients}, budgets=(1, 0)
    )
    params, solver, kw = lossless_params(inst), SolverHandle.exact(), dict(seed=1, rounds=1)
    solves = [
        lambda: solve_with_outliers(inst, params, solver, **kw),
        lambda: colorful_solve(cinst, params, solver, **kw),
        lambda: matroid_median_solve(inst, matroid, params, solver, **kw),
        lambda: colorful_matroid_solve(cinst, matroid, params, solver, **kw),
    ]
    tracer = tracing.Tracer()
    with tracer.installed(matroid):
        for sid, solve in enumerate(solves):
            with tracer.span("solve", sid):
                solve()
    _, problems = tracing.layer_metrics(tracer, {sid: len(inst.clients) for sid in range(4)})
    assert problems == []
    layers = {"baseline", "rings", "build", "enumerate", "blackbox", "rescore"}
    for sid in range(4):
        root = next(
            i for i, s in enumerate(tracer.spans) if s.name == "solve" and s.solve_id == sid
        )
        assert layers <= {s.name for s in tracer.spans if s.parent == root}, sid
