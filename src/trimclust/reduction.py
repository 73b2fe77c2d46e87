"""The main driver: enumerate coreset outlier subsets, solve each outlier-free
instance with the black-box solver, and keep the candidate that scores best on
the original instance.

`_run_rounds` is the one driver behind every solve entry point, here and in
`extensions`.  It checks the arguments, builds the candidate space (exact
black box only), runs the baseline and the ring partition, and then the
rounds; the entry points only choose its pieces: the baseline, the coreset
flavor, the subset stream, the candidate space, the black box and the
objective.

Candidate selection always re-evaluates centers on the full original instance
(cheap), never on coreset costs, so sampling noise can degrade quality but
never soundness: the returned solution is feasible and its cost is the true
trimmed cost of its centers.

Both outlier-free black boxes answer a round in one batched pass, because a
row's cost terms do not depend on which other rows are evicted: the cost of
evicting T is a sum over all rows minus ``t[T0] + t[T1] + ...``, added in T's
own order.  All subsets are one ``(n_T, width)`` index array (`_padded`),
shorter subsets padded with the index of a zero row that each per-row term
array carries past its real rows, so a round is one numpy gather-sum
(`_evicted_sums`) whatever its subset sizes.  It is worked through in row
blocks of about ``_BLOCK_ELEMENTS`` costs, which bounds the extra memory by
the block and not by the number of subsets.

* Exact (`per_subset_best_exact`): per chunk of candidate sets the terms are
  the weighted minima ``w * min_d``, and only the distinct winning candidates
  are unranked into center tuples.  It returns the per-subset answers except
  where two candidates' costs differ only by rounding.
* Single-swap local search (`per_subset_local_search`): every subset starts
  from the same state, so the subsets search in lockstep, grouped by their
  current centers, and the terms are each row's cost under every swap.  A
  subset whose next step is not decided beyond a rounding margin runs the
  kernel itself, so the answers are exactly those of one call per subset.

The two engines serve every variant: a matroid gives the exact engine its
bases as candidates, and local search an independence test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable, Iterator, Sequence

import numpy as np

from .coreset import (
    BaselineResult,
    CoresetParams,
    RingPartition,
    WeightedCoreset,
    baseline_solve,
    build_augmented_instance,
    build_coreset,
    ring_partition,
)
from .metric import (
    DistanceOracle,
    MetricInstance,
    PointId,
    Solution,
    farthest_points,
    trimmed_cost,
)
from .rng import TAG_ROUND, generator_for
from .solvers import (
    CandidateSpace,
    SolverHandle,
    _cost_block,
    _greedy_basis,
    _local_search,
    _refuse_over_budget,
    _swap_basis,
    _warn_iteration_cap,
    solve_outlier_free,  # noqa: F401  (the benchmark's tracer wraps it here by name)
)

DEFAULT_FAILURE_TARGET = 0.05

# cap on elements of one (subsets x candidate-sets) cost block of the batched
# exact engine; much larger blocks raise peak memory and run no faster
_BLOCK_ELEMENTS = 65_536


def default_rounds(failure_target: float = DEFAULT_FAILURE_TARGET) -> int:
    """Repetitions needed to push a constant per-round failure odds below target."""
    return max(1, math.ceil(math.log2(1.0 / failure_target)))


def enumerate_outlier_subsets(cs: WeightedCoreset, m: int) -> Iterator[tuple[int, ...]]:
    """All entry-index subsets of size 0..m, sizes ascending, lexicographic within size.

    Indices refer to ``cs.union`` entries; evicting an entry removes its whole
    weight.  The order is stable across runs.
    """
    n = len(cs.union)
    if m > n:
        raise ValueError(f"m={m} exceeds the {n} coreset entries")
    return chain.from_iterable(combinations(range(n), size) for size in range(m + 1))


def evaluate_candidate(
    C: Sequence[PointId], inst: MetricInstance
) -> tuple[float, tuple[PointId, ...]]:
    """Trimmed cost of C on the original instance and the evicted clients."""
    cost = trimmed_cost(inst.dist, inst.clients, C, inst.m, inst.z)
    outliers = farthest_points(inst.dist, inst.clients, C, inst.m, inst.z)
    return cost, outliers


def _padded(subsets: Sequence[tuple[int, ...]], n: int) -> np.ndarray:
    """One ``(n_T, width)`` array of entry indices, a subset per row.

    ``width`` is the largest subset size (at least 1); shorter subsets are
    padded with index ``n``, the zero row that every per-row cost array
    carries past its ``n`` real rows.
    """
    sizes = np.fromiter(map(len, subsets), dtype=np.intp, count=len(subsets))
    rows = np.full((len(subsets), max(1, sizes.max(initial=0))), n, dtype=np.intp)
    rows[np.arange(rows.shape[1]) < sizes[:, None]] = np.fromiter(
        chain.from_iterable(subsets), dtype=np.intp, count=int(sizes.sum())
    )
    return rows


def _evicted_sums(
    full: np.ndarray, per_row: np.ndarray, pos: np.ndarray, rows: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``full - (per_row[T0] + per_row[T1] + ...)`` for each subset T.

    ``rows`` holds one subset per row, padded with the index of the zero last
    row of ``per_row`` (see `_padded`), and ``pos`` its positions.  The
    evicted rows are added in T's own order, then the padding's +0.0 terms,
    so each cost is bit-identical to one summed over T alone (the empty
    subset costs ``full - 0.0 == full``).  Yields ``(positions, costs)``
    blocks of about ``_BLOCK_ELEMENTS`` costs, so memory stays bounded
    whatever the number of subsets.
    """
    per = max(1, _BLOCK_ELEMENTS // len(full))
    for lo in range(0, len(pos), per):
        block = rows[lo : lo + per]
        removed = per_row[block[:, 0]]
        for col in range(1, block.shape[1]):
            removed += per_row[block[:, col]]
        yield pos[lo : lo + per], np.subtract(full, removed, out=removed)


def per_subset_best_exact(
    dist: DistanceOracle,
    points: Sequence[PointId],
    weights: Sequence[float],
    space: CandidateSpace,
    z: float,
    subsets: Sequence[tuple[int, ...]],
    budget: int,
) -> list[tuple[PointId, ...]]:
    """Exact black-box answers for every evicted subset, amortized.

    For each subset T the candidate set with the least weighted cost of
    ``S \\ T`` is found, with ties toward the earliest candidate in
    enumeration order (the lexicographically smallest center tuple).  Raises
    SolverBudgetExceeded if the candidate space itself is too large.

    Per candidate chunk, ``wm = w * min_d`` holds every entry's weighted
    distance to every candidate set, plus one zero row at index ``n`` =
    ``len(points)``, and the cost of T is ``w @ min_d - (wm[T0] + wm[T1] +
    ...)``, the evicted rows added in T's own order.  All subsets are one
    gather-sum over the `_padded` ``(n_T, width)`` index array, whose padding
    picks the zero row, taken in row blocks of about ``_BLOCK_ELEMENTS``
    costs so memory stays bounded whatever the number of subsets.  Only the
    distinct winning candidates are unranked.
    """
    _refuse_over_budget(space, budget)
    if space.count == 0:
        raise ValueError("empty candidate space")
    d = dist.pairwise(points, space.col_ids)
    if z != 1.0:
        d = d**z
    w = np.asarray(weights, dtype=float)
    rows = _padded(subsets, len(w))
    every = np.arange(len(subsets))
    best_cost = np.full(len(subsets), np.inf)
    best_idx = np.full(len(subsets), -1, dtype=np.int64)
    offset = 0
    for chunk in space.chunks(len(points)):
        min_d = d[:, chunk].min(axis=2)  # (n_points, chunk_size)
        full = w @ min_d
        wm = np.zeros((len(w) + 1, len(full)))
        np.multiply(w[:, None], min_d, out=wm[:-1])
        for p, costs in _evicted_sums(full, wm, every, rows):
            j = costs.argmin(axis=1)
            vals = costs[np.arange(len(j)), j]
            better = vals < best_cost[p]
            best_cost[p[better]] = vals[better]
            best_idx[p[better]] = offset + j[better]
        offset += chunk.shape[0]
    winners, which = np.unique(best_idx, return_inverse=True)
    if len(winners) and winners[0] < 0:
        raise ValueError("no candidate center set has a finite cost")
    centers = [space.centers_at(int(i)) for i in winners]
    return [centers[i] for i in which.tolist()]


def _swap_terms(D: np.ndarray, current: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Every row's cost under each single swap of ``current``, and under ``current``.

    Column ``pos * len(outside) + j`` holds the row's cost once
    ``current[pos]`` is swapped for column ``outside[j]``, in `_local_search`'s
    order; the last column holds its cost under ``current``.  Both come from
    `_swap_basis`, as the kernel's do, so they are bit-identical to the
    kernel's own terms.  One zero row follows the ``len(D)`` rows of ``D``,
    for the padding of `_padded`.  The kernel sums one position at a time and
    never holds all ``k`` blocks, which matters on the baseline's large block.
    """
    d1, outside, fallbacks = _swap_basis(D, current)
    n_out = len(outside)
    d_out = D[:, outside]
    terms = np.zeros((D.shape[0] + 1, len(current) * n_out + 1))
    for pos, fallback in enumerate(fallbacks):
        np.minimum(fallback[:, None], d_out, out=terms[:-1, pos * n_out : (pos + 1) * n_out])
    terms[:-1, -1] = d1
    return terms, outside


def per_subset_local_search(
    D: np.ndarray,
    subsets: Sequence[tuple[int, ...]],
    k: int,
    handle: SolverHandle,
    independent: Callable[[list[int]], bool] | None = None,
) -> list[tuple[int, ...]]:
    """Single-swap local search answers for every evicted subset, in lockstep.

    ``D`` is the weighted, powered cost block of all coreset entries (rows)
    to the sorted facilities (columns).  For each subset T the result is the
    column tuple that ``_local_search(D[keep], k, handle,
    independent=independent)`` returns from its cold start, where ``keep``
    drops T's rows; ``independent`` tests a column set (``None``: no test).

    Every subset starts from the same greedy basis, so the subsets still
    searching share the iteration count and fall into a few states (center
    tuples).  Per state the per-row swap terms of `_swap_terms` and their
    column sums ``full`` over the ``len(D)`` real rows are computed once; T's
    swap costs and its current cost are then ``full`` minus T's rows, one
    gather-sum over the state's rows of the `_padded` subset array (padding
    picks the zero row of the terms), as in `per_subset_best_exact`.
    Whether a swap is allowed depends only on the state, so each swap is
    tested once per state, and a dependent swap's sum is ``+inf``: best and
    runner-up below are taken over the allowed swaps, as the kernel takes its
    move.

    These costs differ from the kernel's own sums only by rounding.  Every
    compared value of either path is a sum of at most ``n`` = ``len(D)``
    terms, each at most its row's largest entry, so it lies within
    ``bound = (n + 1) * 2**-52 * sum_i max_j D[i, j]`` of the exact sum.
    A subset moves only if its best swap is below the bar
    ``(1 - threshold) * cost`` by more than ``tol = 256 * bound`` and the
    runner-up swap is more than ``tol`` above the best; it has converged only
    if its best swap is above the bar by more than ``tol``.  Each such
    decision is then the kernel's.  Any other subset (a tie, a near-tie,
    every row evicted, an all-zero block) gets the kernel itself, run on
    ``D[keep]`` from the cold start under the same test.  A subset still
    moving after ``handle.iteration_cap`` iterations warns as the kernel does.
    """
    n_cols = D.shape[1]
    if k == n_cols:
        return [tuple(range(n_cols))] * len(subsets)
    bound = (len(D) + 1) * 2.0**-52 * float(D.max(axis=1, initial=0.0).sum())
    tol = 256 * bound
    keep_frac = 1.0 - handle.improvement_threshold
    states: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}

    def state_id(cols) -> int:
        key = tuple(sorted(cols))
        if key not in index:
            index[key] = len(states)
            states.append(key)
        return index[key]

    def kernel(q: int) -> int:
        keep = np.ones(len(D), dtype=bool)
        keep[list(subsets[q])] = False
        return state_id(_local_search(D[keep], k, handle, independent=independent).centers)

    def swapped(current: tuple[int, ...], jj: int, outside: np.ndarray) -> list[int]:
        at, col = divmod(jj, len(outside))
        return [*current[:at], *current[at + 1 :], int(outside[col])]

    rows = _padded(subsets, len(D))
    start = state_id(_greedy_basis(n_cols, k, independent))
    state = np.full(len(subsets), start, dtype=np.intp)  # -1 once answered
    answer = np.full(len(subsets), -1, dtype=np.intp)
    for _ in range(handle.iteration_cap):
        moved = np.full(len(subsets), -1, dtype=np.intp)
        for s in np.unique(state[state >= 0]).tolist():
            current = states[s]
            terms, outside = _swap_terms(D, current)
            full = terms[:-1].sum(axis=0)
            if independent is not None:
                allowed = [
                    independent(swapped(current, jj, outside)) for jj in range(len(full) - 1)
                ]
                full[:-1][np.logical_not(allowed)] = np.inf
            mine = np.flatnonzero(state == s)
            for p, costs in _evicted_sums(full, terms, mine, rows[mine]):
                swaps, bar = costs[:, :-1], keep_frac * costs[:, -1]
                j = swaps.argmin(axis=1)
                best = swaps[np.arange(len(j)), j]
                if swaps.shape[1] > 1:
                    runner_up = np.partition(swaps, 1, axis=1)[:, 1]
                else:
                    runner_up = np.full(len(j), np.inf)
                done = best > bar + tol
                move = (best < bar - tol) & (runner_up > best + tol)
                answer[p[done]] = s
                for jj in np.unique(j[move]).tolist():
                    moved[p[move & (j == jj)]] = state_id(swapped(current, jj, outside))
                for q in p[~(done | move)].tolist():
                    answer[q] = kernel(q)
        state = moved
        if (state < 0).all():
            break
    capped = np.flatnonzero(state >= 0)
    answer[capped] = state[capped]
    for _ in capped:
        _warn_iteration_cap(handle, stacklevel=2)
    return [states[i] for i in answer.tolist()]


@dataclass(frozen=True)
class RoundRecord:
    round: int
    stream: tuple[int, ...]
    coreset_size: int
    coreset_lossless: bool
    best_cost: float | None
    evaluated: int


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of the full enumeration-and-select driver."""

    best: Solution
    candidates_evaluated: int
    rounds: int
    per_round: tuple[RoundRecord, ...]
    seed: int
    baseline: BaselineResult
    epsilon_factor: float  # the (1+eps)/(1-eps) quality factor the run aims for


def _run_rounds(
    inst: MetricInstance,
    params: CoresetParams,
    solver: SolverHandle,
    *,
    seed: int,
    rounds: int | None,
    space: Callable[[], CandidateSpace],
    baseline: Callable[[], BaselineResult],
    build_cs: Callable[[RingPartition, np.random.Generator], object],
    objective: Callable[[tuple[PointId, ...]], tuple[float, tuple[PointId, ...]]],
    enum_subsets: Callable[[object], Iterator[tuple[int, ...]]] | None = None,
    independent: Callable[[list[PointId]], bool] | None = None,
) -> ReductionReport:
    """The one solve driver behind every solve entry point.

    Checks the arguments, builds the candidate space when the exact black box
    will read it (so an over-budget space is refused before the baseline
    runs; local search never reads it), then runs the baseline, the ring
    partition and the rounds.  Every subset of every round gets an answer,
    and each distinct answer is rescored once per round with ``objective``;
    both engines return sorted center tuples, so answers are compared as
    returned.
    ``build_cs`` may return any coreset flavor exposing ``union`` (a
    WeightedPointSet) and ``lossless``; ``enum_subsets`` receives it whole so
    variant-specific enumeration (per-color budgets) can see the provenance,
    and defaults to every subset of at most m entries.
    The configured outlier-free solver answers a round in one batched call:
    `per_subset_best_exact` over the candidate space for the exact solver,
    and `per_subset_local_search` over one cost block of the facilities for
    local search, for every variant.  ``independent`` tests a set of facility
    ids (``None``: no constraint); local search only makes swaps it accepts.
    """
    if params.z != inst.z:
        raise ValueError(f"params.z={params.z} disagrees with instance z={inst.z}")
    rounds = default_rounds() if rounds is None else rounds
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if solver.kind == "exact":  # only the exact black box reads the candidate space
        cands = _refuse_over_budget(space(), solver.enumeration_budget)
    else:
        facs = CandidateSpace.subsets(inst.facilities, inst.k)
        test = None if independent is None else (
            lambda cols: independent([facs.col_ids[i] for i in cols])
        )
    base = baseline()
    rp = ring_partition(inst, base.centers, params.tau)
    if enum_subsets is None:
        enum_subsets = lambda cs: enumerate_outlier_subsets(cs, min(inst.m, len(cs.union)))

    best: Solution | None = None
    records: list[RoundRecord] = []
    total_eval = 0
    for r in range(rounds):
        rng = generator_for(seed, TAG_ROUND, r)
        cs = build_cs(rp, rng)
        union = cs.union
        pts, w = union.as_arrays()
        subsets = list(enum_subsets(cs))
        round_best: float | None = None
        evaluated = 0
        seen: set[tuple[PointId, ...]] = set()

        if solver.kind == "exact":
            answers = per_subset_best_exact(
                inst.dist, pts, w, cands, inst.z, subsets, solver.enumeration_budget
            )
        else:
            D = _cost_block(inst.dist, pts, w, facs.col_ids, inst.z)
            found = per_subset_local_search(D, subsets, facs.k, solver, test)
            ids = {c: tuple(facs.col_ids[i] for i in c) for c in set(found)}
            answers = [ids[c] for c in found]

        for T, centers in zip(subsets, answers):
            if centers in seen:
                continue
            seen.add(centers)
            cost, outliers = objective(centers)
            evaluated += 1
            if round_best is None or cost < round_best:
                round_best = cost
            if best is None or cost < best.cost:
                tag = f"r{r}:T{','.join(map(str, T))}"
                best = Solution(centers=centers, outliers=outliers, cost=cost, candidate_tag=tag)
        total_eval += evaluated
        records.append(
            RoundRecord(
                round=r,
                stream=(TAG_ROUND, r),
                coreset_size=len(union),
                coreset_lossless=cs.lossless,
                best_cost=round_best,
                evaluated=evaluated,
            )
        )
    eps = params.epsilon
    return ReductionReport(
        best=best,
        candidates_evaluated=total_eval,
        rounds=rounds,
        per_round=tuple(records),
        seed=seed,
        baseline=base,
        epsilon_factor=(1 + eps) / (1 - eps),
    )


def solve_with_outliers(
    inst: MetricInstance,
    params: CoresetParams,
    solver: SolverHandle,
    *,
    seed: int,
    rounds: int | None = None,
) -> ReductionReport:
    """Full pipeline: baseline, rings, coreset, subset enumeration, selection.

    Per round a fresh coreset is drawn (stream (TAG_ROUND, r) under ``seed``);
    the baseline and ring partition are deterministic and shared.  The best
    candidate across all rounds is returned, with its cost re-evaluated on the
    original instance.
    """
    return _run_rounds(
        inst, params, solver, seed=seed, rounds=rounds,
        space=lambda: CandidateSpace.subsets(inst.facilities, inst.k),
        baseline=lambda: baseline_solve(build_augmented_instance(inst)),
        build_cs=lambda rp, rng: build_coreset(rp, params, rng),
        objective=lambda C: evaluate_candidate(C, inst),
    )
