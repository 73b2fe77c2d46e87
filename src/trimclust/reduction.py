"""The main driver: enumerate coreset outlier subsets, solve each outlier-free
instance with the black-box solver, and keep the candidate that scores best on
the original instance.

`_run_rounds` is the one driver behind every solve entry point, here and in
`extensions`.  It checks the arguments, builds the candidate space (exact
black box only), runs the baseline and the ring partition, and then the
rounds; the entry points only choose its pieces: the baseline, the coreset
flavor, the subset stream, the candidate space, the black box, the
independence test and the trimming groups (one per color).

Candidate selection always re-evaluates centers on the full original instance
(`evaluate_candidate`, one `trimmed_score` call), never on coreset costs, so
sampling noise can degrade quality but never soundness: the returned solution
is feasible and its cost is the true trimmed cost of its centers.

Both outlier-free black boxes answer a round in one batched pass, because a
row's cost terms do not depend on which other rows are evicted: the cost of
evicting T is a sum over all rows minus ``t[T0] + t[T1] + ...``, added in T's
own order.  A round's subsets are one ``(n_T, width)`` index array from
enumeration to rescoring (`enumerate_outlier_subsets`), shorter subsets
padded with the index ``n`` of a zero row that each per-row term array
carries past its ``n`` real rows, so a round is one numpy gather-sum
(`_evicted_sums`) whatever its subset sizes.  It is worked through in row
blocks of about ``_BLOCK_ELEMENTS`` costs, which bounds the extra memory by
the block and not by the number of subsets.  Each engine returns its
distinct answers once, with the index of every subset's answer (`Answers`),
and `_run_rounds` rescores each distinct answer once, in the order of its
first subset.

Before the gather-sum both engines drop the columns that cannot be any
subset's best (`_live_columns`).  A column's cost for T is its sum ``full``
minus at most ``width`` nonnegative terms, so it is at least ``lb = full -
top``, ``top`` the sum of its ``width`` largest terms, while no subset's best
exceeds ``U``, the least finite ``full``.  A column with ``lb > U + margin``
goes; the margin is ``_PRUNE_SLACK`` times the rounding bound of
`_rounding_bound`, so rounding never turns a dropped column into a best.  A
NaN ``lb`` keeps its column and a non-finite margin keeps them all, so
overflowing input is answered as without the prune.  The answers are the
same, bit for bit.

* Exact (`per_subset_best_exact`): per chunk of candidate sets the terms are
  the weighted minima ``w * min_d``, and only the distinct winning candidates
  are unranked into center tuples.  Its answers are the per-subset ones
  except where two candidates' costs differ only by rounding.
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
    trimmed_score,
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


def _combinations(n: int, size: int) -> np.ndarray:
    """Every ``size``-subset of ``range(n)`` (``size <= n``), one increasing
    row each, in lexicographic order.

    Built a column at a time: each row repeats once per value its next
    column can take, in increasing order.
    """
    rows, last = np.empty((1, 0), dtype=np.intp), np.full(1, -1, dtype=np.intp)
    for col in range(size):
        counts = n - size + col - last  # the next value runs over last + 1 .. n - size + col
        ends = np.cumsum(counts)
        step = np.arange(ends[-1], dtype=np.intp) - np.repeat(ends - counts, counts)
        last = np.repeat(last + 1, counts) + step
        rows = np.column_stack([np.repeat(rows, counts, axis=0), last])
    return rows


def _up_to(n: int, cap: int, width: int, pad: int) -> np.ndarray:
    """Every subset of ``range(n)`` of size 0..cap, in (size, lexicographic)
    order, one per row of ``width`` columns, padded with ``pad``."""
    blocks = [_combinations(n, size) for size in range(cap + 1)]
    rows = np.full((sum(map(len, blocks)), width), pad, dtype=np.intp)
    lo = 0
    for size, block in enumerate(blocks):
        rows[lo : lo + len(block), :size] = block
        lo += len(block)
    return rows


def enumerate_outlier_subsets(cs: WeightedCoreset, m: int) -> np.ndarray:
    """All entry-index subsets of size 0..m, sizes ascending, lexicographic within size.

    Indices refer to ``cs.union`` entries; evicting an entry removes its whole
    weight.  One subset per row of an ``(n_T, max(1, m))`` intp array, its
    entries increasing, shorter subsets padded with ``n = len(cs.union)``.
    The order is stable across runs.
    """
    n = len(cs.union)
    if m > n:
        raise ValueError(f"m={m} exceeds the {n} coreset entries")
    return _up_to(n, m, max(1, m), n)


def evaluate_candidate(
    C: Sequence[PointId],
    inst: MetricInstance,
    groups: Sequence[tuple[np.ndarray | slice, int]] | None = None,
) -> tuple[float, tuple[PointId, ...]]:
    """Trimmed cost of C on the original instance and the evicted clients.

    ``groups`` are `trimmed_score`'s over ``inst.clients`` (a colorful
    instance's ``groups``); ``None`` evicts the ``inst.m`` farthest clients.
    """
    groups = [(slice(None), inst.m)] if groups is None else groups
    return trimmed_score(inst.dist, inst.clients, C, groups, inst.z)


@dataclass(frozen=True, eq=False)
class Answers:
    """A batched black box's answer for every subset of a round.

    Subset ``i`` (row ``i`` of the subset array) gets ``centers[which[i]]``;
    ``centers`` holds each distinct answer once.  ``len`` counts the subsets,
    as for a list of per-subset answers (the benchmark's tracer reads it).
    """

    centers: list[tuple[int, ...]]
    which: np.ndarray

    def __len__(self) -> int:
        return len(self.which)


def _evicted_sums(
    full: np.ndarray, per_row: np.ndarray, pos: np.ndarray, rows: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``full - (per_row[T0] + per_row[T1] + ...)`` for each subset T.

    ``rows`` holds one subset per row, padded with the index of the zero last
    row of ``per_row`` (see `enumerate_outlier_subsets`), and ``pos`` its
    positions.  The
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


# a column is dropped only if its lower bound exceeds the best upper bound by
# this many rounding bounds (`_rounding_bound`); in the local-search engine
# that is 4 * tol, so every dropped swap is more than tol above every best
_PRUNE_SLACK = 1024


def _rounding_bound(block: np.ndarray) -> float:
    """How far any float sum of at most ``n`` = ``len(block)`` entries of one
    column of ``block``, each at most its row's largest, can lie from the
    exact sum: ``(n + 1) * 2**-52 * sum_i max_j block[i, j]``.  ``inf`` or
    NaN when the block holds either, or its row maxima overflow."""
    return (len(block) + 1) * 2.0**-52 * float(block.max(axis=1, initial=0.0).sum())


def _live_columns(full: np.ndarray, terms: np.ndarray, width: int, bound: float) -> np.ndarray:
    """Indices of the columns that can still be some subset's best.

    Column ``c`` costs subset T ``full[c] - (terms[T0, c] + terms[T1, c] +
    ...)`` (see `_evicted_sums`), with nonnegative terms and at most
    ``width`` real rows in T, so no cost of ``c`` is below ``lb[c] =
    full[c] - top[c]``, where ``top[c]`` is the sum of the ``width`` largest
    of its real-row terms (every row but the last, zero one).  No subset's
    best is above ``U``, the least finite ``full``, since evicting rows never
    raises a float cost.  A column with ``lb > U + _PRUNE_SLACK * bound`` is
    strictly above every subset's best, even after rounding, so it is never
    a best, nor a runner-up within the slack.  Only those are dropped: a NaN
    ``lb`` keeps its column, a ``+inf`` ``full`` (a masked swap) drops it, an
    ``inf`` or NaN ``bound`` keeps every column, and so does a ``full`` with
    no finite entry.
    """
    finite = np.isfinite(full)
    if not finite.any():
        return np.arange(len(full))
    real = terms[:-1]
    rest = max(len(real) - width, 0)  # the rows below the top ``width``
    top = np.partition(real, rest, axis=0)[rest:].sum(axis=0) if rest else real.sum(axis=0)
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN bound, which keeps its column
        lb = full - top
    return np.flatnonzero(~(lb > full[finite].min() + _PRUNE_SLACK * bound))


class CostOverflowError(ValueError):
    """The float64 cost sums of the exact black box overflowed on finite input."""


def per_subset_best_exact(
    dist: DistanceOracle,
    points: Sequence[PointId],
    weights: Sequence[float],
    space: CandidateSpace,
    z: float,
    subsets: np.ndarray,
    budget: int,
) -> Answers:
    """Exact black-box answers for every evicted subset, amortized.

    For each subset T the candidate set with the least weighted cost of
    ``S \\ T`` is found, with ties toward the earliest candidate in
    enumeration order (the lexicographically smallest center tuple).  Raises
    SolverBudgetExceeded if the candidate space itself is too large.

    Per candidate chunk, ``wm = w * min_d`` holds every entry's weighted
    distance to every candidate set, plus one zero row at index ``n`` =
    ``len(points)``, and the cost of T is ``w @ min_d - (wm[T0] + wm[T1] +
    ...)``, the evicted rows added in T's own order.  All subsets are one
    gather-sum over the ``(n_T, width)`` subset array, whose padding ``n``
    picks the zero row, taken in row blocks of about ``_BLOCK_ELEMENTS``
    costs so memory stays bounded whatever the number of subsets.  Only the
    distinct winning candidates are unranked.

    Per chunk, only the columns of `_live_columns` enter the gather-sum, in
    a C-contiguous copy; the margin is ``_PRUNE_SLACK`` rounding bounds of
    ``wm`` (`_rounding_bound`), which covers the rounding of ``full``, the
    gather-sums and each column's ``top``.  A dropped column costs every
    subset more than its chunk's best, so the first least cost of every
    subset, ties included, is the one over all columns.  Distances are
    finite, so a subset left with no finite cost means the cost sums
    overflowed: CostOverflowError.
    """
    _refuse_over_budget(space, budget)
    if space.count == 0:
        raise ValueError("empty candidate space")
    d = _cost_block(dist, points, None, space.col_ids, z)
    w = np.asarray(weights, dtype=float)
    every = np.arange(len(subsets))
    best_cost = np.full(len(subsets), np.inf)
    best_idx = np.full(len(subsets), -1, dtype=np.int64)
    offset = 0
    for chunk in space.chunks(len(points)):
        min_d = d[:, chunk].min(axis=2)  # (n_points, chunk_size)
        full = w @ min_d
        wm = np.zeros((len(w) + 1, len(full)))
        np.multiply(w[:, None], min_d, out=wm[:-1])
        live = _live_columns(full, wm, subsets.shape[1], _rounding_bound(wm[:-1]))
        # a C-contiguous copy: the row gathers below read whole rows of it
        wm_live = np.ascontiguousarray(wm[:, live])
        for p, costs in _evicted_sums(full[live], wm_live, every, subsets):
            jk = costs.argmin(axis=1)
            vals = costs[np.arange(len(jk)), jk]
            better = vals < best_cost[p]
            best_cost[p[better]] = vals[better]
            best_idx[p[better]] = offset + live[jk[better]]
        offset += chunk.shape[0]
    winners, which = np.unique(best_idx, return_inverse=True)
    if len(winners) and winners[0] < 0:
        # the distance oracles accept only finite input, so only an overflow
        # of the cost sums leaves a subset with no finite cost (or a NaN one)
        raise CostOverflowError(
            "the weighted cost sums overflow float64, so some evicted subset has "
            "no finite cost; rescale the coordinates or distances"
        )
    return Answers([space.centers_at(int(i)) for i in winners], which)


def _swap_terms(D: np.ndarray, current: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Every row's cost under each single swap of ``current``, and under ``current``.

    Column ``pos * len(outside) + j`` holds the row's cost once
    ``current[pos]`` is swapped for column ``outside[j]``, in `_local_search`'s
    order; the last column holds its cost under ``current``.  Both come from
    `_swap_basis`, as the kernel's do, so they are bit-identical to the
    kernel's own terms.  One zero row follows the ``len(D)`` rows of ``D``,
    for the padding of the subset array.  The kernel sums one position at a
    time and never holds all ``k`` blocks, which matters on the baseline's
    large block.
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
    subsets: np.ndarray,
    k: int,
    handle: SolverHandle,
    independent: Callable[[list[int]], bool] | None = None,
) -> Answers:
    """Single-swap local search answers for every evicted subset, in lockstep.

    ``D`` is the weighted, powered cost block of all coreset entries (rows)
    to the sorted facilities (columns).  For each subset T (a row of the
    padded subset array) the answer is the column tuple that
    ``_local_search(D[keep], k, handle, independent=independent)`` returns
    from its cold start, where ``keep`` drops T's rows; ``independent`` tests
    a column set (``None``: no test).

    Every subset starts from the same greedy basis, so the subsets still
    searching share the iteration count and fall into a few states (center
    tuples).  Per state the per-row swap terms of `_swap_terms` and their
    column sums ``full`` over the ``len(D)`` real rows are computed once; T's
    swap costs and its current cost are then ``full`` minus T's rows, one
    gather-sum over the state's rows of the subset array (padding picks the
    zero row of the terms), as in `per_subset_best_exact`.
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

    Per state, only the swaps of `_live_columns` enter the gather-sum, under
    a margin of ``4 * tol`` and after the ``+inf`` mask, so a dependent swap
    is dropped whenever the margin is finite and some swap is allowed; the
    current column, which sets the bar, is always kept.  A dropped swap is
    more than ``tol`` above every subset's best, so it is neither the best
    nor a runner-up that could fail the runner-up test, and every decision
    above is the same as over all swaps.
    """
    n_cols = D.shape[1]
    if k == n_cols:
        return Answers([tuple(range(n_cols))], np.zeros(len(subsets), dtype=np.intp))
    bound = _rounding_bound(D)
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
        T = subsets[q]
        keep[T[T < len(D)]] = False  # the padding is not a row of D
        return state_id(_local_search(D[keep], k, handle, independent=independent).centers)

    def swapped(current: tuple[int, ...], jj: int, outside: np.ndarray) -> list[int]:
        at, col = divmod(jj, len(outside))
        return [*current[:at], *current[at + 1 :], int(outside[col])]

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
            # the swaps that can still be a best, then the current column
            live = _live_columns(full[:-1], terms[:, :-1], subsets.shape[1], bound)
            cols = np.append(live, len(full) - 1)
            mine = np.flatnonzero(state == s)
            for p, costs in _evicted_sums(
                full[cols], np.ascontiguousarray(terms[:, cols]), mine, subsets[mine]
            ):
                swaps, bar = costs[:, :-1], keep_frac * costs[:, -1]
                jk = swaps.argmin(axis=1)
                rows = np.arange(len(jk))
                best = swaps[rows, jk]
                # the second least swap, ties included: +inf over the least, then the least
                swaps[rows, jk] = np.inf
                runner_up = swaps.min(axis=1)
                j = live[jk]
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
    used, which = np.unique(answer, return_inverse=True)
    return Answers([states[i] for i in used.tolist()], which)


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
    enum_subsets: Callable[[object], np.ndarray] | None = None,
    independent: Callable[[Sequence[PointId]], bool] | None = None,
    groups: Sequence[tuple[np.ndarray, int]] | None = None,
) -> ReductionReport:
    """The one solve driver behind every solve entry point.

    Checks the arguments, builds the candidate space when the exact black box
    will read it (so an over-budget space is refused before the baseline
    runs; local search never reads it), then runs the baseline, the ring
    partition and the rounds.  Every subset of every round gets an answer,
    and each distinct answer is rescored once per round by `evaluate_candidate`
    under ``groups``, in the order of the first subset that gets it; that
    subset, its padding stripped, tags the candidate.
    ``build_cs`` may return any coreset flavor exposing ``union`` (a
    WeightedPointSet) and ``lossless``; ``enum_subsets`` receives it whole so
    variant-specific enumeration (per-color budgets) can see the provenance,
    and returns the round's padded subset array; it defaults to every subset
    of at most m entries.
    The configured outlier-free solver answers a round in one batched call:
    `per_subset_best_exact` over the candidate space for the exact solver,
    and `per_subset_local_search` over one cost block of the facilities for
    local search, for every variant.  ``independent`` tests a set of facility
    ids (``None``: no constraint); local search only makes swaps it accepts,
    and a rejected candidate raises RuntimeError.
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
        subsets = enum_subsets(cs)
        if not isinstance(subsets, np.ndarray):  # the benchmark's tracer hands back row by row
            subsets = np.stack(list(subsets))
        round_best: float | None = None

        if solver.kind == "exact":
            answers = per_subset_best_exact(
                inst.dist, pts, w, cands, inst.z, subsets, solver.enumeration_budget
            )
            found = answers.centers
        else:
            D = _cost_block(inst.dist, pts, w, facs.col_ids, inst.z)
            answers = per_subset_local_search(D, subsets, facs.k, solver, test)
            found = [tuple(facs.col_ids[i] for i in c) for c in answers.centers]

        _, first = np.unique(answers.which, return_index=True)
        for q in np.sort(first).tolist():
            centers = found[answers.which[q]]
            if independent is not None and not independent(centers):
                raise RuntimeError(f"candidate {centers} is not independent in the matroid")
            cost, outliers = evaluate_candidate(centers, inst, groups)
            if round_best is None or cost < round_best:
                round_best = cost
            if best is None or cost < best.cost:
                T = subsets[q]
                tag = f"r{r}:T{','.join(map(str, T[T < len(union)].tolist()))}"
                best = Solution(centers=centers, outliers=outliers, cost=cost, candidate_tag=tag)
        total_eval += len(first)
        records.append(
            RoundRecord(
                round=r,
                stream=(TAG_ROUND, r),
                coreset_size=len(union),
                coreset_lossless=cs.lossless,
                best_cost=round_best,
                evaluated=len(first),
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
    )
