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
carries past its ``n`` real rows, so a round is one set of numpy gathers
whatever its subset sizes.  It is worked through in blocks of subsets, which
bounds the extra memory by the block and not by the number of subsets.  The
two engines lay the gathers out differently (see the list below).  Each
engine returns its distinct answers once, with the index of every subset's
answer (`Answers`), both counted in one linear pass (`_distinct`), and
`_run_rounds` rescores each distinct answer once, in the order of its first
subset.

Before costing any subset both engines drop the columns that cannot be any
subset's best (`_live_columns`).  Against a reference column ``r``, the
first with the least finite ``full``, a column ``c`` costs every subset at
least ``gap = (full[c] - full[r]) - top`` more than ``r`` does, ``top`` the
sum of the ``width`` largest positive differences ``terms[i, c] -
terms[i, r]``.  A column whose gap exceeds the margin goes; the margin is
``_PRUNE_SLACK`` times the rounding bound of `_rounding_bound`, so rounding
never turns a dropped column into a best.  Two cheaper bounds screen the
block first, so the differences are taken only on the few columns left.  A
NaN gap keeps its column and a non-finite margin keeps them all, so
overflowing input is answered as without the prune.  The answers are the
same, bit for bit.

* Exact (`per_subset_best_exact`): per chunk of candidate sets the terms are
  the weighted minima ``w * min_d``, and only the distinct winning candidates
  are looked up as center tuples.  Few columns survive the prune and every
  subset needs only its first least cost, so the layout is column-major
  (`_first_minimum`): per block of ``_BLOCK_ELEMENTS`` subsets, each live
  column's costs are 1-D gathers from one contiguous row, and a running
  minimum keeps the first least one.  Its answers are the per-subset ones
  except where two candidates' costs differ only by rounding.
* Single-swap local search (`per_subset_local_search`): every subset starts
  from the same state, so the subsets search in lockstep, grouped by their
  current centers, and the terms are each row's cost under every swap.  Its
  decisions need each subset's least and second least swap, so the layout
  is row-major: one gather-sum of whole rows of the live swaps
  (`_evicted_sums`), in row blocks of about ``_BLOCK_ELEMENTS`` costs.  A
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
    _swap_basis,
    _up_to,
    _warn_iteration_cap,
    solve_outlier_free,  # noqa: F401  (the benchmark's tracer wraps it here by name)
)

DEFAULT_FAILURE_TARGET = 0.05

# elements of each temporary of a block: subsets per block of the exact engine,
# whose temporaries hold one value per subset, and costs per row block of
# `_evicted_sums`; larger blocks fall out of the cache and run slower
_BLOCK_ELEMENTS = 16_384


def default_rounds(failure_target: float = DEFAULT_FAILURE_TARGET) -> int:
    """Repetitions needed to push a constant per-round failure odds below target."""
    return max(1, math.ceil(math.log2(1.0 / failure_target)))


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


# a column is dropped only if it costs every subset this many rounding bounds
# (`_rounding_bound`) more than the reference column; in the local-search
# engine that is 4 * tol, so every dropped swap is more than tol above every best
_PRUNE_SLACK = 1024


def _rounding_bound(block: np.ndarray) -> float:
    """How far any float sum of at most ``n`` = ``len(block)`` finite entries
    of one column of ``block``, each at most its row's largest, can lie from
    the exact sum: ``(n + 1) * 2**-52 * sum_i max_j block[i, j]`` over the
    finite entries.  A sum with an inf or NaN term is inf or NaN on every
    path, so those entries need no margin; the bound is ``inf`` only when the
    finite row maxima overflow."""
    row_max = block.max(axis=1, initial=0.0)
    if not np.isfinite(row_max).all():
        row_max = np.where(np.isfinite(block), block, 0.0).max(axis=1, initial=0.0)
    return (len(block) + 1) * 2.0**-52 * float(row_max.sum())


def _live_columns(full: np.ndarray, terms: np.ndarray, width: int, bound: float) -> np.ndarray:
    """Indices of the columns that can still be some subset's best.

    Column ``c`` costs subset T ``full[c] - (terms[T0, c] + terms[T1, c] +
    ...)`` (see `_evicted_sums`), with nonnegative terms and at most
    ``width`` real rows in T (every row of ``terms`` but the last, zero
    one).  The reference ``r`` is the first column with the least finite
    ``full``; its terms are finite, since their sum is.  With ``d_i =
    terms[i, c] - terms[i, r]``, in exact arithmetic

        cost_T(c) - cost_T(r) = (F_c - F_r) - sum_{i in T} d_i >= gap[c],

    ``gap[c] = (F_c - F_r) - top[c]``, where ``top[c]`` sums the ``width``
    largest of ``max(d_i, 0)``, which no ``|T| <= width`` of the ``d_i`` can
    exceed.  A column with ``gap > _PRUNE_SLACK * bound`` is dropped.  Three
    passes, each a valid lower bound on the gap, drop columns; the cheap ones
    first, so the differences are taken only on the columns they keep:

    1. ``full - width * max_i terms[i, c] > full[r] + slack``, which reads
       the block once and allocates nothing of its size;
    2. ``(full - full[r]) - width * max(0, max_i d_i) > slack``, on the
       columns pass 1 keeps (the ``max(0, .)`` keeps it a lower bound when
       every ``d_i`` is negative: the empty subset costs ``c`` still
       ``F_c - F_r`` more than ``r``);
    3. the gap itself, by `np.partition`, on the columns pass 2 keeps.

    Rounding: ``bound`` bounds the error of a float sum of at most ``n``
    finite entries of one column, each at most its row's largest finite
    entry, and also one rounding of any value at most the sum ``S`` of those
    row maxima.  In pass 3 the computed ``full[c]`` and ``full[r]`` are each
    one bound off, the differences together one (each ``d_i`` is rounded
    once, relative to itself), the top sum one, and the two subtractions one
    each: 6 bounds.  Passes 1 and 2 take as many: ``full[c]``, ``full[r]``,
    the subtraction and the final comparison's term, plus the product
    ``width * x`` and, in pass 2, ``x``'s own rounding, each at most one
    bound whenever the pass drops, since ``width * x`` is then below
    ``full[c] <= S``.  A subset's computed cost is within 3 bounds of its
    exact cost (``full``, the gather-sum, the subtraction).  So a dropped
    column costs every subset more than ``(1024 - 6 - 6) * bound`` more
    than ``r`` does, after rounding too: it is never a best, nor a runner-up
    within the local search's ``tol = 256 * bound``.

    A NaN value keeps its column (``inf - inf``, where a column holds an
    ``inf`` term and an ``inf`` ``full``), a ``+inf`` ``full`` with finite
    terms (a masked swap) is dropped, an ``inf`` or NaN ``bound`` keeps
    every column, and so does a ``full`` with no finite entry.
    """
    finite = np.isfinite(full)
    if not finite.any():
        return np.arange(len(full))
    r = int(np.argmin(np.where(finite, full, np.inf)))
    slack = _PRUNE_SLACK * bound
    real = terms[:-1]
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN value, which keeps its column
        # pass 1
        live = np.flatnonzero(~(full - width * real.max(axis=0, initial=0.0) > full[r] + slack))
        # pass 2
        d = real[:, live] - real[:, r, None]
        over = full[live] - full[r]
        keep = ~(over - width * d.max(axis=0, initial=0.0) > slack)
        # pass 3
        live, d, over = live[keep], d[:, keep], over[keep]
        np.maximum(d, 0.0, out=d)
        rest = max(len(real) - width, 0)  # the rows below the top ``width``
        top = np.partition(d, rest, axis=0)[rest:].sum(axis=0) if rest else d.sum(axis=0)
        return live[~(over - top > slack)]


class CostOverflowError(ValueError):
    """The float64 cost sums of the exact black box overflowed on finite input."""


def per_subset_best_exact(
    dist: DistanceOracle,
    points: Sequence[PointId],
    weights: Sequence[float],
    space: CandidateSpace,
    z: float,
    subsets: np.ndarray,
) -> Answers:
    """Exact black-box answers for every evicted subset, amortized.

    For each subset T the candidate set with the least weighted cost of
    ``S \\ T`` is found, with ties toward the earliest candidate in
    enumeration order (the lexicographically smallest center tuple).  The
    candidate space was refused over budget when it was built.

    Per candidate chunk, ``wm = w * min_d`` holds every entry's weighted
    distance to every candidate set, plus one zero row at index ``n`` =
    ``len(points)``, and the cost of T is ``full - (wm[T0] + wm[T1] +
    ...)``, ``full`` the numpy column sum of the ``n`` real rows (no BLAS
    product, whose kernel and summation order may vary with the CPU), the
    evicted rows added in T's own order; the padding ``n`` of the
    ``(n_T, width)`` subset array picks the zero row.  Only the distinct
    winning candidates are looked up as center tuples.

    Per chunk, only the columns of `_live_columns` are costed; the margin is
    ``_PRUNE_SLACK`` rounding bounds of ``wm`` (`_rounding_bound`), which
    covers the rounding of ``full``, the gather-sums and each column's gap
    to the chunk's reference column.  A dropped column costs every subset
    more than the reference does, so the first least cost of every subset,
    ties included, is the one over all columns.  The live columns are copied
    into contiguous rows, and per block of ``_BLOCK_ELEMENTS`` subsets
    `_first_minimum` costs them one column at a time, in ascending order,
    with 1-D gathers; the temporaries hold a few values per subset of the
    block, whatever the number of columns.  A subset whose costs in a chunk
    include a NaN takes nothing from that chunk, as ``argmin`` would pick
    the NaN.  Distances are finite, so a subset left with no finite cost
    means the cost sums overflowed: CostOverflowError.
    """
    if space.count == 0:
        raise ValueError("empty candidate space")
    d = _cost_block(dist, points, None, space.col_ids, z)
    w = np.asarray(weights, dtype=float)
    best_cost = np.full(len(subsets), np.inf)
    best_idx = np.full(len(subsets), -1, dtype=np.intp)
    offset = 0
    for chunk in space.chunks(len(points)):
        min_d = d[:, chunk].min(axis=2)  # (n_points, chunk_size)
        wm = np.zeros((len(w) + 1, min_d.shape[1]))
        np.multiply(w[:, None], min_d, out=wm[:-1])
        full = wm[:-1].sum(axis=0)
        live = _live_columns(full, wm, subsets.shape[1], _rounding_bound(wm[:-1]))
        # one contiguous row per live column, which the 1-D gathers below read
        live_full, live_rows = full[live], np.ascontiguousarray(wm[:, live].T)
        for lo in range(0, len(subsets), _BLOCK_ELEMENTS):
            block = slice(lo, lo + _BLOCK_ELEMENTS)
            T = np.ascontiguousarray(subsets[block].T)  # one row per entry position
            val, arg = _first_minimum(live_full, live_rows, T)
            take = val < best_cost[block]
            np.copyto(best_cost[block], val, where=take)
            np.copyto(best_idx[block], offset + live[arg], where=take)
        offset += chunk.shape[0]
    if (best_idx < 0).any():
        # the distance oracles accept only finite input, so only an overflow
        # of the cost sums leaves a subset with no finite cost (or a NaN one)
        raise CostOverflowError(
            "the weighted cost sums overflow float64, so some evicted subset has "
            "no finite cost; rescale the coordinates or distances"
        )
    winners, which = _distinct(best_idx, space.count)
    return Answers([space.centers_at(i) for i in winners.tolist()], which)


def _first_minimum(
    full: np.ndarray, rows: np.ndarray, T: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each subset's least cost over the columns and the first column with
    it, as ``argmin`` picks them, except that a subset with a NaN cost gets
    NaN beside an arbitrary column: ``argmin`` would pick that NaN, which no
    comparison takes.

    Column ``c`` costs subset ``q`` ``full[c] - (rows[c, T[0, q]] + rows[c,
    T[1, q]] + ...)``, the terms added in T's own order as in
    `_evicted_sums`, so each cost is the row-major gather-sum's, bit for bit.
    The columns are taken in ascending order and a later one wins only if it
    is strictly less.  A NaN cost needs a non-finite ``full``: with a finite
    ``full`` every term is finite, and a sum of finite terms overflows to
    ``inf`` at worst, never to NaN; so only those columns are searched for
    NaN.
    """
    val = arg = nan = None
    for c, (f, row) in enumerate(zip(full.tolist(), rows)):
        cost = row.take(T[0])
        for t in T[1:]:
            cost += row.take(t)
        np.subtract(f, cost, out=cost)
        if not math.isfinite(f):
            nan = np.isnan(cost) if nan is None else nan | np.isnan(cost)
        if val is None:
            val, arg = cost, np.zeros(len(cost), dtype=np.intp)
        else:
            better = cost < val
            np.copyto(val, cost, where=better)
            np.copyto(arg, c, where=better)
    if nan is not None:
        val[nan] = np.nan
    return val, arg


def _distinct(values: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` for entries in
    ``range(size)``, by counting in ``O(len(values) + size)``: mark the
    entries present, then number them with a cumulative sum."""
    present = np.zeros(size, dtype=bool)
    present[values] = True
    rank = np.cumsum(present, dtype=np.intp) - 1
    return np.flatnonzero(present), rank[values]


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
    row-major gather-sum over the state's rows of the subset array (padding
    picks the zero row of the terms, `_evicted_sums`).
    Whether a swap is allowed depends only on the state, so each swap is
    tested once per state, and a dependent swap's sum is ``+inf``: best and
    runner-up below are taken over the allowed swaps, as the kernel takes its
    move.

    These costs differ from the kernel's own sums only by rounding.  Every
    finite compared value of either path is a sum of at most ``n`` =
    ``len(D)`` finite terms, each at most its row's largest finite entry, so
    it lies within ``bound`` (`_rounding_bound`) of the exact sum; a sum with
    an inf term is inf or NaN, and a NaN fails every test below.
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
    current column, which sets the bar, is always kept.  A dropped swap costs
    every subset more than ``tol`` above the reference swap, which is kept,
    so it is neither the best nor a runner-up that could fail the runner-up
    test, and every decision above is the same as over all swaps.
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
        for s in _distinct(state[state >= 0], len(states))[0].tolist():
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
    used, which = _distinct(answer, len(states))
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
    rounds = default_rounds() if rounds is None else rounds
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if solver.kind == "exact":  # only the exact black box reads the candidate space
        cands = space()
    else:
        fac = tuple(sorted(int(f) for f in inst.facilities))
        test = None if independent is None else (
            lambda cols: independent([fac[i] for i in cols])
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
            answers = per_subset_best_exact(inst.dist, pts, w, cands, inst.z, subsets)
            found = answers.centers
        else:
            D = _cost_block(inst.dist, pts, w, fac, inst.z)
            answers = per_subset_local_search(D, subsets, min(inst.k, len(fac)), solver, test)
            found = [tuple(fac[i] for i in c) for c in answers.centers]

        # the first subset of each answer (every answer has one), in subset order
        first = np.full(len(found), len(subsets))
        np.minimum.at(first, answers.which, np.arange(len(subsets)))
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
        space=lambda: CandidateSpace.subsets(inst.facilities, inst.k, solver.enumeration_budget),
        baseline=lambda: baseline_solve(build_augmented_instance(inst)),
        build_cs=lambda rp, rng: build_coreset(rp, params, rng),
    )
