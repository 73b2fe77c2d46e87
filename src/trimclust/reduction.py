"""The main driver: enumerate coreset outlier subsets, solve each outlier-free
instance with the black-box solver, and keep the candidate that scores best on
the original instance.

`_run_rounds` is the one driver behind every solve entry point, here and in
`extensions`.  It checks the arguments, builds the candidate space (exact
black box only), runs the baseline and the ring partition, and then the
rounds; the entry points only choose its pieces: the baseline, the coreset
flavor, the subset stream, the candidate space, the black box, the
matroid and the trimming groups (one per color).

Candidate selection always re-evaluates centers on the full original instance
(`evaluate_candidate`, one `trimmed_score` call), never on coreset costs, so
sampling noise can degrade quality but never soundness: the returned solution
is feasible and its cost is the true trimmed cost of its centers.

Both outlier-free black boxes answer a round in one batched pass, because a
row's cost terms do not depend on which other rows are evicted: the cost of
evicting T is a sum over all rows minus ``t[T0] + t[T1] + ...``, added in T's
own order.  A round's subsets are a `SubsetStream`
(`enumerate_outlier_subsets`, or the colorful one of `extensions`): its
length n_T is counted before any subset is built, so a round over the
solver's ``enumeration_budget`` is refused (`SolverBudgetExceeded`) before
it starts, and the subsets come in column-major blocks of at most
``_BLOCK_ELEMENTS``, written into one reused buffer.  Shorter subsets are
padded with the index ``n`` of a zero row that each per-row term array
carries past its ``n`` real rows, so a block is one set of numpy gathers
whatever its subset sizes.  Nothing of a round is n_T long, and the
candidate space is walked in blocks too (`solvers.CandidateSpace`), so
memory is bounded by the blocks, the subsets of size below m and the
candidates that survive the exact engine's prune.
The two engines lay the gathers out differently (see the list below).  Each
merges its per-block answers as it goes (`_FirstAnswers`) and returns each
distinct answer once, in the order of its first subset, with that subset's
row (`Answers`); `_run_rounds` rescores them in that order.  So the exact
engine may stop after the block in which every live column has answered.

Before costing any subset both engines drop the columns that cannot be any
subset's best (`_live_columns`).  Against a reference column ``r`` with a
finite ``full``, a column ``c`` costs every subset at least ``gap = (full[c]
- full[r]) - top`` more than ``r`` does, ``top`` the sum of the ``width``
largest positive differences ``terms[i, c] - terms[i, r]``.  A column whose
gap exceeds the margin goes; the margin is ``_PRUNE_SLACK`` times the
rounding bound of `_rounding_bound`, so rounding never turns a dropped
column into a best (the count is in the `solvers` module docstring).  Two
cheaper bounds screen the block first, so the differences are taken only on
the few columns left.  A NaN gap keeps its column and a non-finite margin
keeps them all, so overflowing input is answered as without the prune.  The
answers are the same, bit for bit.

* Exact (`per_subset_best_exact`): the terms are the weighted nearest
  distances of `argmin_trimmed`'s candidate blocks, and only the distinct
  winning candidates are looked up as center tuples.  Few columns survive
  the prune and every subset needs only its first least cost, so the layout
  is column-major (`_first_minimum`): per block of the stream, each live
  column's costs are 1-D gathers from one contiguous row, and a running
  minimum keeps the first least one; the pass ends once every live column
  has won, where no unread subset's cost can overflow.  Its answers are the
  per-subset ones except where two candidates' costs differ only by rounding.
* Single-swap local search (`per_subset_local_search`): every subset starts
  from the same state, so the subsets of a block search in lockstep, grouped
  by their current centers, and the terms are each row's cost under every
  swap, priced once per state in a round.  Its decisions need each subset's
  least and second least swap, so the layout is row-major: one gather-sum of
  whole rows of the live swaps (`_evicted_sums`), in row blocks of about
  ``_BLOCK_ELEMENTS`` costs.  A subset whose next step is not decided beyond
  a rounding margin runs the kernel itself, so the answers are exactly those
  of one call per subset.

The two engines serve every variant: a matroid gives the exact engine its
bases as candidates, and local search a `ColumnTest` of its swaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    _require_int,
    trimmed_score,
)
from .matroids import MatroidOracle
from .rng import TAG_ROUND, generator_for
from .solvers import (
    _BLOCK_ELEMENTS,
    _PRUNE_SLACK,
    CandidateSpace,
    ColumnTest,
    SolverBudgetExceeded,
    SolverHandle,
    SubsetStream,
    _candidate_blocks,
    _cost_block,
    _greedy_basis,
    _layer_writer,
    _local_search,
    _rounding_bound,
    _swap_basis,
    _up_to,
    _warn_iteration_cap,
    solve_outlier_free,  # noqa: F401  (the benchmark's tracer wraps it here by name)
)

DEFAULT_FAILURE_TARGET = 0.05


def default_rounds(failure_target: float = DEFAULT_FAILURE_TARGET) -> int:
    """Repetitions needed to push a constant per-round failure odds below target."""
    return max(1, math.ceil(math.log2(1.0 / failure_target)))


def enumerate_outlier_subsets(cs: WeightedCoreset, m: int) -> SubsetStream:
    """All entry-index subsets of size 0..m, sizes ascending, lexicographic within size.

    Indices refer to ``cs.union`` entries; evicting an entry removes its whole
    weight.  A `SubsetStream` of width ``max(1, m)``, padded with ``n =
    len(cs.union)``.  The order is stable across runs.

    The subsets of size below m are one `_up_to` array, whose largest size
    has C(n, m - 1) columns, copied into the blocks as they are.  Those of size
    m are written into each block from it by `solvers._layer_writer`.
    """
    n = len(cs.union)
    if m > n:
        raise ValueError(f"m={m} exceeds the {n} coreset entries")
    width = max(1, m)

    def writer():
        low = _up_to(n, max(0, m - 1), width, n)  # its last columns: the subsets of size m - 1
        write_m, below = _layer_writer(low, n, m), low.shape[1]

        def write(block, lo):
            cut = max(0, min(below - lo, block.shape[1]))  # subsets from ``low``
            block[:, :cut] = low[:, lo : lo + cut]
            if cut < block.shape[1]:  # the size-m subsets from rank lo + cut - below on
                write_m(block[:, cut:], lo + cut - below)

        return write

    count = sum(math.comb(n, size) for size in range(m + 1))
    return SubsetStream(count, width, writer)


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
    """A batched black box's distinct answers over a round's subsets.

    ``centers`` holds each distinct answer once, in the order of the first
    subset that gets it, and ``firsts[i]`` is that subset's padded row.  Of
    the round's ``count`` subsets the first ``costed`` were costed: all but
    where the exact engine stopped early (`per_subset_best_exact`).  ``len``
    counts the subsets, as for a list of per-subset answers (the
    benchmark's tracer reads it).
    """

    centers: list[tuple[int, ...]]
    firsts: list[np.ndarray]
    count: int
    costed: int

    def __len__(self) -> int:
        return self.count


class _FirstAnswers:
    """The distinct keys of per-subset answers given block by block, in the
    order of their first subset, with that subset's row and a count of the
    subsets; an engine's `Answers` are built from it (`answers`)."""

    def __init__(self):
        self.keys: list[int] = []
        self.firsts: list[np.ndarray] = []
        self.count = 0
        self._seen = np.zeros(0, dtype=bool)

    def add(self, block: np.ndarray, keys: np.ndarray) -> None:
        """Note ``keys[q]``, a nonnegative int, as the answer of the subset in
        column ``q`` of ``block``."""
        if (top := int(keys.max()) + 1) > len(self._seen):
            self._seen = np.concatenate([self._seen, np.zeros(top - len(self._seen), dtype=bool)])
        fresh = ~self._seen[keys]
        if fresh.any():
            at = np.full(len(self._seen), len(keys))  # each new key's first column
            np.minimum.at(at, keys[fresh], np.flatnonzero(fresh))
            new = np.flatnonzero(at < len(keys))
            for q in np.sort(at[new]).tolist():
                self.keys.append(int(keys[q]))
                self.firsts.append(block[:, q].copy())
            self._seen[new] = True
        self.count += len(keys)

    def answers(self, centers_of: Callable[[int], tuple[int, ...]]) -> Answers:
        return Answers([centers_of(key) for key in self.keys], self.firsts, self.count, self.count)


def _evicted_sums(
    full: np.ndarray, per_row: np.ndarray, pos: np.ndarray, T: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``full - (per_row[T0] + per_row[T1] + ...)`` for each subset T.

    ``T`` holds one subset per column, padded with the index of the zero last
    row of ``per_row`` (see `SubsetStream`), and ``pos`` its positions.  The
    evicted rows are added in T's own order, then the padding's +0.0 terms,
    so each cost is bit-identical to one summed over T alone (the empty
    subset costs ``full - 0.0 == full``).  Yields ``(positions, costs)``
    blocks of about ``_BLOCK_ELEMENTS`` costs, so memory stays bounded
    whatever the number of subsets.
    """
    per = max(1, _BLOCK_ELEMENTS // len(full))
    for lo in range(0, len(pos), per):
        removed = per_row[T[0, lo : lo + per]]
        for t in T[1:]:
            removed += per_row[t[lo : lo + per]]
        yield pos[lo : lo + per], np.subtract(full, removed, out=removed)


def _live_columns(
    full: np.ndarray, real: np.ndarray, width: int, bound: float, ref: tuple | None = None
) -> np.ndarray:
    """Indices of the columns that can still be some subset's best.

    Column ``c`` costs subset T ``full[c] - (real[T0, c] + real[T1, c] +
    ...)`` (see `_evicted_sums`), with nonnegative terms and at most
    ``width`` rows of ``real`` in T.  The reference ``r``, given as ``ref``
    (its ``full`` and its terms), is by default the first column with the
    least finite ``full``; its terms are finite, since their sum is.  With
    ``d_i = real[i, c] - real[i, r]``, in exact arithmetic

        cost_T(c) - cost_T(r) = (F_c - F_r) - sum_{i in T} d_i >= gap[c],

    ``gap[c] = (F_c - F_r) - top[c]``, where ``top[c]`` sums the ``width``
    largest of ``max(d_i, 0)``, which no ``|T| <= width`` of the ``d_i`` can
    exceed.  A column with ``gap > _PRUNE_SLACK * bound`` is dropped (the
    rounding count is in the `solvers` module docstring).  Three passes,
    each a valid lower bound on the gap, drop columns; the cheap ones first,
    so the differences are taken only on the columns they keep:

    1. ``full - width * max_i real[i, c] > F_r + slack``, which reads the
       block once and allocates nothing of its size;
    2. ``(full - F_r) - width * max(0, max_i d_i) > slack``, on the columns
       pass 1 keeps (the ``max(0, .)`` keeps it a lower bound when every
       ``d_i`` is negative: the empty subset costs ``c`` still ``F_c - F_r``
       more than ``r``);
    3. the gap itself, by `np.partition`, on the columns pass 2 keeps.

    A NaN value keeps its column (``inf - inf``, where a column holds an
    ``inf`` term and an ``inf`` ``full``), a ``+inf`` ``full`` with finite
    terms (a masked swap) is dropped, an ``inf`` or NaN ``bound`` keeps
    every column, and so does a reference with no finite ``full``.
    """
    if ref is None:
        r = int(np.argmin(np.where(np.isfinite(full), full, np.inf)))
        ref = full[r], real[:, r]
    f_r, t_r = ref
    if not math.isfinite(f_r):
        return np.arange(len(full))
    slack = _PRUNE_SLACK * bound
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN value, which keeps its column
        # pass 1
        live = np.flatnonzero(~(full - width * real.max(axis=0, initial=0.0) > f_r + slack))
        # pass 2
        d = real[:, live] - t_r[:, None]
        over = full[live] - f_r
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
    subsets: SubsetStream,
) -> Answers:
    """Exact black-box answers for every evicted subset, amortized.

    For each subset T the candidate set with the least weighted cost of
    ``S \\ T`` is found, with ties toward the earliest candidate in
    enumeration order (the lexicographically smallest center tuple).  The
    candidate space was refused over budget when it was built.

    The terms are the `_nearest` rows of the weighted cost block, each
    entry's ``min_{c in C} w_i d(i, c)**z``, which is ``w_i * min_d`` bit
    for bit (rounding ``w * x`` is monotone in ``x`` for ``w >= 0``).  A
    candidate's ``full`` is the sum of its row: the float `argmin_trimmed`
    gives it with nothing trimmed, whatever the block, and no BLAS product,
    whose kernel and summation order may vary with the CPU.  The cost of T
    is ``full`` minus T's terms, added in T's own order; the padding ``n`` =
    ``len(points)`` of the subset stream picks a zero term.

    The engine runs in two phases.  First, of each block of
    `solvers._candidate_blocks`, only the columns that `_live_columns` keeps
    against the best column so far (the first with the least finite
    ``full``) are copied out with their sets, and then the kept columns are
    pruned once more against the best of all; the margin is ``_PRUNE_SLACK``
    rounding bounds of the weighted cost block.  A dropped column costs
    every subset more than its reference, after rounding too, and a
    reference is kept or dropped against a later one, so the first least
    cost of every subset, ties included, is the one over all columns.  Then
    one pass over the stream's blocks costs the live columns, contiguous
    rows in ascending order, with `_first_minimum`, one column at a time
    with 1-D gathers, a later column winning only if it is strictly less;
    the temporaries hold a few values per subset of the block, whatever the
    number of subsets or columns.  Where ``full`` is ``inf`` and T evicts an
    ``inf`` term, ``full`` minus T's terms is ``inf - inf``; there T's cost
    is the sum of the rows it keeps, in row order, so only those subsets pay
    for the overflow.  Distances are finite, so a subset left with no finite
    cost means even a kept sum overflowed: CostOverflowError.

    The pass stops after the block in which every live column has answered
    some subset, as no later subset can add an answer or move a first one,
    if before the pass no unread subset can fail that check: (a) some live
    ``full`` is finite, and (b) ``full + 2 * width * max(row)`` is finite
    for every live column with a finite ``full``.  Such a column's terms are
    finite, being at most ``full``, so the float sum of at most ``width`` of
    them is below ``2 * width * max(row)`` and T's cost on it is finite: so
    is T's first minimum.  ``count`` stays the stream's length.
    """
    if space.count == 0:
        raise ValueError("empty candidate space")
    d = _cost_block(dist, points, weights, space.col_ids, z)
    bound = _rounding_bound(d)
    best, kept = (math.inf, None), []  # the best column so far: its full and its terms
    for block, near in _candidate_blocks(d, space.sets):
        full = near.sum(axis=1)
        j = int(np.argmin(full))
        if full[j] < best[0]:
            best = float(full[j]), near[j].copy()
        live = _live_columns(full, near.T, subsets.width, bound, best)
        kept.append((block[:, live].T, full[live], near[live]))
    del near  # a view that would keep the walk's buffer through the stream pass
    sets, full, rows = map(np.concatenate, zip(*kept))
    keep = _live_columns(full, rows.T, subsets.width, bound)
    sets, full, rows = sets[keep], full[keep], rows[keep]
    # one contiguous row per live column, and the zero term the padding picks
    rows = np.hstack([rows, np.zeros((len(rows), 1))])
    finite = np.isfinite(full)
    with np.errstate(over="ignore"):  # an overflow only keeps the walk going
        reach = full[finite] + 2 * subsets.width * rows[finite].max(axis=1)
    stop = finite.any() and np.isfinite(reach).all()  # may the walk stop early
    first = _FirstAnswers()
    per = min(_BLOCK_ELEMENTS, len(subsets))
    work = np.empty((3, per)), np.empty(per, dtype=np.intp), np.empty(per, dtype=bool)
    for block in subsets.blocks(_BLOCK_ELEMENTS):
        val, arg = _first_minimum(full, rows, block, work)
        if not np.isfinite(val).all():
            # the distance oracles accept only finite input, so only an
            # overflow of the cost sums leaves a subset with no finite cost
            raise CostOverflowError(
                "the weighted cost sums overflow float64, so some evicted subset has "
                "no finite cost; rescale the coordinates or distances"
            )
        first.add(block, arg)
        if stop and len(first.keys) == len(sets):
            break
    centers = lambda j: tuple(space.col_ids[i] for i in sets[j].tolist())
    return replace(first.answers(centers), count=len(subsets))


def _first_minimum(
    full: np.ndarray,
    rows: np.ndarray,
    T: np.ndarray,
    work: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Each subset's least cost over the columns and the first column with
    it, as ``argmin`` picks them.

    Column ``c`` costs subset ``q`` (column ``q`` of ``T``, a block of the
    subset stream) ``full[c] - (rows[c, T[0, q]] + rows[c, T[1, q]] +
    ...)``, the terms added in T's own order as in `_evicted_sums`, so each
    cost is the row-major gather-sum's, bit for bit.
    The columns are taken in ascending order and a later one wins only if it
    is strictly less.  That difference is NaN only where ``full[c]`` and an
    evicted term are both ``inf`` (with a finite ``full`` every term is
    finite, and a sum of finite terms overflows to ``inf`` at worst, never
    to NaN); such a subset is costed on that column by the sum of the rows
    it keeps (`_kept_sums`), which trims before it sums.

    Every temporary is a view of ``work``: three float rows, an intp row and
    a bool row, each at least one entry per subset, which a caller walking
    many blocks allocates once.  The returned arrays are views of it too.
    """
    n = T.shape[1]
    val, cost, term = work[0][:, :n]
    arg, better = work[1][:n], work[2][:n]
    arg[...] = 0
    for c, (f, row) in enumerate(zip(full.tolist(), rows)):
        out = cost if c else val
        np.take(row, T[0], out=out, mode="clip")  # "raise" would buffer
        for t in T[1:]:
            out += np.take(row, t, out=term, mode="clip")
        if math.isfinite(f):
            np.subtract(f, out, out=out)
        else:
            with np.errstate(invalid="ignore"):  # inf - inf, costed again below
                np.subtract(f, out, out=out)
            redo = np.flatnonzero(np.isnan(out))
            out[redo] = _kept_sums(row, T[:, redo])
        if c:
            np.less(cost, val, out=better)
            np.copyto(val, cost, where=better)
            np.copyto(arg, c, where=better)
    return val, arg


def _kept_sums(row: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Each subset's sum of ``row`` over the rows it keeps, added in row
    order.  ``T`` holds one subset per column, padded with the index of the
    zero last entry of ``row``; an evicted row adds ``+0.0``, which changes
    no sum of nonnegative terms."""
    kept = np.repeat(row[None, :], T.shape[1], axis=0)
    kept[np.arange(T.shape[1]), T] = 0.0
    return np.cumsum(kept, axis=1)[:, -1]


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
    test: ColumnTest | None = None,
) -> Answers:
    """Single-swap local search answers for every evicted subset, in lockstep.

    ``D`` is the weighted, powered cost block of all coreset entries (rows)
    to the sorted facilities (columns).  For each subset T of the stream the
    answer is the column tuple that
    ``_local_search(D[keep], k, handle, test)`` returns from its cold
    start, where ``keep`` drops T's rows; ``test`` is the `ColumnTest` of
    the columns (``None``: no constraint).

    Every subset starts from the same greedy basis, so the subsets of one
    block of the stream still searching share the iteration count and fall
    into a few states (center tuples); the blocks run one after another.  Per
    state the per-row swap terms of `_swap_terms` and their column sums
    ``full`` over the ``len(D)`` real rows are computed once in the round,
    and the pruned ones kept for any later iteration or block that meets the
    state; T's swap costs and its current cost are then ``full`` minus T's
    rows, one gather-sum over the state's subsets of the block (padding
    picks the zero row of the terms, `_evicted_sums`).
    Whether a swap is allowed depends only on the state, so the swaps are
    tested once per state, in one `ColumnTest.swaps` mask, and a dependent
    swap's sum is ``+inf``: best and runner-up below are taken over the
    allowed swaps, as the kernel takes its move.

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
    first = _FirstAnswers()
    if k == n_cols:
        for block in subsets.blocks(_BLOCK_ELEMENTS):
            first.add(block, np.zeros(block.shape[1], dtype=np.intp))
        return first.answers(lambda _: tuple(range(n_cols)))
    bound = _rounding_bound(D)
    tol = 256 * bound
    keep_frac = 1.0 - handle.improvement_threshold
    states: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    priced: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}

    def state_id(cols) -> int:
        key = tuple(sorted(cols))
        if key not in index:
            index[key] = len(states)
            states.append(key)
        return index[key]

    def kernel(T: np.ndarray) -> int:
        keep = np.ones(len(D), dtype=bool)
        keep[T[T < len(D)]] = False  # the padding is not a row of D
        return state_id(_local_search(D[keep], k, handle, test).centers)

    def swapped(current: tuple[int, ...], jj: int, outside: np.ndarray) -> list[int]:
        at, col = divmod(jj, len(outside))
        return [*current[:at], *current[at + 1 :], int(outside[col])]

    def pruned(s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """State ``s``'s live swaps, the columns outside it, and ``full`` and
        the terms of those swaps and then of the current column, priced the
        first time the state is met and kept for the rest of the round."""
        if s not in priced:
            current = states[s]
            terms, outside = _swap_terms(D, current)
            full = terms[:-1].sum(axis=0)
            if test is not None:
                full[:-1][~test.swaps(current, outside).ravel()] = np.inf
            # the swaps that can still be a best, then the current column
            live = _live_columns(full[:-1], terms[:-1, :-1], subsets.width, bound)
            cols = np.append(live, len(full) - 1)
            priced[s] = live, outside, full[cols], np.ascontiguousarray(terms[:, cols])
        return priced[s]

    start = state_id(_greedy_basis(n_cols, k, test))
    for block in subsets.blocks(_BLOCK_ELEMENTS):
        state = np.full(block.shape[1], start, dtype=np.intp)  # -1 once answered
        answer = np.full(block.shape[1], -1, dtype=np.intp)
        for _ in range(handle.iteration_cap):
            moved = np.full(block.shape[1], -1, dtype=np.intp)
            for s in np.flatnonzero(np.bincount(state[state >= 0])).tolist():
                live, outside, full, per_row = pruned(s)
                mine = np.flatnonzero(state == s)
                for p, costs in _evicted_sums(full, per_row, mine, block[:, mine]):
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
                        moved[p[move & (j == jj)]] = state_id(swapped(states[s], jj, outside))
                    for q in p[~(done | move)].tolist():
                        answer[q] = kernel(block[:, q])
            state = moved
            if (state < 0).all():
                break
        capped = np.flatnonzero(state >= 0)
        answer[capped] = state[capped]
        for _ in capped:
            _warn_iteration_cap(handle, stacklevel=2)
        first.add(block, answer)
    return first.answers(states.__getitem__)


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
    build_cs: Callable[[RingPartition, np.random.Generator], WeightedCoreset],
    enum_subsets: Callable[[WeightedCoreset], SubsetStream] | None = None,
    matroid: MatroidOracle | None = None,
    groups: Sequence[tuple[np.ndarray, int]] | None = None,
) -> ReductionReport:
    """The one solve driver behind every solve entry point.

    Checks the arguments, builds the candidate space when the exact black box
    will read it (so an over-budget space is refused before the baseline
    runs; local search never reads it), then runs the baseline, the ring
    partition and the rounds.  A round whose subsets outnumber
    ``solver.enumeration_budget`` is refused before any is built.  Every
    subset of every round gets an answer, and each distinct answer is
    rescored once per round by `evaluate_candidate` under ``groups``, in the
    order of the first subset that gets it; that subset, its padding
    stripped, tags the candidate.
    ``build_cs`` returns the round's `WeightedCoreset`, its rings keyed
    (center, band) or, split by color, (color, center, band);
    ``enum_subsets`` receives it whole so per-color budgets can read each
    entry's color, and returns the round's `SubsetStream`; it defaults to
    every subset of at most m entries.
    The configured outlier-free solver answers a round in one batched call:
    `per_subset_best_exact` over the candidate space for the exact solver,
    and `per_subset_local_search` over one cost block of the facilities for
    local search, for every variant.  Under a ``matroid`` (``None``: no
    constraint) local search only makes swaps its `ColumnTest` over the
    sorted facilities accepts, built once per solve, and every rescored
    candidate is checked by ``matroid.is_independent``; a dependent one
    raises RuntimeError.
    """
    _require_int(seed, "seed")
    rounds = default_rounds() if rounds is None else rounds
    if _require_int(rounds, "rounds") < 1:
        raise ValueError("rounds must be >= 1")
    if solver.kind == "exact":  # only the exact black box reads the candidate space
        cands = space()
    else:
        fac = tuple(sorted(int(f) for f in inst.facilities))
        test = None if matroid is None else ColumnTest(matroid, fac)
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
        if not isinstance(subsets, SubsetStream):  # the benchmark's tracer hands back row by row
            subsets = SubsetStream.from_rows(subsets)
        if len(subsets) > solver.enumeration_budget:
            raise SolverBudgetExceeded(
                f"{len(subsets)} outlier subsets exceed budget {solver.enumeration_budget}"
            )
        round_best: float | None = None

        if solver.kind == "exact":
            answers = per_subset_best_exact(inst.dist, pts, w, cands, inst.z, subsets)
            found = answers.centers
        else:
            D = _cost_block(inst.dist, pts, w, fac, inst.z)
            answers = per_subset_local_search(D, subsets, min(inst.k, len(fac)), solver, test)
            found = [tuple(fac[i] for i in c) for c in answers.centers]

        # in the order of each answer's first subset
        for centers, T in zip(found, answers.firsts):
            if matroid is not None and not matroid.is_independent(centers):
                raise RuntimeError(f"candidate {centers} is not independent in the matroid")
            cost, outliers = evaluate_candidate(centers, inst, groups)
            if round_best is None or cost < round_best:
                round_best = cost
            if best is None or cost < best.cost:
                tag = f"r{r}:T{','.join(map(str, T[T < len(union)].tolist()))}"
                best = Solution(centers=centers, outliers=outliers, cost=cost, candidate_tag=tag)
        total_eval += len(found)
        records.append(
            RoundRecord(
                round=r,
                stream=(TAG_ROUND, r),
                coreset_size=len(union),
                coreset_lossless=cs.lossless,
                best_cost=round_best,
                evaluated=len(found),
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
