"""Outlier-free solvers: exact enumeration and single-swap local search.

The exact solvers enumerate candidate center sets and are meant for desk-scale
instances and as ground truth in tests; enumeration is refused beyond an
explicit budget.  Local search is the classical single-swap heuristic, a
5-approximation for the median objective (z=1) and a plain heuristic for
z > 1.

Each kernel has one ids-level entry that builds the weighted, powered cost
block: `_exhaustive` (`argmin_trimmed`) and `_single_swap` (`_local_search`).
Any other local search is `reduction.per_subset_local_search`, which answers
many subsets at once.  Either search makes every swap, or only those that
keep the centers independent in a matroid (a heuristic; no factor is
claimed), as one `ColumnTest` mask per step: by part counts for a partition
matroid, by ``is_independent`` per set otherwise.

Every exhaustive search over center sets walks its `CandidateSpace` with
one generator, `_candidate_blocks`: blocks of about ``_TRIM_BLOCK_ELEMENTS``
(points x candidates) distances, whose `_nearest` (per position of the sets,
one 2-D gather of columns of the cost block, folded by `np.minimum`, which
is exact) fills one reused buffer.  `argmin_trimmed`, behind every oracle,
keeps the first minimum of the trimmed costs; the batched exact black box
`reduction.per_subset_best_exact` keeps each candidate's sum and the few
candidates that can be some subset's best.  Both drop candidates by a lower
bound first (`_contenders` over several blocks, `reduction._live_columns`),
so the answer, ties included, is the whole search's.

Both prunes drop a candidate only when its computed lower bound exceeds a
computed cost by more than ``_PRUNE_SLACK`` = 1024 bounds of
`_rounding_bound`.  In `_contenders` each computed trimmed cost is within
one bound of the exact one, and the computed lower bound within three (the
column sum, the products and their sum, the subtraction; they are below the
column sum whenever a candidate is dropped), so a dropped candidate's
computed cost exceeds another's.  In `reduction._live_columns` pass 3 takes
6 bounds: ``full[c]`` and ``full[r]`` one each, the differences together one
(each rounded once, relative to itself), the top sum one and the two
subtractions one each.  Passes 1 and 2 take as many: ``full[c]``,
``full[r]``, the subtraction and the final comparison's term, plus the
product ``width * x`` and, in pass 2, ``x``'s own rounding, each at most one
bound whenever the pass drops, since ``width * x`` is then below
``full[c]``.  A subset's computed cost is within 3 bounds of its exact cost
(``full``, the gather-sum, the subtraction).  So a dropped column costs
every subset more than ``1024 - 6 - 6`` bounds more than its reference,
after rounding too: never a best, nor a runner-up within the local search's
``tol`` of 256 bounds.

Subsets of ``range(n)`` come as a `SubsetStream`: counted before any is
built, then written block by block into one reused buffer, one subset per
column.  One rule writes them, `_layer_writer`: the subsets of one size
that start with ``a`` are ``a`` followed by a suffix of those one smaller.
It writes each size of `_up_to` (the outlier subsets of size below m, each
color's choices of the colorful stream), the size-m outlier subsets of
`reduction.enumerate_outlier_subsets` per block, and the k-subsets of the
facilities of `CandidateSpace.subsets` per block, so no search holds all
C(|F|, k) of them; a space over the enumeration budget is refused before
any is built.  Explicit sets, such as matroid bases, are one array
(``SubsetStream.from_rows``).
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterator, Sequence

import numpy as np

from .metric import DistanceOracle, PointId, _require_int

DEFAULT_ENUMERATION_BUDGET = 2_000_000

# (points x candidates) distances per block of `_candidate_blocks`; the
# temporaries of both exhaustive searches hold one block each, and larger
# blocks fall out of the cache
_TRIM_BLOCK_ELEMENTS = 65_536

# elements of each temporary of a block: subsets per block of a subset
# stream's pass and of the exact engine, whose temporaries hold one value per
# subset, and costs per row block of `reduction._evicted_sums`; larger blocks
# fall out of the cache and run slower
_BLOCK_ELEMENTS = 16_384

# a candidate or column is dropped only if its lower bound exceeds a computed
# cost by this many rounding bounds (`_rounding_bound`; the count is in the
# module docstring); in the local-search engine that is 4 * tol, so every
# dropped swap is more than tol above every best
_PRUNE_SLACK = 1024


class SolverBudgetExceeded(RuntimeError):
    """Raised when exhaustive enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class SolverHandle:
    """Configuration of the pluggable outlier-free solver.

    The handle carries no exponent and no approximation factor: every solve
    reads z from its instance, and the one stated guarantee is the
    baseline's ``BaselineResult.tau_guarantee``.  ``enumeration_budget``
    caps the exact solver's candidate center sets and, for either kind, the
    outlier subsets of one round of the reduction; both are counted and
    refused before any is built.
    """

    kind: str  # "exact" | "local_search"
    iteration_cap: int = 200
    improvement_threshold: float = 1e-3
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET

    def __post_init__(self):
        if self.kind not in ("exact", "local_search"):
            raise ValueError(f"unknown solver kind {self.kind!r}")
        if _require_int(self.iteration_cap, "iteration_cap") < 1:
            raise ValueError("iteration_cap must be positive")
        if _require_int(self.enumeration_budget, "enumeration_budget") < 1:
            raise ValueError("enumeration_budget must be positive")
        if not 0 < self.improvement_threshold < 1:
            raise ValueError("improvement_threshold must be in (0, 1)")

    @classmethod
    def exact(cls, enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET) -> "SolverHandle":
        return cls(kind="exact", enumeration_budget=enumeration_budget)

    @classmethod
    def local_search(
        cls, *, iteration_cap: int = 200, improvement_threshold: float = 1e-3
    ) -> "SolverHandle":
        return cls(
            kind="local_search",
            iteration_cap=iteration_cap,
            improvement_threshold=improvement_threshold,
        )


class SubsetStream:
    """Subsets of ``range(n)``, counted before any is built and built in blocks.

    ``len`` is the number of subsets, taken from the stream's definition
    (binomials, or a product of per-color counts) before any row exists.
    ``blocks(per)`` yields them in order as column-major ``(width, rows)``
    intp blocks of at most ``per`` subsets (by default ``_BLOCK_ELEMENTS``),
    one subset per column: its entries increasing, then any padding.  Every
    block of one pass is a view of one buffer that the next block
    overwrites, so a consumer copies what it keeps.  ``writer()`` starts a
    pass: it returns ``write(block, lo)``, which fills ``block`` with the
    subsets of ranks ``lo`` on.  Iterating the stream yields its subsets as
    rows instead, which is how the benchmark's tracer drains it; nothing in
    the library iterates rows.
    """

    def __init__(self, count: int, width: int, writer: Callable[[], Callable]):
        self.count = count
        self.width = width
        self._writer = writer

    def __len__(self) -> int:
        return self.count

    def blocks(self, per: int = _BLOCK_ELEMENTS) -> Iterator[np.ndarray]:
        per = min(per, self.count)
        write, buf = self._writer(), np.empty((self.width, per), dtype=np.intp)
        for lo in range(0, self.count, per):
            block = buf[:, : min(per, self.count - lo)]
            write(block, lo)
            yield block

    def __iter__(self) -> Iterator[np.ndarray]:
        for block in self.blocks():
            yield from block.T.copy()

    @classmethod
    def from_rows(cls, rows) -> "SubsetStream":
        """The stream of the given rows, one subset each, in the given order."""
        rows = np.stack(list(rows))

        def write(block, lo):
            block[...] = rows[lo : lo + block.shape[1]].T

        return cls(len(rows), rows.shape[1], lambda: write)


@dataclass(frozen=True, eq=False)
class CandidateSpace:
    """The center sets a solver may return: ``sets``, a `SubsetStream` of
    indices into ``col_ids``, one set per column of its blocks.

    Either every ``min(k, |F|)``-subset of the sorted facilities in
    lexicographic order (`subsets`, refused over budget before any is
    built, and written block by block), or given rows in the given order
    (``SubsetStream.from_rows``, used for matroid bases).
    """

    col_ids: tuple[PointId, ...]
    sets: SubsetStream

    @classmethod
    def subsets(
        cls, facilities: Sequence[PointId], k: int, budget: int = DEFAULT_ENUMERATION_BUDGET
    ) -> "CandidateSpace":
        ids = tuple(sorted(int(f) for f in facilities))
        n, size = len(ids), min(k, len(ids))
        if (count := math.comb(n, size)) > budget:
            raise SolverBudgetExceeded(f"{count} candidate center sets exceed budget {budget}")

        def writer():
            # of the j-subsets, only those of range(size - j, n), which the next size reads
            prev = np.empty((0, 1), dtype=np.intp)
            for j in range(1, size):
                prev, last = np.empty((j, math.comb(n - size + j, j)), dtype=np.intp), prev
                _layer_writer(last, n, j, size - j)(prev, 0)
            return _layer_writer(prev, n, size)

        return cls(col_ids=ids, sets=SubsetStream(count, size, writer))

    @property
    def count(self) -> int:
        return len(self.sets)


def _layer_writer(prev: np.ndarray, n: int, size: int, low: int = 0) -> Callable:
    """``write(out, r0)``, which writes the ``size``-subsets of ``range(low,
    n)`` of lexicographic ranks ``r0`` to ``r0 + out.shape[1] - 1`` into the
    ``(size, rows)`` ``out``, one increasing subset per column.

    The subsets that start with ``a`` are ``a`` followed by the ``(size -
    1)``-subsets of ``range(a + 1, n)``: the last ``C(n - a - 1, size - 1)``
    columns of ``prev[:size - 1]``, which holds the ``(size - 1)``-subsets of
    ``range(low + 1, n)`` or more, one per column in lexicographic order.  Per
    call the first entries are one `np.repeat` and the rest one copy per
    first entry; a subset of one entry is ``low`` plus its rank.
    """
    counts = (math.comb(n - a - 1, size - 1) for a in range(low, n - size + 1))
    ends = list(accumulate(counts)) if size > 1 else []

    def write(out: np.ndarray, r0: int) -> None:
        r1 = r0 + out.shape[1]
        if size <= 1:
            out[:] = np.arange(low + r0, low + r1)
            return
        first = i = bisect_right(ends, r0)
        b, lens = r0, []
        while b < r1:  # ranks b..e - 1 start with low + i
            e = min(r1, ends[i])
            src = prev.shape[1] - ends[i]  # the rank among them, counted from prev's end
            out[1:, b - r0 : e - r0] = prev[: size - 1, src + b : src + e]
            lens.append(e - b)
            b, i = e, i + 1
        out[0] = np.repeat(np.arange(low + first, low + i), lens)

    return write


def _up_to(n: int, cap: int, width: int, pad: int) -> np.ndarray:
    """Every subset of ``range(n)`` of size 0..cap (``cap <= min(n, width)``),
    in (size, lexicographic) order, one per column of ``width`` rows, padded
    with ``pad``: each size written whole from the one before
    (`_layer_writer`)."""
    counts = [math.comb(n, size) for size in range(cap + 1)]
    cols = np.full((width, sum(counts)), pad, dtype=np.intp)
    lo = 1  # the empty subset is the first column, all padding
    for size in range(1, cap + 1):
        write = _layer_writer(cols[:, lo - counts[size - 1] : lo], n, size)
        write(cols[:size, lo : lo + counts[size]], 0)
        lo += counts[size]
    return cols


def _cost_block(dist: DistanceOracle, points, weights, cols, z: float) -> np.ndarray:
    """Weighted d(p, c)**z, one row per point and one column per entry of ``cols``."""
    d = dist.pairwise(points, cols)
    if z != 1.0:
        d = d**z
    return d if weights is None else d * np.asarray(weights, dtype=float)[:, None]


def _rounding_bound(block: np.ndarray) -> float:
    """How far any float sum of at most ``n`` = ``len(block)`` finite entries
    of one column of ``block``, each at most its row's largest, can lie from
    the exact sum: ``(n + 1) * 2**-52 * sum_i max_j block[i, j]`` over the
    finite entries.  That covers a sum of one entry per row over any subset
    of the columns, as a candidate's trimmed cost in `argmin_trimmed` or a
    subset's cost in `reduction`'s engines, and one rounding of any value up
    to the sum of the row maxima.  A sum with an inf or NaN term is inf or
    NaN on every path, so those entries need no margin; the bound is ``inf``
    only when the finite row maxima overflow."""
    row_max = block.max(axis=1, initial=0.0)
    if not np.isfinite(row_max).all():
        row_max = np.where(np.isfinite(block), block, 0.0).max(axis=1, initial=0.0)
    return (len(block) + 1) * 2.0**-52 * float(row_max.sum())


def _nearest(dT: np.ndarray, sets: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each point's least distance to each candidate set, one C-contiguous
    row per column of ``sets`` (a block of a `CandidateSpace`'s stream) and
    one column per point: for ``dT`` the cost block transposed (one row per
    column), ``d[:, sets.T].min(axis=2).T``, whose layout it also has.  Per
    position of the sets (a row of ``sets``), one 2-D gather of
    rows of ``dT`` (columns of ``d``), folded by `np.minimum`; a minimum is
    exact, so these are ``min``'s floats.  ``out`` takes the result in
    ``out[0]`` and, for sets of two or more, each gather in ``out[1]``.  A
    caller that walks many blocks passes one, so that it reuses that memory
    instead of mapping fresh pages for every block.  Otherwise it is
    allocated as one array: freed as two halves, it lowered glibc's dynamic
    mmap threshold enough that the next solve's subset arrays were mapped
    afresh, about 1 ms a matroid solve of the `variants` benchmark.
    """
    if out is None:
        out = np.empty((min(2, len(sets)), sets.shape[1], dT.shape[1]))
    vals = np.take(dT, sets[0], axis=0, out=out[0], mode="clip")  # "raise" would buffer
    for pos in sets[1:]:
        np.minimum(vals, np.take(dT, pos, axis=0, out=out[1], mode="clip"), out=vals)
    return vals


def _candidate_blocks(
    d: np.ndarray, sets: SubsetStream
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(block, near)`` for each block of about ``_TRIM_BLOCK_ELEMENTS``
    (points x candidates) distances, in order: ``block`` the next sets of
    the stream ``sets``, one per column, and ``near`` its `_nearest` over
    the cost block ``d``.  Both are views of buffers that the next block
    overwrites, so a consumer copies what it keeps.  The stream writes about
    ``_BLOCK_ELEMENTS`` sets at a time, a whole number of blocks."""
    per = max(1, _TRIM_BLOCK_ELEMENTS // max(1, d.shape[0]))
    dT = np.ascontiguousarray(d.T)
    buf = np.empty((min(2, sets.width), min(per, len(sets)), d.shape[0]))
    for run in sets.blocks(per * max(1, _BLOCK_ELEMENTS // per)):
        for lo in range(0, run.shape[1], per):
            block = run[:, lo : lo + per]
            yield block, _nearest(dT, block, buf[:, : block.shape[1]])


def _trimmed_costs(vals: np.ndarray, groups) -> np.ndarray:
    """Each column's trimmed cost, ``vals`` one row per point and one
    contiguous column per candidate (a transposed `_nearest`), and the groups
    those of `argmin_trimmed`.  numpy sums a group of every row down each
    contiguous column, pairwise, and a gathered group row by row when it has
    two or more columns (pairwise when it has one); so a candidate's float
    does not depend on which other candidates share the call, as long as
    there are two or more of them."""
    costs = np.zeros(vals.shape[1])
    for rows, drop in groups:
        sub = vals[rows]
        keep = len(sub) - drop
        if keep <= 0:
            continue
        if drop == 0:
            costs += sub.sum(axis=0)
        else:
            costs += np.partition(sub, keep - 1, axis=0)[:keep].sum(axis=0)
    return costs


def _contenders(
    near: np.ndarray,
    block: np.ndarray,
    group_max: np.ndarray,
    drops: np.ndarray,
    best_cost: float,
    slack: float,
    groups,
) -> np.ndarray:
    """Indices of the candidates of one block (its columns) that may still
    be the first minimum, ascending; ``near`` is the block's `_nearest`,
    ``group_max[c, g]`` column ``c``'s largest distance in the ``g``-th group
    that drops rows, and ``drops[g]`` that group's drop.  A group's
    ``drop`` largest distances are each at most ``max_{i in g} d[i, c]`` for
    every center c of a candidate C, so

        cost(C) >= colsum(C) - sum_g drop_g * min_{c in C} max_{i in g} d[i, c],

    ``colsum`` the sum of C's nearest distances over every row.  A candidate
    whose bound exceeds ``U`` by more than ``slack`` is dropped, ``U`` the
    computed cost of the block's least-bound candidate or ``best_cost``,
    whichever is less (the rounding count is in the module docstring).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN bound keeps its candidate
        bound = near.sum(axis=1) - (drops * _nearest(group_max, block)).sum(axis=1)
    j = int(np.argmin(bound))
    least = min(best_cost, float(_trimmed_costs(near[[j, j]].T, groups)[0]))
    return np.flatnonzero(~(bound > least + slack) | np.isinf(bound))


def argmin_trimmed(
    d: np.ndarray,
    space: CandidateSpace,
    groups: Sequence[tuple[np.ndarray | slice, int]],
) -> tuple[PointId, ...]:
    """The ids of the candidate set of ``space`` with the least trimmed cost.

    ``d`` holds one row per point and one column per ``space.col_ids`` entry
    (already powered and weighted, so nonnegative).  Each group ``(rows,
    drop)`` keeps the ``len(rows) - drop`` smallest distances of its rows to
    the candidate set; a candidate's cost is the sum over groups, and the
    groups' rows cover every row of ``d``, as every caller's do.  Ties go to
    the earliest candidate in enumeration order.  A group of every row is
    passed as ``slice(None)``, so its rows are a view, not a copy.

    The space is walked by `_candidate_blocks`.  A space that fits in one
    block is trimmed whole (`_trimmed_costs`).  Otherwise only the
    candidates of a block that `_contenders` keeps, against the best so far,
    are trimmed, together and at least two columns at a time, so each one's
    float is the one it gets in a whole search of two or more candidates,
    and the first minimum, ties included, is that search's.
    """
    bounded = space.count * d.shape[0] > _TRIM_BLOCK_ELEMENTS
    if bounded:
        # a group that drops nothing adds no term to the bound (and 0 * inf is NaN)
        pruned = [(rows, drop) for rows, drop in groups if drop > 0]
        group_max = np.zeros((d.shape[1], len(pruned)))
        for g, (rows, _) in enumerate(pruned):
            group_max[:, g] = d[rows].max(axis=0, initial=0.0)
        drops = np.array([drop for _, drop in pruned], dtype=float)
        slack = _PRUNE_SLACK * _rounding_bound(d)
    best_cost, best = math.inf, None
    for block, near in _candidate_blocks(d, space.sets):
        live = range(block.shape[1])
        if bounded:
            live = _contenders(near, block, group_max, drops, best_cost, slack, groups)
            if len(live) == 0:
                continue
            # a lone survivor is trimmed twice: a gathered group of one
            # column would be summed pairwise, not row by row
            near = near[live if len(live) > 1 else np.repeat(live, 2)]
        costs = _trimmed_costs(near.T, groups)
        j = int(np.argmin(costs))
        if costs[j] < best_cost:
            best_cost = float(costs[j])
            best = block[:, live[j]].tolist()
    if best is None:
        raise ValueError("no candidate center set has a finite cost")
    return tuple(space.col_ids[i] for i in best)


def _exhaustive(
    dist: DistanceOracle, points, weights, space: CandidateSpace, z: float,
    groups: Sequence[tuple[np.ndarray | slice, int]] = ((slice(None), 0),),
) -> tuple[PointId, ...]:
    """The ids of the first best set of ``space`` under ``groups`` (`argmin_trimmed`)."""
    return argmin_trimmed(_cost_block(dist, points, weights, space.col_ids, z), space, groups)


def exact_kmedian(
    dist: DistanceOracle,
    points: Sequence[PointId],
    weights: Sequence[float] | None,
    facilities: Sequence[PointId],
    k: int,
    z: float = 1.0,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[PointId, ...]:
    """Best center set of size min(k, |F|) by exhaustive enumeration.

    Ties are broken toward the lexicographically smallest center-id tuple.
    Raises SolverBudgetExceeded instead of silently attempting an enumeration
    larger than ``budget``.
    """
    return _exhaustive(dist, points, weights, CandidateSpace.subsets(facilities, k, budget), z)


class ColumnTest:
    """Which sets of columns are independent in ``matroid``, column ``i``
    standing for ``ids[i]``: by part counts when the matroid has a part form
    (`matroids.MatroidOracle._part_form`: a part per id, a cap per part),
    else by ``matroid.is_independent``, looked up per call, on each set.
    Built once per solve over the sorted facility ids; the answers are
    ``is_independent``'s.
    """

    def __init__(self, matroid, ids: Sequence[PointId]):
        self._matroid = matroid
        self._ids = tuple(ids)
        form = matroid._part_form(self._ids)
        self._part, self._caps = (None, None) if form is None else form

    def _independent(self, cols) -> bool:
        return self._matroid.is_independent([self._ids[i] for i in cols])

    def fits(self, rows: np.ndarray) -> np.ndarray:
        """Whether each row of ``rows`` (column indices, no repeats) is independent."""
        if self._part is None:
            return np.array([self._independent(row) for row in rows.tolist()], dtype=bool)
        labels = self._part[rows]
        ok = np.ones(len(rows), dtype=bool)
        for p, cap in enumerate(self._caps.tolist()):
            ok &= (labels == p).sum(axis=1) <= cap
        return ok

    def basis(self, k: int) -> list[int]:
        """The greedy cold start: ascending columns, each kept while fewer
        than ``k`` are and the set stays independent (possibly short)."""
        current: list[int] = []
        if self._part is None:
            for j in range(len(self._ids)):
                if len(current) < k and self._independent(current + [j]):
                    current.append(j)
            return current
        room = self._caps.tolist()
        for j, p in enumerate(self._part.tolist()):
            if len(current) < k and room[p] > 0:
                room[p] -= 1
                current.append(j)
        return current

    def swaps(self, current: Sequence[int], outside: np.ndarray) -> np.ndarray:
        """``(len(current), len(outside))`` bools: whether swapping
        ``current[pos]`` out for column ``outside[j]`` keeps the independent
        set ``current`` (every search's is) independent, in `_local_search`'s
        swap order.  By counts: iff the new column's part is the old one's,
        or has room under its cap.
        """
        if self._part is None:
            rest = [[*current[:pos], *current[pos + 1 :]] for pos in range(len(current))]
            allowed = [self._independent(r + [y]) for r in rest for y in outside.tolist()]
            return np.array(allowed, dtype=bool).reshape(len(current), len(outside))
        a, b = self._part[list(current)], self._part[outside]
        room = np.bincount(a, minlength=len(self._caps)) < self._caps
        return (a[:, None] == b) | room[b]


@dataclass
class LocalSearchResult:
    centers: tuple[PointId, ...]
    cost: float
    iterations: int
    converged: bool


def _local_search(
    d: np.ndarray,
    k: int,
    handle: SolverHandle,
    test: ColumnTest | None = None,
) -> LocalSearchResult:
    """Single-swap local search over the columns of a cost block.

    ``d`` holds one row per point and one column per facility (already
    powered and weighted, see `_cost_block`); centers are column indices.
    The search starts from the greedy basis over ascending columns under
    ``test`` (the first ``k`` columns when there is no test).  Each
    iteration prices every (position, outside column) swap at once, masks
    the swaps ``test`` rejects (`ColumnTest.swaps`) and makes the first
    least swap left below the improvement bar, in (position, column) order;
    it stops when none is.
    """
    n_cols = d.shape[1]
    if k == n_cols:
        return LocalSearchResult(tuple(range(n_cols)), float(d.min(axis=1).sum()), 0, True)
    current = _greedy_basis(n_cols, k, test)
    cost = float(d[:, current].min(axis=1).sum())
    swap_costs = np.empty((k, n_cols - k))
    converged = False
    it = 0
    for it in range(1, handle.iteration_cap + 1):
        _, outside, fallbacks = _swap_basis(d, current)
        d_out = d[:, outside]
        for pos, fallback in enumerate(fallbacks):
            swap_costs[pos] = np.minimum(fallback[:, None], d_out).sum(axis=0)
        flat = swap_costs.ravel()
        ok = flat < (1.0 - handle.improvement_threshold) * cost
        if test is not None:
            ok &= test.swaps(current, outside).ravel()
        if not ok.any():
            converged = True
            break
        idx = int(np.argmin(np.where(ok, flat, np.inf)))
        pos, j = divmod(idx, len(outside))
        current = sorted(current[:pos] + current[pos + 1 :] + [int(outside[j])])
        cost = float(flat[idx])
    if not converged:
        _warn_iteration_cap(handle, stacklevel=3)
    return LocalSearchResult(tuple(current), cost, it, converged)


def _greedy_basis(n_cols: int, k: int, test: ColumnTest | None) -> list[int]:
    """The cold start: ascending columns, each kept if the set stays
    independent under ``test`` (`ColumnTest.basis`; no test: the first ``k``)."""
    current = list(range(min(k, n_cols))) if test is None else test.basis(k)
    if len(current) < k:
        raise ValueError("could not build a basis greedily; oracle inconsistent")
    return current


def _swap_basis(
    d: np.ndarray, current: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, Iterator[np.ndarray]]:
    """What a single swap of ``current`` is priced from, one row per point.

    Returns each row's distance to its nearest center, the columns outside
    ``current`` (ascending) and, lazily and one position at a time, each
    row's distance to its nearest center once ``current[pos]`` leaves.  A
    swap of position ``pos`` for column ``j`` costs the row
    ``min(fallback_pos, d[:, j])``.  A row equally near two centers takes
    the earlier position as its nearest.
    """
    rows = np.arange(d.shape[0])
    vals = d[:, list(current)]
    arg = vals.argmin(axis=1)
    d1 = vals[rows, arg]
    masked = vals.copy()
    masked[rows, arg] = np.inf
    d2 = masked.min(axis=1) if len(current) > 1 else np.full(len(rows), np.inf)
    inside = np.zeros(d.shape[1], dtype=bool)
    inside[list(current)] = True
    fallbacks = (np.where(arg == pos, d2, d1) for pos in range(len(current)))
    return d1, np.flatnonzero(~inside), fallbacks


def _warn_iteration_cap(handle: SolverHandle, stacklevel: int) -> None:
    """The warning of a local search stopped by ``handle.iteration_cap``."""
    warnings.warn(
        f"local search hit the iteration cap ({handle.iteration_cap}); "
        "returning best centers found so far",
        RuntimeWarning,
        stacklevel=stacklevel + 1,
    )


def _single_swap(
    dist: DistanceOracle, points, weights, facilities, k: int, z: float,
    handle: SolverHandle, matroid=None,
) -> tuple[tuple[PointId, ...], bool]:
    """`_local_search` over the sorted ``facilities``, its swaps kept
    independent in ``matroid`` (``None``: no constraint): the centers (ids)
    and whether it converged."""
    ids = tuple(sorted(int(f) for f in facilities))
    d = _cost_block(dist, points, weights, ids, z)
    test = None if matroid is None else ColumnTest(matroid, ids)
    res = _local_search(d, min(k, len(ids)), handle, test)
    return tuple(ids[i] for i in res.centers), res.converged


def solve_outlier_free(
    dist: DistanceOracle,
    points: Sequence[PointId],
    weights: Sequence[float] | None,
    facilities: Sequence[PointId],
    k: int,
    z: float,
    handle: SolverHandle,
) -> tuple[PointId, ...]:
    """Dispatch to the configured black-box solver."""
    if handle.kind == "exact":
        return exact_kmedian(
            dist, points, weights, facilities, k, z, budget=handle.enumeration_budget
        )
    return _single_swap(dist, points, weights, facilities, k, z, handle)[0]

