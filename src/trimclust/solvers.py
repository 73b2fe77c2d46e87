"""Outlier-free solvers: exact enumeration and single-swap local search.

The exact solvers enumerate candidate center sets and are meant for desk-scale
instances and as ground truth in tests; enumeration is refused beyond an
explicit budget.  Local search is the classical single-swap heuristic, a
5-approximation for the median objective (z=1) and a plain heuristic for
z > 1.

Every local search, here and in the variants, is `_local_search` over a
weighted, powered cost block, or `reduction.per_subset_local_search`, which
gives its answers for many subsets at once: with every swap allowed, or
with only the swaps an independence test accepts (a heuristic under a
matroid; no factor is claimed).

Every exhaustive search over center sets, here and in the variants, is one
call of `argmin_trimmed` over a `CandidateSpace`: per candidate chunk, take
each point's distance to its nearest candidate center, trim each group of
points by its outlier budget, sum, and keep the first minimum.  The batched
exact black box, `reduction.per_subset_best_exact`, reads the same space.

A `CandidateSpace` is an index array, one center set per row.  Subsets of
``range(n)`` have one builder, `_extend`, which writes the subsets of one
size from those one smaller by suffix copies.  `_up_to` runs it size after
size straight into one padded array, the reduction's outlier subsets of
size 0..m; `_combinations`, the k-subsets of the facilities, is the last
block of that build, keeping of each smaller size only the rows the next
reads.  `CandidateSpace.subsets` refuses a space over the enumeration budget
before it builds any row.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .metric import DistanceOracle, PointId

DEFAULT_ENUMERATION_BUDGET = 2_000_000

# cap on elements of a (points x candidate-sets x k) block, to bound memory
_CHUNK_ELEMENTS = 8_000_000


class SolverBudgetExceeded(RuntimeError):
    """Raised when exhaustive enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class SolverHandle:
    """Configuration of the pluggable outlier-free solver.

    The handle carries no exponent and no approximation factor: every solve
    reads z from its instance, and the one stated guarantee is the
    baseline's ``BaselineResult.tau_guarantee``.
    """

    kind: str  # "exact" | "local_search"
    iteration_cap: int = 200
    improvement_threshold: float = 1e-3
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET

    def __post_init__(self):
        if self.kind not in ("exact", "local_search"):
            raise ValueError(f"unknown solver kind {self.kind!r}")
        if self.iteration_cap < 1:
            raise ValueError("iteration_cap must be positive")
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


@dataclass(frozen=True, eq=False)
class CandidateSpace:
    """The center sets a solver may return, one per row of ``combos``.

    Row ``i`` of the ``(count, set_size)`` intp array ``combos`` holds the
    indices into ``col_ids`` of candidate ``i``, in enumeration order:
    every ``min(k, |F|)``-subset of the sorted facilities in lexicographic
    order (`subsets`, refused over budget before any is built), or the
    given center sets in the given order (`from_center_sets`, used for
    matroid bases).
    """

    col_ids: tuple[PointId, ...]
    combos: np.ndarray

    @classmethod
    def subsets(
        cls, facilities: Sequence[PointId], k: int, budget: int = DEFAULT_ENUMERATION_BUDGET
    ) -> "CandidateSpace":
        ids = tuple(sorted(int(f) for f in facilities))
        size = min(k, len(ids))
        if (count := math.comb(len(ids), size)) > budget:
            raise SolverBudgetExceeded(f"{count} candidate center sets exceed budget {budget}")
        return cls(col_ids=ids, combos=_combinations(len(ids), size))

    @classmethod
    def from_center_sets(
        cls, center_sets: Sequence[Sequence[PointId]]
    ) -> "CandidateSpace":
        ids = tuple(sorted({int(c) for cset in center_sets for c in cset}))
        index = {c: i for i, c in enumerate(ids)}
        rows = [[index[int(c)] for c in sorted(cset)] for cset in center_sets]
        width = len(rows[0]) if rows else 0
        return cls(col_ids=ids, combos=np.array(rows, dtype=np.intp).reshape(len(rows), width))

    @property
    def count(self) -> int:
        return len(self.combos)

    def chunks(self, n_rows: int) -> Iterator[np.ndarray]:
        """Row slices of ``combos``, each about ``_CHUNK_ELEMENTS`` distances wide."""
        per = max(1, _CHUNK_ELEMENTS // max(1, n_rows * max(1, self.combos.shape[1])))
        for lo in range(0, len(self.combos), per):
            yield self.combos[lo : lo + per]

    def centers_at(self, idx: int) -> tuple[PointId, ...]:
        return tuple(self.col_ids[i] for i in self.combos[idx].tolist())


def _extend(prev: np.ndarray, out: np.ndarray, n: int, size: int, low: int) -> None:
    """Write every ``size``-subset of ``range(low, n)`` into ``out[:, :size]``,
    one increasing row each, in lexicographic order.

    ``prev[:, :size - 1]`` holds the ``(size - 1)``-subsets of ``range(low +
    1, n)`` or more, in that order.  The ``size``-subsets that start with
    ``a`` are ``a`` followed by the ``(size - 1)``-subsets whose first entry
    exceeds ``a``, which are the last ``C(n - a - 1, size - 1)`` rows of
    ``prev``: one suffix copy per ``a``.  ``prev`` and ``out`` are row
    blocks of C-contiguous arrays of one width, so each copy is one flat
    move of those rows, one column to the right; it carries each row's last
    entry into the next row's first column, which is written last.  Columns
    past ``size`` get ``prev``'s columns past ``size - 1``.
    """
    firsts = np.arange(low, n - size + 1)
    counts = [math.comb(n - a - 1, size - 1) for a in firsts.tolist()]
    if size > 1:
        src, dst, width = prev.reshape(-1), out.reshape(-1), out.shape[1]
        lo = 0
        for count in counts:
            dst[lo * width + 1 : (lo + count) * width] = src[len(src) - count * width : -1]
            lo += count
    out[:, 0] = np.repeat(firsts, counts)


def _combinations(n: int, size: int) -> np.ndarray:
    """Every ``size``-subset of ``range(n)`` (``size <= n``), one increasing
    row each, in lexicographic order: the last block of `_up_to`'s build.

    Only the rows the next size reads are built: of the ``j``-subsets, those
    of ``range(size - j, n)``, each from the block before it (`_extend`).
    """
    block = np.empty((1, size), dtype=np.intp)
    for j in range(1, size + 1):
        block, prev = np.empty((math.comb(n - size + j, j), size), dtype=np.intp), block
        _extend(prev, block, n, j, size - j)
    return block


def _up_to(n: int, cap: int, width: int, pad: int) -> np.ndarray:
    """Every subset of ``range(n)`` of size 0..cap (``cap <= min(n, width)``),
    in (size, lexicographic) order, one per row of ``width`` columns, padded
    with ``pad``.

    Each size is written straight into the padded array from the block
    before it (`_extend`), so no block is built twice.
    """
    counts = [math.comb(n, size) for size in range(cap + 1)]
    rows = np.full((sum(counts), width), pad, dtype=np.intp)
    lo = 1  # the empty subset is the first row, all padding
    for size in range(1, cap + 1):
        _extend(rows[lo - counts[size - 1] : lo], rows[lo : lo + counts[size]], n, size, 0)
        lo += counts[size]
    return rows


def _cost_block(dist: DistanceOracle, points, weights, cols, z: float) -> np.ndarray:
    """Weighted d(p, c)**z, one row per point and one column per entry of ``cols``."""
    d = dist.pairwise(points, cols)
    if z != 1.0:
        d = d**z
    return d if weights is None else d * np.asarray(weights, dtype=float)[:, None]


def argmin_trimmed(
    d: np.ndarray,
    space: CandidateSpace,
    groups: Sequence[tuple[np.ndarray | slice, int]],
) -> int:
    """Index in ``space`` of the candidate set with the least trimmed cost.

    ``d`` holds one row per point and one column per ``space.col_ids`` entry
    (already powered and weighted).  Each group ``(rows, drop)`` keeps the
    ``len(rows) - drop`` smallest distances of its rows to the candidate set;
    a candidate's cost is the sum over groups.  Ties go to the earliest
    candidate in enumeration order.  A group of every row is passed as
    ``slice(None)``, so its rows are a view, not a copy.
    """
    best_cost = math.inf
    best_idx = -1
    offset = 0
    for chunk in space.chunks(d.shape[0]):
        vals = d[:, chunk].min(axis=2)
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
        j = int(np.argmin(costs))
        if costs[j] < best_cost:
            best_cost = float(costs[j])
            best_idx = offset + j
        offset += chunk.shape[0]
    if best_idx < 0:
        raise ValueError("no candidate center set has a finite cost")
    return best_idx


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
    ids = tuple(sorted(int(f) for f in facilities))
    if k >= len(ids):
        return ids
    space = CandidateSpace.subsets(ids, k, budget)
    d = _cost_block(dist, points, weights, space.col_ids, z)
    return space.centers_at(argmin_trimmed(d, space, [(slice(None), 0)]))


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
    initial: Sequence[int] | None = None,
    independent: Callable[[list[int]], bool] | None = None,
) -> LocalSearchResult:
    """Single-swap local search over the columns of a cost block.

    ``d`` holds one row per point and one column per facility (already
    powered and weighted, see `_cost_block`); centers are column indices.
    Without ``initial`` the search starts from the greedy basis over
    ascending columns under ``independent`` (the first ``k`` columns when
    there is no test).  Each iteration prices every (position, outside
    column) swap at once and makes the cheapest one that passes
    ``independent`` and clears the improvement threshold, ties going to the
    earliest (position, column); it stops when no swap does.
    """
    n_cols = d.shape[1]
    if k == n_cols:
        return LocalSearchResult(tuple(range(n_cols)), float(d.min(axis=1).sum()), 0, True)
    if initial is not None:
        current = sorted(int(c) for c in initial)
        if len(set(current)) != k:
            raise ValueError("initial centers must be k distinct facilities")
    else:
        current = _greedy_basis(n_cols, k, independent)

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
        below = np.flatnonzero(flat < (1.0 - handle.improvement_threshold) * cost)
        for idx in below[np.argsort(flat[below], kind="stable")]:
            pos, j = divmod(int(idx), len(outside))
            trial = current[:pos] + current[pos + 1 :] + [int(outside[j])]
            if independent is None or independent(trial):
                current = sorted(trial)
                cost = float(flat[idx])
                break
        else:
            converged = True
            break
    if not converged:
        _warn_iteration_cap(handle, stacklevel=3)
    return LocalSearchResult(tuple(current), cost, it, converged)


def _greedy_basis(n_cols: int, k: int, independent: Callable | None) -> list[int]:
    """The cold start: ascending columns, each kept if ``independent`` accepts it."""
    current: list[int] = []
    for j in range(n_cols):
        if len(current) < k and (independent is None or independent(current + [j])):
            current.append(j)
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


def local_search_kmedian(
    dist: DistanceOracle,
    points: Sequence[PointId],
    weights: Sequence[float] | None,
    facilities: Sequence[PointId],
    k: int,
    z: float = 1.0,
    handle: SolverHandle | None = None,
    initial: Sequence[PointId] | None = None,
) -> tuple[PointId, ...]:
    """Single-swap local search; deterministic from the default initialization.

    The search starts from ``initial`` (facility ids) or, by default, from the
    first k facilities in ascending id order.
    """
    handle = handle or SolverHandle.local_search()
    fac = tuple(sorted(int(f) for f in facilities))
    d = _cost_block(dist, points, weights, fac, z)
    if initial is not None:
        index_of = {f: i for i, f in enumerate(fac)}
        if unknown := [int(f) for f in initial if int(f) not in index_of]:
            raise ValueError(f"initial centers {unknown} are not facilities")
        initial = [index_of[int(f)] for f in initial]
    best = _local_search(d, min(k, len(fac)), handle, initial)
    return tuple(fac[i] for i in best.centers)


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
    return local_search_kmedian(dist, points, weights, facilities, k, z, handle)

