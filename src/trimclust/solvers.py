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
points by its outlier budget, sum, and keep the first minimum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations, islice
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

    ``beta_guarantee`` is the approximation factor the solver is entitled to
    claim (1 for exact, 5 for single-swap local search at z=1, and the string
    "heuristic" when no factor is known).
    """

    kind: str  # "exact" | "local_search"
    beta_guarantee: float | str
    iteration_cap: int = 200
    improvement_threshold: float = 1e-3
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET

    def __post_init__(self):
        if self.kind not in ("exact", "local_search"):
            raise ValueError(f"unknown solver kind {self.kind!r}")
        if self.kind == "exact" and self.beta_guarantee != 1:
            raise ValueError("exact solver must claim beta_guarantee = 1")
        if self.iteration_cap < 1:
            raise ValueError("iteration_cap must be positive")
        if not 0 < self.improvement_threshold < 1:
            raise ValueError("improvement_threshold must be in (0, 1)")

    @classmethod
    def exact(cls, enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET) -> "SolverHandle":
        return cls(kind="exact", beta_guarantee=1, enumeration_budget=enumeration_budget)

    @classmethod
    def local_search(
        cls,
        z: float = 1.0,
        iteration_cap: int = 200,
        improvement_threshold: float = 1e-3,
    ) -> "SolverHandle":
        guarantee: float | str = 5.0 if z == 1.0 else "heuristic"
        return cls(
            kind="local_search",
            beta_guarantee=guarantee,
            iteration_cap=iteration_cap,
            improvement_threshold=improvement_threshold,
        )


@dataclass(frozen=True)
class CandidateSpace:
    """The center sets a solver may return.

    Either every ``k``-subset of ``col_ids`` (generated lazily, in
    lexicographic order) or an explicit tuple of index tuples into
    ``col_ids`` (used for matroid bases).
    """

    col_ids: tuple[PointId, ...]
    k: int | None
    explicit: tuple[tuple[int, ...], ...] | None

    @classmethod
    def subsets(cls, facilities: Sequence[PointId], k: int) -> "CandidateSpace":
        ids = tuple(sorted(int(f) for f in facilities))
        return cls(col_ids=ids, k=min(k, len(ids)), explicit=None)

    @classmethod
    def from_center_sets(
        cls, center_sets: Sequence[Sequence[PointId]]
    ) -> "CandidateSpace":
        ids = tuple(sorted({int(c) for cset in center_sets for c in cset}))
        index = {c: i for i, c in enumerate(ids)}
        explicit = tuple(tuple(index[int(c)] for c in sorted(cset)) for cset in center_sets)
        return cls(col_ids=ids, k=None, explicit=explicit)

    @property
    def count(self) -> int:
        if self.explicit is not None:
            return len(self.explicit)
        return math.comb(len(self.col_ids), self.k)

    def chunks(self, n_rows: int) -> Iterator[np.ndarray]:
        """Index arrays (chunk, set_size) over all candidate sets, in order."""
        if self.explicit is not None:
            width = len(self.explicit[0]) if self.explicit else 0
            combos: Iterator[tuple[int, ...]] = iter(self.explicit)
        else:
            width = self.k
            combos = combinations(range(len(self.col_ids)), self.k)
        per = max(1, _CHUNK_ELEMENTS // max(1, n_rows * max(1, width)))
        while block := list(islice(combos, per)):
            yield np.asarray(block, dtype=np.intp)

    def centers_at(self, idx: int) -> tuple[PointId, ...]:
        if self.explicit is not None:
            combo = self.explicit[idx]
        else:
            combo = _combo_unrank(len(self.col_ids), self.k, idx)
        return tuple(self.col_ids[i] for i in combo)


def _combo_unrank(n: int, k: int, rank: int) -> tuple[int, ...]:
    """The rank-th k-combination of range(n) in lexicographic order."""
    combo = []
    prev = -1
    for slot in range(k, 0, -1):
        c = prev + 1
        while True:
            block = math.comb(n - c - 1, slot - 1)
            if rank < block:
                break
            rank -= block
            c += 1
        combo.append(c)
        prev = c
    return tuple(combo)


def _cost_block(dist: DistanceOracle, points, weights, cols, z: float) -> np.ndarray:
    """Weighted d(p, c)**z, one row per point and one column per entry of ``cols``."""
    d = dist.pairwise(points, cols)
    if z != 1.0:
        d = d**z
    return d if weights is None else d * np.asarray(weights, dtype=float)[:, None]


def _refuse_over_budget(space: CandidateSpace, budget: int) -> CandidateSpace:
    if space.count > budget:
        raise SolverBudgetExceeded(
            f"{space.count} candidate center sets exceed budget {budget}"
        )
    return space


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
    space = CandidateSpace.subsets(facilities, k)
    if space.k == len(space.col_ids):
        return space.col_ids
    _refuse_over_budget(space, budget)
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
    handle = handle or SolverHandle.local_search(z)
    space = CandidateSpace.subsets(facilities, k)
    fac = space.col_ids
    d = _cost_block(dist, points, weights, fac, z)
    if initial is not None:
        index_of = {f: i for i, f in enumerate(fac)}
        if unknown := [int(f) for f in initial if int(f) not in index_of]:
            raise ValueError(f"initial centers {unknown} are not facilities")
        initial = [index_of[int(f)] for f in initial]
    best = _local_search(d, space.k, handle, initial)
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

