"""Outlier-free solvers (exact and local search) and the exact outlier oracle.

The exact solvers enumerate candidate center sets and are meant for desk-scale
instances and as ground truth in tests; enumeration is refused beyond an
explicit budget.  Local search is the classical single-swap heuristic, a
5-approximation for the median objective (z=1) and a plain heuristic for
z > 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .metric import (
    DistanceOracle,
    MetricInstance,
    PointId,
    Solution,
    WeightedPointSet,
    farthest_points,
    trimmed_cost,
)

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


def expand_unweighted(wps: WeightedPointSet) -> tuple[PointId, ...]:
    """Unweighted multiset with w(x) copies of every entry x.

    Plain (unit-weight) evaluation of the result equals weighted evaluation of
    the input for every center set.
    """
    out: list[PointId] = []
    for p, w in wps.entries:
        out.extend([p] * w)
    return tuple(out)


def _candidate_combos(facilities: Sequence[PointId], k: int) -> tuple[list[PointId], int, int]:
    """Sorted facility ids, effective k, and the number of candidate sets."""
    fac = sorted(int(f) for f in facilities)
    k_eff = min(k, len(fac))
    return fac, k_eff, math.comb(len(fac), k_eff)


def _iter_combo_chunks(n_fac: int, k_eff: int, n_rows: int) -> Iterator[np.ndarray]:
    """Index arrays (chunk, k_eff) over combinations of range(n_fac), in order."""
    per_chunk = max(1, _CHUNK_ELEMENTS // max(1, n_rows * k_eff))
    it = combinations(range(n_fac), k_eff)
    while True:
        block = list(islice(it, per_chunk))
        if not block:
            return
        yield np.asarray(block, dtype=np.intp)


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
    fac, k_eff, n_combos = _candidate_combos(facilities, k)
    if k_eff == len(fac):
        return tuple(fac)
    if n_combos > budget:
        raise SolverBudgetExceeded(
            f"{n_combos} candidate center sets exceed budget {budget}"
        )
    d = dist.pairwise(points, fac)
    if z != 1.0:
        d = d**z
    w = None if weights is None else np.asarray(weights, dtype=float)
    if w is not None:
        d = d * w[:, None]
    best_cost = math.inf
    best_combo: tuple[int, ...] | None = None
    for chunk in _iter_combo_chunks(len(fac), k_eff, d.shape[0]):
        vals = d[:, chunk].min(axis=2)
        costs = vals.sum(axis=0)
        i = int(np.argmin(costs))
        if costs[i] < best_cost:
            best_cost = float(costs[i])
            best_combo = tuple(chunk[i])
    if best_combo is None:
        raise ValueError("no candidate center set has a finite cost")
    return tuple(fac[i] for i in best_combo)


@dataclass
class LocalSearchResult:
    centers: tuple[PointId, ...]
    cost: float
    iterations: int
    converged: bool


def _local_search(
    dist: DistanceOracle,
    points: Sequence[PointId],
    weights: Sequence[float] | None,
    facilities: Sequence[PointId],
    k: int,
    z: float,
    handle: SolverHandle,
    initial: Sequence[PointId] | None,
) -> LocalSearchResult:
    fac, k_eff, _ = _candidate_combos(facilities, k)
    if k_eff == len(fac):
        d = dist.pairwise(points, fac)
        if z != 1.0:
            d = d**z
        if weights is not None:
            d = d * np.asarray(weights, dtype=float)[:, None]
        return LocalSearchResult(tuple(fac), float(d.min(axis=1).sum()), 0, True)

    d = dist.pairwise(points, fac)
    if z != 1.0:
        d = d**z
    if weights is not None:
        d = d * np.asarray(weights, dtype=float)[:, None]

    index_of = {f: i for i, f in enumerate(fac)}
    if initial is None:
        current = list(range(k_eff))  # first k facility ids (fac is sorted)
    else:
        current = sorted(index_of[int(f)] for f in initial)
        if len(set(current)) != k_eff:
            raise ValueError("initial centers must be k distinct facilities")

    def total(cols: Sequence[int]) -> float:
        return float(d[:, cols].min(axis=1).sum())

    cost = total(current)
    threshold = handle.improvement_threshold
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
        best_swap: tuple[int, int] | None = None
        for pos in range(k_eff):
            fallback = np.where(arg == pos, d2, d1)
            cand_costs = np.minimum(fallback[:, None], d_out).sum(axis=0)
            j = int(np.argmin(cand_costs))
            if cand_costs[j] < best_gain_cost:
                best_gain_cost = float(cand_costs[j])
                best_swap = (pos, outside[j])
        if best_swap is None or best_gain_cost >= (1.0 - threshold) * cost:
            converged = True
            break
        pos, new_col = best_swap
        current[pos] = new_col
        current.sort()
        cost = best_gain_cost
    if not converged:
        warnings.warn(
            f"local search hit the iteration cap ({handle.iteration_cap}); "
            "returning best centers found so far",
            RuntimeWarning,
            stacklevel=3,
        )
    return LocalSearchResult(tuple(fac[i] for i in current), cost, it, converged)


def local_search_kmedian(
    dist: DistanceOracle,
    points: Sequence[PointId],
    weights: Sequence[float] | None,
    facilities: Sequence[PointId],
    k: int,
    z: float = 1.0,
    handle: SolverHandle | None = None,
    initial: Sequence[PointId] | None = None,
    restarts: int = 0,
    rng: np.random.Generator | None = None,
) -> tuple[PointId, ...]:
    """Single-swap local search; deterministic from the default initialization.

    ``restarts`` extra runs from random initial centers (requires ``rng``) may
    only improve the result.
    """
    handle = handle or SolverHandle.local_search(z)
    best = _local_search(dist, points, weights, facilities, k, z, handle, initial)
    if restarts:
        if rng is None:
            raise ValueError("random restarts need an rng")
        fac = sorted(int(f) for f in facilities)
        k_eff = min(k, len(fac))
        for _ in range(restarts):
            init = rng.choice(len(fac), size=k_eff, replace=False)
            res = _local_search(
                dist, points, weights, facilities, k, z, handle, [fac[i] for i in init]
            )
            if res.cost < best.cost:
                best = res
    return best.centers


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


def exact_outlier_oracle(
    inst: MetricInstance, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Solution:
    """Exact optimum of the outlier instance by enumerating all center sets.

    For every candidate set the m farthest clients are evicted; the global
    argmin (ties toward the lexicographically smallest center tuple) is
    returned with its canonical outlier set.
    """
    fac, k_eff, n_combos = _candidate_combos(inst.facilities, inst.k)
    if n_combos > budget:
        raise SolverBudgetExceeded(
            f"{n_combos} candidate center sets exceed budget {budget}"
        )
    X = list(inst.clients)
    n, m = len(X), inst.m
    keep = n - m
    d = inst.power_distances(X, fac)
    best_cost = math.inf
    best_combo: tuple[int, ...] | None = None
    if k_eff == len(fac):
        chunks: Iterable[np.ndarray] = [np.arange(len(fac), dtype=np.intp)[None, :]]
    else:
        chunks = _iter_combo_chunks(len(fac), k_eff, n)
    for chunk in chunks:
        vals = d[:, chunk].min(axis=2)
        if keep == 0:
            costs = np.zeros(vals.shape[1])
        elif m == 0:
            costs = vals.sum(axis=0)
        else:
            costs = np.partition(vals, keep - 1, axis=0)[:keep].sum(axis=0)
        i = int(np.argmin(costs))
        if costs[i] < best_cost:
            best_cost = float(costs[i])
            best_combo = tuple(chunk[i])
    if best_combo is None:
        raise ValueError("no candidate center set has a finite cost")
    centers = tuple(fac[i] for i in best_combo)
    cost = trimmed_cost(inst.dist, X, centers, m, inst.z)
    outliers = farthest_points(inst.dist, X, centers, m, inst.z)
    return Solution(centers=centers, outliers=outliers, cost=cost, candidate_tag="oracle")
