"""Variants of the outlier reduction: powered costs, per-color outlier
budgets, matroid-constrained centers, and their combination.

All variants share the round driver from `reduction`; they differ in how the
coreset is grouped (per color), which center sets are candidates (matroid
bases instead of all k-subsets), and how candidates are scored (per-color
trimming).  Each solve has an exhaustive oracle counterpart for testing, the
plain outlier problem's (`exact_outlier_oracle`) included.

Under a matroid, the local-search black box (the lockstep engine of
`reduction.per_subset_local_search`) and the heuristic baseline run the one
single-swap search of `solvers._local_search`, restricted to swaps that keep
the centers independent; no approximation factor is claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Sequence

import numpy as np

from .coreset import (
    BaselineResult,
    CoresetParams,
    RingPartition,
    WeightedCoreset,
    baseline_solve,
    build_augmented_instance,
    build_coreset,
    ring_partition,  # noqa: F401  (re-exported; the driver makes the rings)
)
from .metric import (
    MetricInstance,
    PointId,
    Solution,
    WeightedPointSet,
    farthest_points,
    trimmed_cost,
)
from .reduction import _run_rounds, _up_to, per_subset_best_exact
from .matroids import (
    MatroidOracle,
    direct_sum_matroid,
    matroid_bases,
)
from .solvers import (
    DEFAULT_ENUMERATION_BUDGET,
    CandidateSpace,
    SolverBudgetExceeded,
    SolverHandle,
    _cost_block,
    _local_search,
    _refuse_over_budget,
    argmin_trimmed,
)

# ---------------------------------------------------------------------------
# colorful: per-color outlier budgets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColorfulInstance:
    """Clients carry colors 1..ell; color t may lose at most budgets[t-1] points."""

    base: MetricInstance
    colors: dict[PointId, int]
    budgets: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "budgets", tuple(int(b) for b in self.budgets))
        ell = len(self.budgets)
        if ell < 1:
            raise ValueError("need at least one color class")
        if set(self.colors) != set(self.base.clients):
            raise ValueError("colors must cover exactly the clients")
        for p, t in self.colors.items():
            if not 1 <= t <= ell:
                raise ValueError(f"client {p} has color {t} outside 1..{ell}")
        if sum(self.budgets) != self.base.m:
            raise ValueError("color budgets must sum to the instance's m")
        for t in range(1, ell + 1):
            if self.budgets[t - 1] > len(self.color_class(t)):
                raise ValueError(f"budget of color {t} exceeds its class size")

    @property
    def ell(self) -> int:
        return len(self.budgets)

    def color_class(self, t: int) -> tuple[PointId, ...]:
        return tuple(p for p in self.base.clients if self.colors[p] == t)


def colorful_cost(cinst: ColorfulInstance, C: Sequence[PointId]) -> float:
    """Sum over colors of the per-color trimmed cost."""
    inst = cinst.base
    per_color = [
        trimmed_cost(inst.dist, cinst.color_class(t), C, cinst.budgets[t - 1], inst.z)
        for t in range(1, cinst.ell + 1)
        if cinst.color_class(t)
    ]
    return math.fsum(per_color)


def colorful_outliers(cinst: ColorfulInstance, C: Sequence[PointId]) -> tuple[PointId, ...]:
    """Per-color farthest clients, concatenated in color order."""
    inst = cinst.base
    out: list[PointId] = []
    for t in range(1, cinst.ell + 1):
        cls = cinst.color_class(t)
        if cls:
            out.extend(farthest_points(inst.dist, cls, C, cinst.budgets[t - 1], inst.z))
    return tuple(out)


@dataclass(frozen=True)
class ColoredCoreset:
    """Per-color coresets merged into one entry list with color provenance."""

    per_color: dict[int, WeightedCoreset]
    union: WeightedPointSet
    entry_colors: tuple[int, ...]

    @property
    def lossless(self) -> bool:
        return all(cs.lossless for cs in self.per_color.values())


def _restrict_rings(rp: RingPartition, keep: frozenset[PointId]) -> RingPartition:
    rings = {
        key: kept
        for key, pts in rp.rings.items()
        if (kept := tuple(p for p in pts if p in keep))
    }
    assignment = {p: i for p, i in rp.assignment.items() if p in keep}
    return replace(rp, rings=rings, assignment=assignment)


def build_colored_coreset(
    rp: RingPartition,
    cinst: ColorfulInstance,
    params: CoresetParams,
    rng: np.random.Generator,
) -> ColoredCoreset:
    """Sample each (center, color, band) ring separately, colors in order."""
    per_color: dict[int, WeightedCoreset] = {}
    pts: list[PointId] = []
    w: list[int] = []
    colors: list[int] = []
    for t in range(1, cinst.ell + 1):
        cls = frozenset(cinst.color_class(t))
        if not cls:
            continue
        cs = build_coreset(_restrict_rings(rp, cls), params, rng)
        per_color[t] = cs
        pts.extend(cs.union.points)
        w.extend(cs.union.weights)
        colors.extend([t] * len(cs.union))
    return ColoredCoreset(
        per_color=per_color,
        union=WeightedPointSet(tuple(pts), tuple(w)),
        entry_colors=tuple(colors),
    )


def enumerate_colorful_subsets(ccs: ColoredCoreset, budgets: Sequence[int]) -> np.ndarray:
    """Entry subsets that respect every color budget, built per color.

    Per color the subsets of size 0..budget are generated in (size, lex)
    order; the cartesian product across colors, the first color varying
    slowest, is merged into sorted rows.  Budget-aware generation keeps the
    stream small and complete: any feasible eviction trace remains
    enumerable.  The layout is `enumerate_outlier_subsets`'s: one subset per
    row of an intp array at least one column wide, padded with
    ``n = len(ccs.union)``, which sorts last.
    """
    n = len(ccs.union)
    colors = np.asarray(ccs.entry_colors, dtype=np.intp)
    rows = np.empty((1, 0), dtype=np.intp)
    for t in range(1, len(budgets) + 1):
        idx = np.flatnonzero(colors == t)
        cap = min(budgets[t - 1], len(idx))
        # positions in the class, padded with len(idx), which maps to n
        options = np.append(idx, n)[_up_to(len(idx), cap, cap, len(idx))]
        rows = np.hstack([
            np.repeat(rows, len(options), axis=0), np.tile(options, (len(rows), 1))
        ])
    if rows.shape[1] == 0:
        rows = np.full((len(rows), 1), n, dtype=np.intp)
    return np.sort(rows, axis=1)


def colorful_solve(
    cinst: ColorfulInstance,
    params: CoresetParams,
    solver: SolverHandle,
    *,
    seed: int,
    rounds: int | None = None,
) -> Solution:
    """Color-budgeted reduction; enumeration honors budgets, solving is color-blind."""
    return _solve_variant(cinst.base, cinst, None, params, solver, seed=seed, rounds=rounds)


def colorful_oracle(
    cinst: ColorfulInstance, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Solution:
    """Exact colorful optimum by enumerating center sets with per-color trimming."""
    return _variant_oracle(cinst.base, cinst, None, budget)


# ---------------------------------------------------------------------------
# matroid-constrained centers
# ---------------------------------------------------------------------------


def _check_matroid_instance(inst: MetricInstance, matroid: MatroidOracle) -> None:
    if set(inst.facilities) != set(matroid.ground_set):
        raise ValueError("instance facilities must equal the matroid ground set")
    if matroid.rank < 1:
        raise ValueError("matroid has no independent set of positive rank")
    if inst.k != matroid.rank:
        raise ValueError("instance k must equal the matroid rank")
    if set(inst.clients) & set(inst.facilities):
        raise ValueError("matroid variant needs disjoint client and facility ids")


def matroid_baseline(
    inst: MetricInstance,
    matroid: MatroidOracle,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> BaselineResult:
    """Baseline for the matroid variant: centers independent in the direct sum.

    When (bases of the matroid) x (m-subsets of the clients) fits ``budget``,
    every such union is a candidate and the best is found exactly (tau = 1).
    Otherwise, or when the bases alone exceed ``budget``, it is the
    independence-respecting local search over the direct sum, with no claimed
    factor.  The client picks are counted before any of them is built.
    """
    X = list(inst.clients)
    m = min(inst.m, len(X))
    try:
        bases_f = matroid_bases(matroid, budget)
    except SolverBudgetExceeded:
        bases_f = None
    if bases_f is not None and len(bases_f) * math.comb(len(X), m) <= budget:
        picks = list(combinations(sorted(inst.clients), m))
        cands = [tuple(sorted(b + y)) for b in bases_f for y in picks]
        space = CandidateSpace.from_center_sets(cands)
        no_eviction = np.full((1, 1), len(X), dtype=np.intp)
        best = per_subset_best_exact(
            inst.dist, X, np.ones(len(X)), space, inst.z, no_eviction, budget
        ).centers[0]
        cost = trimmed_cost(inst.dist, X, best, 0, inst.z)
        return BaselineResult(tuple(sorted(best)), cost, "exact", 1.0, True)
    m_aug = direct_sum_matroid(matroid, inst.clients, inst.m)
    centers, converged = matroid_local_search(
        inst.dist, X, None, m_aug, inst.z, SolverHandle.local_search(inst.z)
    )
    cost = trimmed_cost(inst.dist, X, centers, 0, inst.z)
    return BaselineResult(tuple(centers), cost, "local_search", None, converged)


def matroid_local_search(
    dist,
    points: Sequence[PointId],
    weights: Sequence[float] | None,
    matroid: MatroidOracle,
    z: float,
    handle: SolverHandle,
) -> tuple[tuple[PointId, ...], bool]:
    """Single swaps among bases of the matroid; heuristic, no factor claimed.

    The one single-swap search of `solvers._local_search`, restricted to
    independent swaps: it starts from the greedy basis (ascending ids) and
    makes the cheapest independent swap that clears the threshold until none
    does.  Returns the centers and whether the search converged.
    """
    ground = matroid.ground_set
    d = _cost_block(dist, points, weights, ground, z)
    res = _local_search(
        d, matroid.rank, handle,
        independent=lambda cols: matroid.is_independent([ground[i] for i in cols]),
    )
    return tuple(ground[i] for i in res.centers), res.converged


def matroid_median_solve(
    inst: MetricInstance,
    matroid: MatroidOracle,
    params: CoresetParams,
    solver: SolverHandle,
    *,
    seed: int,
    rounds: int | None = None,
) -> Solution:
    """Outlier reduction with centers constrained to independent sets.

    The black box optimizes over matroid bases (exact enumeration, or the swap
    heuristic when the solver handle asks for local search); every returned
    center set is independent.
    """
    return _solve_variant(inst, None, matroid, params, solver, seed=seed, rounds=rounds)


def matroid_median_oracle(
    inst: MetricInstance,
    matroid: MatroidOracle,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Solution:
    """Exact matroid-constrained optimum: best basis under farthest-m trimming."""
    return _variant_oracle(inst, None, matroid, budget)


# ---------------------------------------------------------------------------
# colorful + matroid combined
# ---------------------------------------------------------------------------


def colorful_matroid_solve(
    cinst: ColorfulInstance,
    matroid: MatroidOracle,
    params: CoresetParams,
    solver: SolverHandle,
    *,
    seed: int,
    rounds: int | None = None,
) -> Solution:
    """Color-budgeted enumeration with matroid-feasible candidates."""
    return _solve_variant(cinst.base, cinst, matroid, params, solver, seed=seed, rounds=rounds)


def colorful_matroid_oracle(
    cinst: ColorfulInstance,
    matroid: MatroidOracle,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Solution:
    """Exhaustive optimum over matroid bases under per-color trimming."""
    return _variant_oracle(cinst.base, cinst, matroid, budget)


# ---------------------------------------------------------------------------
# one solve and one oracle along the two axes: color budgets, matroid centers
# ---------------------------------------------------------------------------


def _candidates(
    inst: MetricInstance, matroid: MatroidOracle | None, budget: int
) -> CandidateSpace:
    """Every k-subset of the facilities, or the matroid's bases (refused over budget)."""
    if matroid is None:
        return CandidateSpace.subsets(inst.facilities, inst.k)
    return CandidateSpace.from_center_sets(matroid_bases(matroid, budget))


def _scorer(inst: MetricInstance, cinst: ColorfulInstance | None):
    """Cost and outliers of a center set: farthest-m or per-color trimming."""
    if cinst is None:
        return lambda C: (
            trimmed_cost(inst.dist, inst.clients, C, inst.m, inst.z),
            farthest_points(inst.dist, inst.clients, C, inst.m, inst.z),
        )
    return lambda C: (colorful_cost(cinst, C), colorful_outliers(cinst, C))


def _solve_variant(
    inst: MetricInstance,
    cinst: ColorfulInstance | None,
    matroid: MatroidOracle | None,
    params: CoresetParams,
    solver: SolverHandle,
    *,
    seed: int,
    rounds: int | None,
) -> Solution:
    """The reduction under per-color budgets (``cinst``), matroid centers, or both.

    Budgets choose the coreset flavor, the subset stream and the trimming;
    a matroid chooses the baseline (under the solver's enumeration budget),
    the candidate space and the independence test of the local-search
    black box, and every candidate is checked for independence.
    """
    if matroid is None:
        baseline = lambda: baseline_solve(build_augmented_instance(inst))
        independent = None
    else:
        _check_matroid_instance(inst, matroid)
        baseline = lambda: matroid_baseline(inst, matroid, solver.enumeration_budget)
        # looked up per call, so a wrapped `is_independent` sees every check
        independent = lambda C: matroid.is_independent(C)
    if cinst is None:
        build_cs = lambda rp, rng: build_coreset(rp, params, rng)
        enum_subsets = None
    else:
        build_cs = lambda rp, rng: build_colored_coreset(rp, cinst, params, rng)
        enum_subsets = lambda ccs: enumerate_colorful_subsets(ccs, cinst.budgets)
    score = _scorer(inst, cinst)

    def objective(C):
        if matroid is not None and not matroid.is_independent(C):
            raise RuntimeError(f"candidate {C} is not independent in the matroid")
        return score(C)

    return _run_rounds(
        inst, params, solver, seed=seed, rounds=rounds,
        space=lambda: _candidates(inst, matroid, solver.enumeration_budget),
        baseline=baseline,
        build_cs=build_cs,
        objective=objective,
        enum_subsets=enum_subsets,
        independent=independent,
    ).best


def exact_outlier_oracle(
    inst: MetricInstance, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Solution:
    """Exact optimum of the outlier instance by enumerating all center sets.

    For every candidate set the m farthest clients are evicted; the global
    argmin (ties toward the lexicographically smallest center tuple) is
    returned with its canonical outlier set.
    """
    return _variant_oracle(inst, None, None, budget)


def _variant_oracle(
    inst: MetricInstance,
    cinst: ColorfulInstance | None,
    matroid: MatroidOracle | None,
    budget: int,
) -> Solution:
    """Exhaustive optimum over the candidate space under the variant's trimming."""
    if matroid is not None:
        _check_matroid_instance(inst, matroid)
    space = _refuse_over_budget(_candidates(inst, matroid, budget), budget)
    X = list(inst.clients)
    if cinst is None:
        groups = [(slice(None), inst.m)]
    else:
        row = {p: i for i, p in enumerate(X)}
        groups = []
        for t in range(1, cinst.ell + 1):
            if cls := cinst.color_class(t):
                groups.append((np.asarray([row[p] for p in cls]), cinst.budgets[t - 1]))
    d = _cost_block(inst.dist, X, None, space.col_ids, inst.z)
    centers = space.centers_at(argmin_trimmed(d, space, groups))
    cost, outliers = _scorer(inst, cinst)(centers)
    return Solution(centers=centers, outliers=outliers, cost=cost, candidate_tag="oracle")
