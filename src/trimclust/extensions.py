"""Variants of the outlier reduction: powered costs, per-color outlier
budgets, matroid-constrained centers, and their combination.

All variants share the round driver from `reduction`; they differ in how the
coreset is grouped (per color), which center sets are candidates (matroid
bases instead of all k-subsets), and how candidates are scored (per-color
trimming).  Each solve has an exhaustive oracle counterpart for testing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from itertools import chain, combinations, product
from typing import Iterator, Sequence

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
    MetricInstance,
    PointId,
    Solution,
    WeightedPointSet,
    farthest_points,
    trimmed_cost,
)
from .reduction import (
    CandidateSpace,
    ReductionReport,
    _check_exact_engine,
    _run_rounds,
    default_rounds,
    per_subset_best_exact,
    solve_with_outliers,
)
from .matroids import (
    MatroidOracle,
    direct_sum_matroid,
    matroid_bases,
)
from .solvers import SolverBudgetExceeded, SolverHandle, DEFAULT_ENUMERATION_BUDGET


def kz_solve_with_outliers(
    inst: MetricInstance,
    params: CoresetParams,
    solver: SolverHandle,
    *,
    seed: int,
    rounds: int | None = None,
    prune: bool = False,
    baseline_exact_budget: int | None = None,
) -> ReductionReport:
    """The reduction under powered costs d**z; z=1 reproduces the base solve.

    The z-awareness lives in the shared machinery (powered costs, the
    z-dependent ring radius, sample sizing, and ring-sum factors), so this is
    the same pipeline entered with z read off the instance.
    """
    if inst.z < 1:
        raise ValueError("z must be >= 1")
    return solve_with_outliers(
        inst,
        params,
        solver,
        seed=seed,
        rounds=rounds,
        prune=prune,
        baseline_exact_budget=baseline_exact_budget,
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

    def color_entry_indices(self, t: int) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.entry_colors) if c == t)


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


def enumerate_colorful_subsets(
    ccs: ColoredCoreset, budgets: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Entry subsets that respect every color budget, built per color.

    Per color the subsets of size 0..budget are generated in (size, lex)
    order; the cartesian product across colors is merged into sorted index
    tuples.  Budget-aware generation keeps the stream small and complete: any
    feasible eviction trace remains enumerable.
    """
    per_color_options: list[list[tuple[int, ...]]] = []
    for t in range(1, len(budgets) + 1):
        idx = ccs.color_entry_indices(t)
        cap = min(budgets[t - 1], len(idx))
        options = [c for size in range(cap + 1) for c in combinations(idx, size)]
        per_color_options.append(options)
    for chosen in product(*per_color_options):
        yield tuple(sorted(chain.from_iterable(chosen)))


def colorful_solve(
    cinst: ColorfulInstance,
    params: CoresetParams,
    solver: SolverHandle,
    *,
    seed: int,
    rounds: int | None = None,
    prune: bool = False,
    baseline_exact_budget: int | None = None,
) -> Solution:
    """Color-budgeted reduction; enumeration honors budgets, solving is color-blind."""
    inst = cinst.base
    if params.z != inst.z:
        raise ValueError(f"params.z={params.z} disagrees with instance z={inst.z}")
    rounds = default_rounds() if rounds is None else rounds
    space = CandidateSpace.subsets(inst.facilities, inst.k)
    _check_exact_engine(solver, prune, space)
    aug = build_augmented_instance(inst)
    kwargs = {} if baseline_exact_budget is None else {"exact_budget": baseline_exact_budget}
    base = baseline_solve(aug, **kwargs)
    rp = ring_partition(inst, base.centers, params.tau)

    best, _, _, _ = _run_rounds(
        inst,
        params,
        solver,
        rounds,
        seed,
        build_cs=lambda rng: build_colored_coreset(rp, cinst, params, rng),
        enum_subsets=lambda ccs: enumerate_colorful_subsets(ccs, cinst.budgets),
        space=space,
        generic_black_box=None if solver.kind == "exact" else _plain_bb(inst, solver),
        objective=lambda C: (colorful_cost(cinst, C), colorful_outliers(cinst, C)),
        prune=prune,
        prune_ground=None,
    )
    return best


def colorful_oracle(
    cinst: ColorfulInstance, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Solution:
    """Exact colorful optimum by enumerating center sets with per-color trimming."""
    inst = cinst.base
    space = CandidateSpace.subsets(inst.facilities, inst.k)
    best_idx = _argmin_colorful(cinst, space, budget)
    centers = space.centers_at(best_idx)
    return Solution(
        centers=centers,
        outliers=colorful_outliers(cinst, centers),
        cost=colorful_cost(cinst, centers),
        candidate_tag="oracle",
    )


def _argmin_colorful(cinst: ColorfulInstance, space: CandidateSpace, budget: int) -> int:
    if space.count > budget:
        raise SolverBudgetExceeded(
            f"{space.count} candidate center sets exceed budget {budget}"
        )
    inst = cinst.base
    X = list(inst.clients)
    d = inst.power_distances(X, space.col_ids)
    row_of = {p: i for i, p in enumerate(X)}
    groups = []
    for t in range(1, cinst.ell + 1):
        cls = cinst.color_class(t)
        if cls:
            groups.append((np.asarray([row_of[p] for p in cls]), cinst.budgets[t - 1]))
    best_cost = math.inf
    best_idx = -1
    offset = 0
    for chunk in space.chunks(len(X)):
        vals = d[:, chunk].min(axis=2)
        costs = np.zeros(vals.shape[1])
        for rows, m_t in groups:
            sub = vals[rows]
            keep = len(rows) - m_t
            if keep == 0:
                continue
            if m_t == 0:
                costs += sub.sum(axis=0)
            else:
                costs += np.partition(sub, keep - 1, axis=0)[:keep].sum(axis=0)
        j = int(np.argmin(costs))
        if costs[j] < best_cost:
            best_cost = float(costs[j])
            best_idx = offset + j
        offset += chunk.shape[0]
    return best_idx


def _plain_bb(inst: MetricInstance, solver: SolverHandle):
    from .solvers import solve_outlier_free

    return lambda p, w: solve_outlier_free(
        inst.dist, p, w, inst.facilities, inst.k, inst.z, solver
    )


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
    heuristic: bool = False,
    handle: SolverHandle | None = None,
) -> BaselineResult:
    """Baseline for the matroid variant: centers independent in the direct sum.

    Exact mode enumerates (basis of the matroid) x (m clients); the heuristic
    flag switches to independence-respecting local search with no claimed
    factor.
    """
    m_aug = direct_sum_matroid(matroid, inst.clients, inst.m)
    X = list(inst.clients)
    if not heuristic:
        bases_f = matroid_bases(matroid, budget)
        client_picks = list(combinations(sorted(inst.clients), min(inst.m, len(X))))
        if len(bases_f) * len(client_picks) > budget:
            heuristic = True
        else:
            cands = [tuple(sorted(b + y)) for b in bases_f for y in client_picks]
            space = CandidateSpace.from_center_sets(cands)
            best = per_subset_best_exact(
                inst.dist, X, np.ones(len(X)), space, inst.z, [()], budget
            )[0]
            cost = trimmed_cost(inst.dist, X, best, 0, inst.z)
            return BaselineResult(tuple(sorted(best)), cost, "exact", 1.0, True)
    handle = handle or SolverHandle.local_search(inst.z)
    centers, converged = matroid_local_search(
        inst.dist, X, None, m_aug, inst.z, handle
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

    Starts from the greedy basis (ascending ids) and applies the best
    cost-improving independent swap until none clears the threshold.
    """
    ground = list(matroid.ground_set)
    current: list[PointId] = []
    for g in ground:
        if len(current) == matroid.rank:
            break
        if matroid.is_independent(current + [g]):
            current.append(g)
    if len(current) < matroid.rank:
        raise ValueError("could not build a basis greedily; oracle inconsistent")

    d = dist.pairwise(points, ground)
    if z != 1.0:
        d = d**z
    if weights is not None:
        d = d * np.asarray(weights, dtype=float)[:, None]
    col = {g: i for i, g in enumerate(ground)}

    def total(cset: Sequence[PointId]) -> float:
        return float(d[:, [col[c] for c in cset]].min(axis=1).sum())

    cost = total(current)
    converged = False
    for _ in range(handle.iteration_cap):
        best_swap: tuple[float, int, PointId] | None = None
        cur_set = set(current)
        for i, c in enumerate(current):
            for f in ground:
                if f in cur_set:
                    continue
                trial = current[:i] + current[i + 1 :] + [f]
                if not matroid.is_independent(trial):
                    continue
                t_cost = total(trial)
                if t_cost < cost * (1.0 - handle.improvement_threshold) and (
                    best_swap is None or t_cost < best_swap[0]
                ):
                    best_swap = (t_cost, i, f)
        if best_swap is None:
            converged = True
            break
        cost, i, f = best_swap
        current = sorted(current[:i] + current[i + 1 :] + [f])
    if not converged:
        warnings.warn(
            f"matroid local search hit the iteration cap ({handle.iteration_cap})",
            RuntimeWarning,
            stacklevel=2,
        )
    return tuple(sorted(current)), converged


def matroid_median_solve(
    inst: MetricInstance,
    matroid: MatroidOracle,
    params: CoresetParams,
    solver: SolverHandle,
    *,
    seed: int,
    rounds: int | None = None,
    prune: bool = False,
    baseline_budget: int = DEFAULT_ENUMERATION_BUDGET,
    heuristic_baseline: bool = False,
) -> Solution:
    """Outlier reduction with centers constrained to independent sets.

    The black box optimizes over matroid bases (exact enumeration, or the swap
    heuristic when the solver handle asks for local search); every returned
    center set is independent.
    """
    _check_matroid_instance(inst, matroid)
    if params.z != inst.z:
        raise ValueError(f"params.z={params.z} disagrees with instance z={inst.z}")
    rounds = default_rounds() if rounds is None else rounds
    _check_exact_engine(solver, prune)

    base = matroid_baseline(inst, matroid, baseline_budget, heuristic_baseline)
    rp = ring_partition(inst, base.centers, params.tau)
    bases = matroid_bases(matroid, solver.enumeration_budget)
    space = CandidateSpace.from_center_sets(bases)

    if solver.kind == "exact":
        generic_bb = None
    else:
        generic_bb = lambda p, w: matroid_local_search(
            inst.dist, p, w, matroid, inst.z, solver
        )[0]

    def objective(C):
        if not matroid.is_independent(C):
            raise AssertionError(f"candidate {C} is not independent")
        return (
            trimmed_cost(inst.dist, inst.clients, C, inst.m, inst.z),
            farthest_points(inst.dist, inst.clients, C, inst.m, inst.z),
        )

    best, _, _, _ = _run_rounds(
        inst,
        params,
        solver,
        rounds,
        seed,
        build_cs=lambda rng: build_coreset(rp, params, rng),
        enum_subsets=lambda cs: _enum_plain(cs, inst.m),
        space=space,
        generic_black_box=generic_bb,
        objective=objective,
        prune=prune,
        prune_ground=matroid.ground_set,
    )
    return best


def _enum_plain(cs: WeightedCoreset, m: int) -> Iterator[tuple[int, ...]]:
    from .reduction import enumerate_outlier_subsets

    return enumerate_outlier_subsets(cs, min(m, len(cs.union)))


def matroid_median_oracle(
    inst: MetricInstance,
    matroid: MatroidOracle,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Solution:
    """Exact matroid-constrained optimum: best basis under farthest-m trimming."""
    _check_matroid_instance(inst, matroid)
    bases = matroid_bases(matroid, budget)
    space = CandidateSpace.from_center_sets(bases)
    X = list(inst.clients)
    best_cost = math.inf
    best_idx = -1
    d = inst.power_distances(X, space.col_ids)
    keep = len(X) - inst.m
    offset = 0
    for chunk in space.chunks(len(X)):
        vals = d[:, chunk].min(axis=2)
        if keep == 0:
            costs = np.zeros(vals.shape[1])
        elif inst.m == 0:
            costs = vals.sum(axis=0)
        else:
            costs = np.partition(vals, keep - 1, axis=0)[:keep].sum(axis=0)
        j = int(np.argmin(costs))
        if costs[j] < best_cost:
            best_cost = float(costs[j])
            best_idx = offset + j
        offset += chunk.shape[0]
    centers = space.centers_at(best_idx)
    return Solution(
        centers=centers,
        outliers=farthest_points(inst.dist, X, centers, inst.m, inst.z),
        cost=trimmed_cost(inst.dist, X, centers, inst.m, inst.z),
        candidate_tag="oracle",
    )


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
    prune: bool = False,
    baseline_budget: int = DEFAULT_ENUMERATION_BUDGET,
    heuristic_baseline: bool = False,
) -> Solution:
    """Color-budgeted enumeration with matroid-feasible candidates."""
    inst = cinst.base
    _check_matroid_instance(inst, matroid)
    if params.z != inst.z:
        raise ValueError(f"params.z={params.z} disagrees with instance z={inst.z}")
    rounds = default_rounds() if rounds is None else rounds
    _check_exact_engine(solver, prune)

    base = matroid_baseline(inst, matroid, baseline_budget, heuristic_baseline)
    rp = ring_partition(inst, base.centers, params.tau)
    bases = matroid_bases(matroid, solver.enumeration_budget)
    space = CandidateSpace.from_center_sets(bases)

    if solver.kind == "exact":
        generic_bb = None
    else:
        generic_bb = lambda p, w: matroid_local_search(
            inst.dist, p, w, matroid, inst.z, solver
        )[0]

    def objective(C):
        if not matroid.is_independent(C):
            raise AssertionError(f"candidate {C} is not independent")
        return (colorful_cost(cinst, C), colorful_outliers(cinst, C))

    best, _, _, _ = _run_rounds(
        inst,
        params,
        solver,
        rounds,
        seed,
        build_cs=lambda rng: build_colored_coreset(rp, cinst, params, rng),
        enum_subsets=lambda ccs: enumerate_colorful_subsets(ccs, cinst.budgets),
        space=space,
        generic_black_box=generic_bb,
        objective=objective,
        prune=prune,
        prune_ground=matroid.ground_set,
    )
    return best


def colorful_matroid_oracle(
    cinst: ColorfulInstance,
    matroid: MatroidOracle,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Solution:
    """Exhaustive optimum over matroid bases under per-color trimming."""
    inst = cinst.base
    _check_matroid_instance(inst, matroid)
    bases = matroid_bases(matroid, budget)
    space = CandidateSpace.from_center_sets(bases)
    best_idx = _argmin_colorful(cinst, space, budget)
    centers = space.centers_at(best_idx)
    return Solution(
        centers=centers,
        outliers=colorful_outliers(cinst, centers),
        cost=colorful_cost(cinst, centers),
        candidate_tag="oracle",
    )
