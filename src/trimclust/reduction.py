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

The exact black box admits heavy amortization across subsets (the per-point,
per-candidate distance minima do not depend on the evicted subset), so the
round loop uses a batched engine for it.  Per chunk of candidate sets the engine
computes the weighted minima ``wm = w * min_d`` once; the cost of evicting T
is the full weighted sum minus ``wm[T0] + wm[T1] + ...``, added in T's own
order.  Subsets are grouped by size, so each size is one numpy gather-sum
over an ``(n_T, size)`` index array, worked through in row blocks of about
``_BLOCK_ELEMENTS`` costs, which bounds the engine's extra memory by the
block and not by the number of subsets.  Only the distinct winning candidates
are unranked into center tuples.  The generic per-subset path remains for
local search and for differential testing; both return the same answers
except where two candidates' costs differ only by rounding.
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
    SolverBudgetExceeded,
    SolverHandle,
    solve_outlier_free,
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


def _subsets_by_size(
    subsets: Sequence[tuple[int, ...]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(positions, (n_T, size) entry indices) for each subset size present."""
    sizes = np.fromiter(map(len, subsets), dtype=np.intp, count=len(subsets))
    flat = np.fromiter(
        chain.from_iterable(subsets), dtype=np.intp, count=int(sizes.sum())
    )
    starts = np.cumsum(sizes) - sizes
    groups = []
    for size in np.unique(sizes):
        pos = np.flatnonzero(sizes == size)
        groups.append((pos, flat[starts[pos][:, None] + np.arange(size)]))
    return groups


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

    For each subset T the minimizing candidate set of ``wcost(S \\ T, C)`` is
    found, with ties toward the earliest candidate in enumeration order (the
    lexicographically smallest center tuple).  Raises SolverBudgetExceeded if
    the candidate space itself is too large.

    Per candidate chunk, ``wm = w * min_d`` holds every entry's weighted
    distance to every candidate set, and the cost of T is
    ``w @ min_d - (wm[T0] + wm[T1] + ...)``, the evicted rows added in T's own
    order.  Subsets are grouped by size so each group is one gather-sum over
    an ``(n_T, size)`` index array, taken in row blocks of about
    ``_BLOCK_ELEMENTS`` costs so memory stays bounded whatever the number of
    subsets.  Only the distinct winning candidates are unranked.
    """
    if space.count > budget:
        raise SolverBudgetExceeded(
            f"{space.count} candidate center sets exceed budget {budget}"
        )
    if space.count == 0:
        raise ValueError("empty candidate space")
    d = dist.pairwise(points, space.col_ids)
    if z != 1.0:
        d = d**z
    w = np.asarray(weights, dtype=float)
    groups = _subsets_by_size(subsets)
    best_cost = np.full(len(subsets), np.inf)
    best_idx = np.full(len(subsets), -1, dtype=np.int64)
    offset = 0
    for chunk in space.chunks(len(points)):
        min_d = d[:, chunk].min(axis=2)  # (n_points, chunk_size)
        full = w @ min_d
        wm = w[:, None] * min_d
        per = max(1, _BLOCK_ELEMENTS // min_d.shape[1])
        for pos, rows in groups:
            for lo in range(0, len(pos), per):
                block = rows[lo : lo + per]
                if block.shape[1] == 0:
                    costs = np.broadcast_to(full, (len(block), len(full)))
                else:
                    removed = wm[block[:, 0]]
                    for col in range(1, block.shape[1]):
                        removed += wm[block[:, col]]
                    costs = np.subtract(full, removed, out=removed)
                j = costs.argmin(axis=1)
                vals = costs[np.arange(len(j)), j]
                p = pos[lo : lo + per]
                better = vals < best_cost[p]
                best_cost[p[better]] = vals[better]
                best_idx[p[better]] = offset + j[better]
        offset += chunk.shape[0]
    winners, which = np.unique(best_idx, return_inverse=True)
    if len(winners) and winners[0] < 0:
        raise ValueError("no candidate center set has a finite cost")
    centers = [space.centers_at(int(i)) for i in winners]
    return [centers[i] for i in which.tolist()]


def _check_exact_engine(solver: SolverHandle, prune: bool, space: CandidateSpace) -> None:
    """Refuse up front what the batched exact engine would only find out late.

    The exact black box answers every subset of a round in one batched call,
    so there is no per-subset call for pruning to skip.  A k-subset candidate
    space over the solver's budget would be refused in every round, after the
    baseline had already run.
    """
    if prune:
        raise ValueError(
            "pruning applies only to per-subset black-box calls (local search); "
            "the exact black box answers all subsets in one batched call"
        )
    if space.count > solver.enumeration_budget:
        raise SolverBudgetExceeded(
            f"{space.count} candidate center sets exceed the exact solver's "
            f"budget {solver.enumeration_budget}"
        )


@dataclass(frozen=True)
class RoundRecord:
    round: int
    stream: tuple[int, ...]
    coreset_size: int
    coreset_lossless: bool
    best_cost: float | None
    evaluated: int
    skipped: int


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of the full enumeration-and-select driver."""

    best: Solution
    candidates_evaluated: int
    skipped: int
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
    prune: bool,
    space: Callable[[], CandidateSpace],
    baseline: Callable[[], BaselineResult],
    build_cs: Callable[[RingPartition, np.random.Generator], object],
    objective: Callable[[tuple[PointId, ...]], tuple[float, tuple[PointId, ...]]],
    enum_subsets: Callable[[object], Iterator[tuple[int, ...]]] | None = None,
    black_box: Callable[[np.ndarray, np.ndarray], tuple[PointId, ...]] | None = None,
    prune_ground: Sequence[PointId] | None = None,
) -> ReductionReport:
    """The one solve driver behind every solve entry point.

    Checks the arguments, builds the candidate space when the exact black box
    will read it (so an over-budget space is refused before the baseline
    runs; local search never reads it), then runs the baseline, the ring
    partition and the rounds.  ``build_cs`` may return any coreset flavor
    exposing ``union`` (a WeightedPointSet) and ``lossless``; ``enum_subsets``
    receives it whole so variant-specific enumeration (per-color budgets) can
    see the provenance, and defaults to every subset of at most m entries.
    ``black_box`` answers one subset at a time and defaults to the configured
    outlier-free solver; the exact solver answers a round in one batched call.
    """
    if params.z != inst.z:
        raise ValueError(f"params.z={params.z} disagrees with instance z={inst.z}")
    rounds = default_rounds() if rounds is None else rounds
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if solver.kind == "exact":  # only the exact black box reads the candidate space
        cands = space()
        _check_exact_engine(solver, prune, cands)
    base = baseline()
    rp = ring_partition(inst, base.centers, params.tau)
    if enum_subsets is None:
        enum_subsets = lambda cs: enumerate_outlier_subsets(cs, min(inst.m, len(cs.union)))

    best: Solution | None = None
    records: list[RoundRecord] = []
    total_eval = 0
    total_skip = 0
    for r in range(rounds):
        rng = generator_for(seed, TAG_ROUND, r)
        cs = build_cs(rp, rng)
        union = cs.union
        pts, w = union.as_arrays()
        subsets = list(enum_subsets(cs))
        round_best: float | None = None
        evaluated = 0
        skipped = 0
        seen: set[tuple[PointId, ...]] = set()
        answers_seen: set[tuple[PointId, ...]] = set()

        if solver.kind == "exact":
            answers = per_subset_best_exact(
                inst.dist, pts, w, cands, inst.z, subsets, solver.enumeration_budget
            )
        else:
            answers = _per_subset_generic(
                inst, pts, w, subsets, black_box, solver,
                prune=prune, prune_ground=prune_ground,
                incumbent=lambda: best.cost if best is not None else math.inf,
            )

        for T, centers in zip(subsets, answers):
            if centers is None:
                skipped += 1
                continue
            # answers repeat heavily: skip a repeated answer before sorting it
            if centers in answers_seen:
                continue
            answers_seen.add(centers)
            key = tuple(sorted(centers))
            if key in seen:
                continue
            seen.add(key)
            cost, outliers = objective(key)
            evaluated += 1
            if round_best is None or cost < round_best:
                round_best = cost
            if best is None or cost < best.cost:
                tag = f"r{r}:T{','.join(map(str, T))}"
                best = Solution(centers=key, outliers=outliers, cost=cost, candidate_tag=tag)
        total_eval += evaluated
        total_skip += skipped
        records.append(
            RoundRecord(
                round=r,
                stream=(TAG_ROUND, r),
                coreset_size=len(union),
                coreset_lossless=cs.lossless,
                best_cost=round_best,
                evaluated=evaluated,
                skipped=skipped,
            )
        )
    if best is None:
        raise RuntimeError("every candidate was refused by the black-box solver")
    eps = params.epsilon
    return ReductionReport(
        best=best,
        candidates_evaluated=total_eval,
        skipped=total_skip,
        rounds=rounds,
        per_round=tuple(records),
        seed=seed,
        baseline=base,
        epsilon_factor=(1 + eps) / (1 - eps),
    )


def _per_subset_generic(
    inst: MetricInstance,
    pts: np.ndarray,
    w: np.ndarray,
    subsets: Sequence[tuple[int, ...]],
    black_box: Callable[[np.ndarray, np.ndarray], tuple[PointId, ...]] | None,
    solver: SolverHandle,
    prune: bool,
    prune_ground: Sequence[PointId] | None,
    incumbent: Callable[[], float],
) -> Iterator[tuple[PointId, ...] | None]:
    """Per-subset black-box calls, optionally skipping provably useless subsets.

    The pruning bound: each kept entry costs at least its weighted distance to
    the nearest point of the candidate ground, so if that total already beats
    the incumbent the subset cannot produce a better candidate.
    """
    bb = black_box or (
        lambda p, ww: solve_outlier_free(
            inst.dist, p, ww, inst.facilities, inst.k, inst.z, solver
        )
    )
    lower = None
    if prune:
        ground = tuple(prune_ground if prune_ground is not None else inst.facilities)
        dmin = inst.dist.pairwise(pts, ground).min(axis=1)
        if inst.z != 1.0:
            dmin = dmin**inst.z
        lower = dmin * w
    total_lower = float(lower.sum()) if lower is not None else 0.0

    for T in subsets:
        if lower is not None:
            lb = total_lower - (float(lower[list(T)].sum()) if T else 0.0)
            if lb > incumbent():
                yield None
                continue
        mask = np.ones(len(pts), dtype=bool)
        if T:
            mask[list(T)] = False
        try:
            yield bb(pts[mask], w[mask])
        except SolverBudgetExceeded:
            yield None


def solve_with_outliers(
    inst: MetricInstance,
    params: CoresetParams,
    solver: SolverHandle,
    *,
    seed: int,
    rounds: int | None = None,
    prune: bool = False,
    baseline_exact_budget: int | None = None,
) -> ReductionReport:
    """Full pipeline: baseline, rings, coreset, subset enumeration, selection.

    Per round a fresh coreset is drawn (stream (TAG_ROUND, r) under ``seed``);
    the baseline and ring partition are deterministic and shared.  The best
    candidate across all rounds is returned, with its cost re-evaluated on the
    original instance.
    """
    kwargs = {} if baseline_exact_budget is None else {"exact_budget": baseline_exact_budget}
    return _run_rounds(
        inst, params, solver, seed=seed, rounds=rounds, prune=prune,
        space=lambda: CandidateSpace.subsets(inst.facilities, inst.k),
        baseline=lambda: baseline_solve(build_augmented_instance(inst), **kwargs),
        build_cs=lambda rp, rng: build_coreset(rp, params, rng),
        objective=lambda C: evaluate_candidate(C, inst),
    )
