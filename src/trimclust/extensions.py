"""Variants of the outlier reduction: powered costs, per-color outlier
budgets, matroid-constrained centers, and their combination.

All variants share the round driver from `reduction` and the one
`WeightedCoreset`; they differ in how its rings are split (the colorful
coreset is the plain coreset of the rings split by color, keyed (color,
center, band)), which center sets are candidates (matroid bases instead of
all k-subsets), and how candidates are trimmed.  Every candidate, in a solve
or an oracle, is scored by one `metric.trimmed_score` call through
`reduction.evaluate_candidate`, under a colorful instance's ``groups`` (a
budget per color class) or by evicting the m farthest clients.
Each solve has an exhaustive oracle counterpart for testing, the plain
outlier problem's (`exact_outlier_oracle`) included.

Under a matroid, the local-search black box (the lockstep engine of
`reduction.per_subset_local_search`) and the heuristic baseline run the one
single-swap search of `solvers._local_search`, restricted to swaps that keep
the centers independent; no approximation factor is claimed.  Which swaps
those are, and which sets are bases, is decided by part counts for a
partition matroid (uniform, partition and direct sums of those; see
`matroids`) and by `is_independent` otherwise.  A solve enumerates the
matroid's bases at most once, for the candidate space and the baseline
together.  The matroid baseline builds only its candidates;
`coreset._baseline` states its guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .coreset import (
    BaselineResult,
    CoresetParams,
    RingPartition,
    WeightedCoreset,
    _baseline,
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
    _require_int,
    farthest_points,  # noqa: F401  (the benchmark's tracer wraps it here by name)
    trimmed_cost,  # noqa: F401  (the benchmark's tracer wraps it here by name)
)
from .reduction import (
    SubsetStream,
    _run_rounds,
    evaluate_candidate,
    per_subset_best_exact,  # noqa: F401  (the benchmark's tracer wraps it here by name)
)
from .matroids import (
    MatroidOracle,
    _basis_rows,
    direct_sum_matroid,
    matroid_bases,  # noqa: F401  (the benchmark's tracer wraps it here by name)
)
from .solvers import (
    DEFAULT_ENUMERATION_BUDGET,
    CandidateSpace,
    SolverBudgetExceeded,
    SolverHandle,
    _exhaustive,
    _single_swap,
    _up_to,
)

# ---------------------------------------------------------------------------
# colorful: per-color outlier budgets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColorfulInstance:
    """Clients carry colors 1..ell; color t may lose at most budgets[t-1] points.

    ``classes[t - 1]`` holds the clients of color t in client order, and
    ``groups`` one `trimmed_score` group ``(rows of base.clients, budget)``
    per nonempty class, in color order; both are built once, here.
    """

    base: MetricInstance
    colors: dict[PointId, int]
    budgets: tuple[int, ...]
    classes: tuple[tuple[PointId, ...], ...] = field(init=False, repr=False, compare=False)
    groups: tuple[tuple[np.ndarray, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        budgets = tuple(int(_require_int(b, "color budget")) for b in self.budgets)
        object.__setattr__(self, "budgets", budgets)
        ell = len(self.budgets)
        if ell < 1:
            raise ValueError("need at least one color class")
        if set(self.colors) != set(self.base.clients):
            raise ValueError("colors must cover exactly the clients")
        rows: list[list[int]] = [[] for _ in range(ell)]
        for i, p in enumerate(self.base.clients):
            t = self.colors[p]
            if not isinstance(t, (int, np.integer)) or not 1 <= t <= ell:
                raise ValueError(f"client {p} has color {t!r}, not an integer in 1..{ell}")
            rows[t - 1].append(i)
        if sum(self.budgets) != self.base.m:
            raise ValueError("color budgets must sum to the instance's m")
        for t, (r, budget) in enumerate(zip(rows, self.budgets), start=1):
            if budget > len(r):
                raise ValueError(f"budget of color {t} exceeds its class size")
        clients = self.base.clients
        object.__setattr__(self, "classes", tuple(tuple(clients[i] for i in r) for r in rows))
        object.__setattr__(self, "groups", tuple(
            (np.asarray(r, dtype=np.intp), budget) for r, budget in zip(rows, self.budgets) if r
        ))


def colorful_cost(cinst: ColorfulInstance, C: Sequence[PointId]) -> float:
    """Sum over colors of the per-color trimmed cost."""
    return evaluate_candidate(C, cinst.base, cinst.groups)[0]


def colorful_outliers(cinst: ColorfulInstance, C: Sequence[PointId]) -> tuple[PointId, ...]:
    """Per-color farthest clients, concatenated in color order."""
    return evaluate_candidate(C, cinst.base, cinst.groups)[1]


def build_colored_coreset(
    rp: RingPartition,
    cinst: ColorfulInstance,
    params: CoresetParams,
    rng: np.random.Generator,
) -> WeightedCoreset:
    """The coreset of the rings split by color: `build_coreset` samples each
    color's share of the rings, colors in order, and the merged coreset is
    keyed (color, center, band), color-major."""
    split: dict[int, dict[tuple[int, int], list[PointId]]] = {}
    for key, pts in rp.rings.items():
        for p in pts:
            split.setdefault(int(cinst.colors[p]), {}).setdefault(key, []).append(p)
    parts = []
    for t in sorted(split):
        rings = {key: tuple(v) for key, v in split[t].items()}
        parts.append((t, build_coreset(replace(rp, rings=rings), params, rng)))
    return WeightedCoreset(
        groups={(t, *key): g for t, cs in parts for key, g in cs.groups.items()},
        is_small={(t, *key): v for t, cs in parts for key, v in cs.is_small.items()},
        union=WeightedPointSet(
            tuple(p for _, cs in parts for p in cs.union.points),
            tuple(w for _, cs in parts for w in cs.union.weights),
        ),
        entry_rings=tuple((t, *key) for t, cs in parts for key in cs.entry_rings),
        sample_size=params.sample_size(rp.n_instance, rp.k, rp.m, rp.z),
    )


def enumerate_colorful_subsets(cs: WeightedCoreset, budgets: Sequence[int]) -> SubsetStream:
    """Entry subsets that respect every color budget, built per color.

    Each entry's color is the first field of its ring, ``cs.entry_rings[e]
    = (color, center, band)`` as `build_colored_coreset` keys it.  Per color
    the subsets of size 0..budget are generated in (size, lex)
    order (`_up_to`); the stream is their cartesian product across colors,
    the first color varying slowest, each subset's entries sorted.
    Budget-aware generation keeps the stream small and complete: any feasible
    eviction trace remains enumerable.  The layout is
    `enumerate_outlier_subsets`'s: a `SubsetStream` at least one entry wide,
    padded with ``n = len(cs.union)``, which sorts last.  Its length is the
    product of the per-color counts; each block unranks its range of the
    product into the per-color choices and sorts each subset.
    """
    n = len(cs.union)
    colors = np.asarray([ring[0] for ring in cs.entry_rings], dtype=np.intp)
    options = []
    for t in range(1, len(budgets) + 1):
        idx = np.flatnonzero(colors == t)
        cap = min(budgets[t - 1], len(idx))
        # positions in the class, padded with len(idx), which maps to n
        options.append(np.append(idx, n)[_up_to(len(idx), cap, cap, len(idx))])
    count = math.prod(opt.shape[1] for opt in options)
    width = max(1, sum(len(opt) for opt in options))

    def write(block, lo):
        rank, row = np.arange(lo, lo + block.shape[1]), width
        for opt in reversed(options):  # the last color varies fastest
            rank, pick = np.divmod(rank, opt.shape[1])
            row -= len(opt)
            # take gathers along axis 1 several times faster than fancy
            # indexing (2 x 16,384 entries: 23 against 157 us)
            np.take(opt, pick, axis=1, out=block[row : row + len(opt)], mode="clip")
        block[:row] = n  # every cap is 0: the one row is padding
        _sort_columns(block)

    return SubsetStream(count, width, lambda: write)


def _sort_columns(block: np.ndarray) -> None:
    """Sort each column of ``block`` in place by odd-even transposition:
    ``len(block)`` rounds of compare-exchanges between adjacent rows, each an
    elementwise minimum and maximum of two contiguous rows.  On the few rows
    of a subset block that takes about a tenth of ``sort(axis=0)``'s time
    (3 x 16,384 entries: 50 against 555 us)."""
    low = np.empty(block.shape[1], dtype=block.dtype)
    for r in range(len(block)):
        for i in range(r % 2, len(block) - 1, 2):
            np.minimum(block[i], block[i + 1], out=low)
            np.maximum(block[i], block[i + 1], out=block[i + 1])
            block[i] = low


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
    *,
    bases: Callable[[], np.ndarray] | None = None,
) -> BaselineResult:
    """Baseline for the matroid variant: centers independent in the direct sum.

    When (bases of the matroid) x (m-subsets of the clients) fits ``budget``,
    every such union is a candidate, bases varying slowest, and the best is
    found exactly (tau = 1).  Otherwise, or when the bases alone exceed
    ``budget``, it is the independence-respecting local search over the
    direct sum, with no claimed factor.  The client picks are counted before
    any of them is built; `coreset._baseline` solves.  ``bases`` returns
    ``matroid._basis_rows(matroid, budget)``; a solve passes the one array
    its candidate space reads.
    """
    try:
        rows = _basis_rows(matroid, budget) if bases is None else bases()
    except SolverBudgetExceeded:
        rows = None
    space = None
    if rows is not None and len(rows) * math.comb(len(inst.clients), inst.m) <= budget:
        ids = np.union1d(matroid.ground_set, inst.clients)
        found = np.asarray(matroid.ground_set, dtype=np.intp)[rows]
        picks = np.array(list(combinations(sorted(inst.clients), inst.m)), dtype=np.intp)
        sets = np.hstack([np.repeat(found, len(picks), axis=0), np.tile(picks, (len(found), 1))])
        sets = np.searchsorted(ids, np.sort(sets, axis=1))
        space = CandidateSpace(tuple(ids.tolist()), SubsetStream.from_rows(sets))
    m_aug = direct_sum_matroid(matroid, inst.clients, inst.m)
    return _baseline(build_augmented_instance(inst), space, m_aug)


def matroid_local_search(
    dist,
    points: Sequence[PointId],
    weights: Sequence[float] | None,
    matroid: MatroidOracle,
    z: float,
    handle: SolverHandle,
) -> tuple[tuple[PointId, ...], bool]:
    """Single swaps among bases of the matroid; heuristic, no factor claimed.

    The one single-swap search of `solvers._single_swap`, restricted to
    independent swaps: it starts from the greedy basis (ascending ids) and
    makes the cheapest independent swap that clears the threshold until none
    does.  Returns the centers and whether the search converged.
    """
    return _single_swap(
        dist, points, weights, matroid.ground_set, matroid.rank, z, handle, matroid
    )


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
    inst: MetricInstance, matroid: MatroidOracle | None, budget: int, bases=None
) -> CandidateSpace:
    """Every k-subset of the facilities, or the matroid's bases over its
    ground set (refused over budget; ``bases`` returns their rows, as in
    `matroid_baseline`)."""
    if matroid is None:
        return CandidateSpace.subsets(inst.facilities, inst.k, budget)
    rows = _basis_rows(matroid, budget) if bases is None else bases()
    return CandidateSpace(matroid.ground_set, SubsetStream.from_rows(rows))


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
    the candidate space and the swaps of the local-search black box, and
    every candidate is checked for independence.  The matroid's bases are
    enumerated at most once: by the candidate space, which the exact black
    box builds before the baseline runs, or else by the baseline.
    """
    budget = solver.enumeration_budget
    bases = None
    if matroid is None:
        baseline = lambda: baseline_solve(build_augmented_instance(inst))
    else:
        _check_matroid_instance(inst, matroid)
        bases = cache(lambda: _basis_rows(matroid, budget))
        baseline = lambda: matroid_baseline(inst, matroid, budget, bases=bases)
    if cinst is None:
        build_cs = lambda rp, rng: build_coreset(rp, params, rng)
        enum_subsets = None
    else:
        build_cs = lambda rp, rng: build_colored_coreset(rp, cinst, params, rng)
        enum_subsets = lambda cs: enumerate_colorful_subsets(cs, cinst.budgets)
    return _run_rounds(
        inst, params, solver, seed=seed, rounds=rounds,
        space=lambda: _candidates(inst, matroid, budget, bases),
        baseline=baseline,
        build_cs=build_cs,
        enum_subsets=enum_subsets,
        # `is_independent` is looked up per call, so a wrapped one sees the
        # rescored candidates, and every test of a matroid without a part form
        matroid=matroid,
        groups=None if cinst is None else cinst.groups,
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
    space = _candidates(inst, matroid, budget)
    groups = [(slice(None), inst.m)] if cinst is None else cinst.groups
    centers = _exhaustive(inst.dist, inst.clients, None, space, inst.z, groups)
    cost, outliers = evaluate_candidate(centers, inst, groups)
    return Solution(centers=centers, outliers=outliers, cost=cost, candidate_tag="oracle")
