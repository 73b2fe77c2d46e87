"""Baseline solve, concentric ring partition, and weighted coreset sampling.

The pipeline implemented here compresses an outlier clustering instance into a
small weighted point set:

1. Augment the instance (a facility co-located with every client, k+m centers,
   no outliers).  Its optimum lower-bounds the original optimum, because the
   outliers of any original solution can serve as extra centers.
2. Solve the augmented instance approximately (the baseline A).
3. Around each baseline center, split its clients into concentric rings whose
   radii double, starting from a lower bound R on the average radius.  Points
   within one ring are nearly interchangeable for any center set.
4. Keep small rings verbatim; sample large rings down to at most 2s entries
   with integer weights that conserve the ring's population exactly.

`sample_concentration_check` is a Monte-Carlo harness for the deviation bound
that justifies step 4; it is diagnostics, not a production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .matroids import MatroidOracle
from .metric import (
    DistanceOracle,
    MetricInstance,
    PointId,
    WeightedPointSet,
    _min_power_dists,
    _require_int,
    diameter,
    set_distance,
    trimmed_cost,
)
from .solvers import (
    CandidateSpace,
    SolverBudgetExceeded,
    SolverHandle,
    _exhaustive,
    _single_swap,
)

DEFAULT_BASELINE_EXACT_BUDGET = 50_000


@dataclass(frozen=True)
class CoresetParams:
    """Knobs of the coreset construction.

    ``mode="theory"`` sizes samples by the analysis formula,
    ``mode="practical"`` uses the explicit ``practical_s``.  At z = 1 the
    formula's s is modest (73 to 86 per ring with the default constants
    for n from 203 to 5,002, k = 2 or 3 and m = 2); only the ``2**(c_prime
    * z)`` factor for z > 1 makes it huge (about 2 * 10**7 at z = 2).
    ``tau`` is the guarantee assumed of the baseline solver, ``lam`` the
    failure probability budget, ``c_theory``/``c_prime`` the two free
    constants of the theory sizing.  The exponent z is the instance's:
    `build_coreset` passes the ring partition's z to `sample_size`.
    """

    epsilon: float = 0.5
    lam: float = 0.1
    tau: float = 1.0
    c_theory: float = 1.0
    c_prime: float = 9.0
    mode: str = "practical"
    practical_s: int | None = None

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0 < self.lam < 1:
            raise ValueError("lam must be in (0, 1)")
        if not 1 <= self.tau < math.inf:
            raise ValueError("tau must be >= 1 and finite")
        if self.mode not in ("theory", "practical"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "practical":
            if self.practical_s is None or _require_int(self.practical_s, "practical_s") < 1:
                raise ValueError("practical mode needs practical_s >= 1")

    def sample_size(self, n: int, k: int, m: int, z: float) -> int:
        """Per-ring sample size s (n is the instance size, z its exponent)."""
        if self.mode == "practical":
            return self.practical_s
        base = (
            self.c_theory
            * self.tau**2
            / self.epsilon**2
            * (m + k * math.log(n) + math.log(1.0 / self.lam))
        )
        if z > 1:
            base *= 2.0 ** (self.c_prime * z)
        return max(1, math.ceil(base))


@dataclass(frozen=True)
class BaselineResult:
    """Centers of the augmented instance plus the guarantee they carry."""

    centers: tuple[PointId, ...]
    cost: float
    method: str  # "exact" | "local_search"
    tau_guarantee: float | None  # None = heuristic (no factor claimed)
    converged: bool


def build_augmented_instance(inst: MetricInstance) -> MetricInstance:
    """Outlier-free companion instance: facilities F + X, k+m centers, m=0."""
    facilities = tuple(sorted(set(inst.facilities) | set(inst.clients)))
    return replace(inst, facilities=facilities, k=inst.k + inst.m, m=0)


def baseline_solve(
    inst_aug: MetricInstance,
    exact_budget: int = DEFAULT_BASELINE_EXACT_BUDGET,
) -> BaselineResult:
    """Solve the (outlier-free) augmented instance, exactly while its center
    sets number at most ``exact_budget``, else by single-swap local search."""
    if inst_aug.m != 0:
        raise ValueError("baseline expects an outlier-free instance (m = 0)")
    try:
        space = CandidateSpace.subsets(inst_aug.facilities, inst_aug.k, exact_budget)
    except SolverBudgetExceeded:
        space = None
    return _baseline(inst_aug, space)


def _baseline(
    aug: MetricInstance,
    space: CandidateSpace | None,
    matroid: MatroidOracle | None = None,
) -> BaselineResult:
    """The one baseline body, and the only place a solver's guarantee is
    stated: the best set of ``space`` (tau = 1) or, without one, single-swap
    local search with its swaps kept independent in ``matroid``, a
    5-approximation only for z = 1, a converged search and no matroid;
    otherwise no factor is claimed (``None``), as a capped search need not
    be a local optimum."""
    X = aug.clients
    exact = space is not None
    if exact:
        centers, converged = _exhaustive(aug.dist, X, None, space, aug.z), True
    else:
        centers, converged = _single_swap(
            aug.dist, X, None, aug.facilities, aug.k, aug.z,
            SolverHandle.local_search(), matroid,
        )
    tau = 1.0 if exact else 5.0 if aug.z == 1.0 and converged and matroid is None else None
    cost = trimmed_cost(aug.dist, X, centers, 0, aug.z)
    return BaselineResult(centers, cost, "exact" if exact else "local_search", tau, converged)


@dataclass(frozen=True)
class RingPartition:
    """Clients split per baseline center into doubling distance bands.

    Ring (i, j) holds the clients assigned to center i whose distance lies in
    (2**(j-1) R, 2**j R], with band 0 the closed ball of radius R.  Only
    nonempty rings are stored.  ``delta0`` is the powered baseline cost; when
    it is zero, R is zero and every client sits in its center's band 0.
    """

    baseline: tuple[PointId, ...]
    R: float
    phi: int
    rings: dict[tuple[int, int], tuple[PointId, ...]]
    assignment: dict[PointId, int]
    delta0: float
    z: float
    k: int
    m: int
    n_instance: int


def ring_partition(inst: MetricInstance, A: Sequence[PointId], tau: float) -> RingPartition:
    """Assign clients to nearest baseline centers and band them by distance.

    R = (delta0 / (tau * |X|)) ** (1/z) and phi = ceil(log2(tau * |X|)); band
    upper boundaries are closed (a client at distance exactly 2**j R lands in
    band j).  Ties in the nearest-center assignment go to the lowest center
    index.
    """
    if len(A) == 0:
        raise ValueError("baseline center set must be nonempty")
    if not 1 <= tau < math.inf:
        raise ValueError("tau must be >= 1 and finite")
    A = tuple(int(a) for a in A)
    X = list(inst.clients)
    D = inst.dist.pairwise(X, A)
    assign = D.argmin(axis=1)  # first occurrence = lowest center index
    dists = D[np.arange(len(X)), assign]
    powered = dists if inst.z == 1.0 else dists**inst.z
    delta0 = math.fsum(powered.tolist())

    n_x = len(X)
    phi = max(0, math.ceil(math.log2(tau * n_x)))
    if delta0 == 0.0:
        R = 0.0  # perfect baseline: every client sits in its center's band 0
        bands = np.zeros(n_x, dtype=np.intp)
    else:
        R = (delta0 / (tau * n_x)) ** (1.0 / inst.z)
        bands = _bands(dists, R, phi)
    rings: dict[tuple[int, int], list[PointId]] = {}
    for p, key in zip(X, zip(assign.tolist(), bands.tolist())):
        rings.setdefault(key, []).append(p)

    return RingPartition(
        baseline=A,
        R=R,
        phi=phi,
        rings={key: tuple(sorted(v)) for key, v in sorted(rings.items())},
        assignment={int(p): int(i) for p, i in zip(X, assign)},
        delta0=delta0,
        z=inst.z,
        k=inst.k,
        m=inst.m,
        n_instance=inst.n,
    )


def _bands(dists: np.ndarray, R: float, phi: int) -> np.ndarray:
    """Band of every distance: the least j with d <= 2**j R, so band 0 for
    d <= R.  The outermost band 2**phi R tolerates relative rounding of
    1e-9; a distance beyond that is a RuntimeError."""
    bounds = R * 2.0 ** np.arange(phi + 1)
    far = dists[dists > bounds[phi] * (1.0 + 1e-9)]
    if len(far):
        raise RuntimeError(f"distance {float(far[0])} exceeds the outermost band 2**{phi} * {R}")
    return np.minimum(np.searchsorted(bounds, dists), phi)


@dataclass(frozen=True)
class RingBoundReport:
    """Both ring sums against their provable multiples of the baseline cost."""

    radius_sum: float
    radius_bound: float
    diameter_sum: float
    diameter_bound: float
    z: float
    delta0: float
    passed: bool


def verify_ring_bounds(rp: RingPartition, inst: MetricInstance) -> RingBoundReport:
    """Check sum |ring| * (2**j R)**z <= (1+2**z) * delta0 and the diameter analog.

    These inequalities are consequences of how R is defined, so they hold on
    every input; the report exists to exercise them.
    """
    z = rp.z
    radius_sum = math.fsum(
        len(pts) * (2.0**j * rp.R) ** z for (i, j), pts in rp.rings.items()
    )
    diameter_sum = math.fsum(
        len(pts) * (diameter(inst.dist, pts) ** z if len(pts) > 1 else 0.0)
        for pts in rp.rings.values()
    )
    factor = 1.0 + 2.0**z
    radius_bound = factor * rp.delta0
    diameter_bound = 2.0**z * factor * rp.delta0
    slack = 1e-12
    passed = radius_sum <= radius_bound * (1 + slack) + slack and diameter_sum <= (
        diameter_bound * (1 + slack) + slack
    )
    return RingBoundReport(
        radius_sum=radius_sum,
        radius_bound=radius_bound,
        diameter_sum=diameter_sum,
        diameter_bound=diameter_bound,
        z=z,
        delta0=rp.delta0,
        passed=passed,
    )


@dataclass(frozen=True)
class WeightedCoreset:
    """Per-ring weighted samples plus their flattened union.

    A ring is keyed (center, band), or (color, center, band) in the colorful
    coreset of `extensions.build_colored_coreset`; ``entry_rings[e]`` is the
    ring that produced union entry e.  Entries keep draw multiplicity: the
    same point drawn twice is two entries.
    """

    groups: dict[tuple[int, ...], WeightedPointSet]
    is_small: dict[tuple[int, ...], bool]
    union: WeightedPointSet
    entry_rings: tuple[tuple[int, ...], ...]
    sample_size: int

    def __len__(self) -> int:
        return len(self.union)

    @property
    def total_weight(self) -> int:
        return self.union.total_weight

    @property
    def lossless(self) -> bool:
        return all(self.is_small.values())


def coreset_size_bound(s: int, k: int, m: int, phi: int) -> int:
    """Provable cap on the number of coreset entries."""
    return 2 * s * (k + m) * (1 + phi)


def build_coreset(
    rp: RingPartition, params: CoresetParams, rng: np.random.Generator
) -> WeightedCoreset:
    """Sample every ring down to at most 2s weighted entries.

    Small rings (at most s points) are copied verbatim at weight 1.  A large
    ring is split: the first |ring| mod s points (lowest ids) stay verbatim at
    weight 1, and from the remaining multiple-of-s points we draw s points
    uniformly with replacement, each at the integer weight remainder/s.  Total
    weight equals the ring population exactly.

    Rings are processed in sorted (center, band) order, so a fixed rng state
    yields an identical coreset.
    """
    s = params.sample_size(rp.n_instance, rp.k, rp.m, rp.z)
    groups: dict[tuple[int, int], WeightedPointSet] = {}
    small: dict[tuple[int, int], bool] = {}
    union_pts: list[PointId] = []
    union_w: list[int] = []
    entry_rings: list[tuple[int, int]] = []

    for key in sorted(rp.rings):
        pts = rp.rings[key]  # sorted ascending
        if len(pts) <= s:
            wps = WeightedPointSet.unit(pts)
            small[key] = True
        else:
            r = len(pts) % s
            verbatim = pts[:r]
            pool = np.asarray(pts[r:], dtype=np.intp)
            w = len(pool) // s
            draws = rng.choice(pool, size=s, replace=True)
            wps = WeightedPointSet(
                tuple(verbatim) + tuple(int(p) for p in draws),
                (1,) * r + (int(w),) * s,
            )
            small[key] = False
        groups[key] = wps
        union_pts.extend(wps.points)
        union_w.extend(wps.weights)
        entry_rings.extend([key] * len(wps))
        if wps.total_weight != len(pts):
            raise RuntimeError(f"ring {key}: weight {wps.total_weight} != |ring| {len(pts)}")

    union = WeightedPointSet(tuple(union_pts), tuple(union_w))
    bound = coreset_size_bound(s, rp.k, rp.m, rp.phi)
    if len(union) > bound:
        raise RuntimeError(f"coreset has {len(union)} entries, above the bound {bound}")
    return WeightedCoreset(
        groups=groups,
        is_small=small,
        union=union,
        entry_rings=tuple(entry_rings),
        sample_size=s,
    )


# ---------------------------------------------------------------------------
# Monte-Carlo harness for the per-ring concentration bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleCheckConfig:
    """Parameters of the deviation bound being sampled.

    ``xi`` scales the allowed deviation, ``q`` is the largest trim count
    checked, ``lambda_prime`` the failure probability the bound promises.
    By default samples are subsets (without replacement), so a sample of size
    |V| is V itself; set ``with_replacement`` to mimic the coreset's own
    draw-with-replacement scheme.
    """

    xi: float
    q: int
    lambda_prime: float
    z: float = 1.0
    with_replacement: bool = False

    def __post_init__(self):
        if self.xi <= 0 or not 0 < self.lambda_prime < 1 or self.q < 0:
            raise ValueError("invalid concentration-check configuration")
        if not 1 <= self.z < math.inf:
            raise ValueError(f"z must be >= 1 and finite, got {self.z}")

    @property
    def sample_size(self) -> int:
        return math.ceil(4.0 / self.xi**2 * (self.q + math.log(2.0 / self.lambda_prime)))


@dataclass(frozen=True)
class ConcentrationReport:
    trials: int
    violations: int
    violation_fraction: float
    sample_size: int
    bound: float
    max_deviation: float
    mean_deviation: float
    diagnostics: dict[str, float]


def sample_concentration_check(
    dist: DistanceOracle,
    V: Sequence[PointId],
    C: Sequence[PointId],
    cfg: SampleCheckConfig,
    trials: int,
    rng: np.random.Generator,
) -> ConcentrationReport:
    """Estimate how often a uniform sample's trimmed cost strays off the full set's.

    Each trial draws ``cfg.sample_size`` points of V uniformly, without
    replacement unless ``cfg.with_replacement``, weights them |V|/|U|, and
    compares the weighted trimmed cost (trim floor(t|U|/|V|)) against the
    plain trimmed cost (trim t) for every t up to q <= |V|.  A trial violates
    if any t exceeds the deviation bound.  The violation fraction should stay
    around lambda_prime or (much) below.
    """
    n = len(V)
    if cfg.q > n:
        raise ValueError(f"q = {cfg.q} exceeds |V| = {n}: cannot trim more points than V has")
    s_prime = cfg.sample_size
    if n < s_prime:
        raise ValueError(f"|V| = {n} is below the required sample size {s_prime}")
    if trials < 1:
        raise ValueError("need at least one trial")

    z = cfg.z
    raw = _min_power_dists(dist, V, C, z)
    vals = np.sort(raw)
    prefix = np.concatenate([[0.0], np.cumsum(vals)])
    full_trimmed = [float(prefix[n - t]) for t in range(cfg.q + 1)]

    diam_v = diameter(dist, V)
    dist_vc = set_distance(dist, V, C)
    if z == 1.0:
        bound = cfg.xi * n * (diam_v + dist_vc)
    else:
        bound = 2.0 ** (2 * z + 2) * cfg.xi * n * (diam_v**z + dist_vc**z)

    w = n / s_prime
    violations = 0
    max_dev = 0.0
    dev_sum = 0.0
    for _ in range(trials):
        draws = rng.choice(n, size=s_prime, replace=cfg.with_replacement)
        u_vals = np.sort(raw[draws] * w)
        u_prefix = np.concatenate([[0.0], np.cumsum(u_vals)])
        worst = 0.0
        for t in range(cfg.q + 1):
            t_prime = (t * s_prime) // n
            dev = abs(full_trimmed[t] - float(u_prefix[s_prime - t_prime]))
            if dev > worst:
                worst = dev
        if worst > bound:
            violations += 1
        if worst > max_dev:
            max_dev = worst
        dev_sum += worst

    return ConcentrationReport(
        trials=trials,
        violations=violations,
        violation_fraction=violations / trials,
        sample_size=s_prime,
        bound=bound,
        max_deviation=max_dev,
        mean_deviation=dev_sum / trials,
        diagnostics={
            "h_V": float(prefix[n]),
            "eta_V": dist_vc,
            "diam_V": diam_v,
            "dist_V_C": dist_vc,
            "M": diam_v if z == 1.0 else 2.0 ** (2 * z + 2) * (dist_vc**z + diam_v**z),
        },
    )
