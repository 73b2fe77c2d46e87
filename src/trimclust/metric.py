"""Metric instances, distance oracles, and trimmed cost functions.

A *universe* is a fixed, finite collection of points identified by integers
``0 .. n_points-1``.  Clients and facilities of an instance are subsets of one
universe, so a point may play both roles (a facility co-located with a client
is simply the same id appearing in both lists).

Costs are powered distances ``d(p, C)**z`` with ``z >= 1`` (``z=1`` is the
median objective, ``z=2`` the means objective).  The trimmed variants drop the
largest values, which is exactly what declaring points as outliers does once a
center set is fixed.  Every trimming of the original clients, whether of the m
farthest or of a budget per color, is one call of `trimmed_score`: one
distance block per center set, the cost and the evicted clients together.

All cost aggregation uses ``math.fsum`` so a sum depends only on the multiset
of values, not on accumulation order.  That makes equalities such as
"trimmed cost == plain cost over the non-evicted points" hold bit-for-bit.

`EuclideanOracle` adds the squared coordinate differences first coordinate
to last, then takes the square root: scipy's ``cdist`` order, so every
distance is cdist's float, ``inf`` past the float range included.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

PointId = int

_TRIANGLE_CHECK_SEED = 0x7461_6272  # fixed; the check must not consume user randomness
# entries per row chunk of `EuclideanOracle.pairwise` (256 KB of float64):
# the passes over one chunk stay in cache, and a block of up to 181 x 181
# is one chunk
_PAIRWISE_CHUNK = 32_768


def _check_finite(values: np.ndarray, what: str) -> None:
    """Reject NaN and inf, which would make every cost comparison false."""
    bad = ~np.isfinite(values)
    if bad.any():
        where = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"{what} must be finite; entry {where} is {float(values[where])}")


def _require_int(value, what: str):
    """``value`` if it is an integer (numpy integers pass); a float size, count
    or seed would otherwise fail deep inside a solve or be silently truncated."""
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


class DistanceOracle:
    """Read-only pairwise distances over a fixed universe of points."""

    n_points: int

    def pairwise(self, a: Sequence[PointId], b: Sequence[PointId]) -> np.ndarray:
        """Distance block ``D[i, j] = d(a[i], b[j])``."""
        raise NotImplementedError

    def d(self, p: PointId, q: PointId) -> float:
        return float(self.pairwise([p], [q])[0, 0])


class MatrixOracle(DistanceOracle):
    """Distances backed by an explicit symmetric matrix.

    Every matrix is checked when the oracle is built, with no way to skip
    it: finiteness, nonnegativity, symmetry and the zero diagonal in full,
    the triangle inequality on a sample of triples (the matrix is user data,
    so we check rather than assume).
    """

    def __init__(self, matrix, triangle_samples: int = 200):
        m = np.ascontiguousarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("distance matrix must be square")
        _check_finite(m, "distance matrix")
        if m.size and m.min() < 0.0:
            raise ValueError("distances must be nonnegative")
        if np.any(np.diagonal(m) != 0.0):
            raise ValueError("self-distances must be exactly zero")
        if np.any(m != m.T):
            raise ValueError("distance matrix must be symmetric")
        self._check_triangle(m, triangle_samples)
        self.matrix = m
        self.n_points = m.shape[0]

    @staticmethod
    def _check_triangle(m: np.ndarray, samples: int) -> None:
        n = m.shape[0]
        if n < 3:
            return
        rng = np.random.default_rng(_TRIANGLE_CHECK_SEED)
        triples = rng.integers(0, n, size=(samples, 3))
        a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]
        slack = 1e-9 * (1.0 + m.max())
        bad = m[a, c] > m[a, b] + m[b, c] + slack
        if np.any(bad):
            i = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"triangle inequality violated on triple {tuple(triples[i])}: "
                f"d={m[a[i], c[i]]!r} > {m[a[i], b[i]]!r} + {m[b[i], c[i]]!r}"
            )

    def pairwise(self, a, b):
        a = np.asarray(a, dtype=np.intp)
        b = np.asarray(b, dtype=np.intp)
        return self.matrix[np.ix_(a, b)]


class EuclideanOracle(DistanceOracle):
    """Distances computed on demand from point coordinates (row i = point i)."""

    def __init__(self, coords):
        c = np.ascontiguousarray(coords, dtype=float)
        if c.ndim != 2:
            raise ValueError("coords must be a 2-D array (n_points, dimension)")
        if c.shape[1] < 1:
            raise ValueError("coords need at least one dimension")
        _check_finite(c, "coords")
        self.coords = c
        self.n_points = c.shape[0]
        self._columns = np.ascontiguousarray(c.T)  # one row per coordinate

    def pairwise(self, a, b):
        """cdist's Euclidean block, bit for bit: per entry the squared
        coordinate differences are added in coordinate order, then rooted.
        Rows go in chunks of about ``_PAIRWISE_CHUNK`` entries, each written
        straight into the one result block, so every pass stays in cache."""
        a = np.asarray(a, dtype=np.intp)
        b = np.asarray(b, dtype=np.intp)
        (first_a, first_b), *others = [(col[a], col[b]) for col in self._columns]
        total = np.empty((len(a), len(b)))
        per = max(1, _PAIRWISE_CHUNK // max(1, len(b)))
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, len(a), per):
                out = total[lo : lo + per]
                np.subtract.outer(first_a[lo : lo + per], first_b, out=out)
                out *= out
                for col_a, col_b in others:
                    diff = np.subtract.outer(col_a[lo : lo + per], col_b)
                    diff *= diff
                    out += diff
                np.sqrt(out, out=out)
        return total


@dataclass(frozen=True)
class MetricInstance:
    """An outlier clustering instance: clients X, facilities F, k, m, and z.

    ``m`` clients may be discarded from the objective; ``z`` is the distance
    exponent, finite and at least 1, and every solve reads it from here.
    ``m = 0`` is the plain (outlier-free) problem.
    """

    clients: tuple[PointId, ...]
    facilities: tuple[PointId, ...]
    dist: DistanceOracle
    k: int
    m: int = 0
    z: float = 1.0

    def __post_init__(self):
        try:  # `operator.index` takes Python and numpy integers, not a float
            object.__setattr__(self, "clients", tuple(map(operator.index, self.clients)))
            object.__setattr__(self, "facilities", tuple(map(operator.index, self.facilities)))
        except TypeError:
            ids = (*self.clients, *self.facilities)
            bad = next(p for p in ids if not isinstance(p, (int, np.integer)))
            raise ValueError(f"point id {bad!r} is not an integer") from None
        if not self.clients:
            raise ValueError("instance needs at least one client")
        if not self.facilities:
            raise ValueError("instance needs at least one facility")
        if len(set(self.clients)) != len(self.clients):
            raise ValueError("duplicate client ids")
        if len(set(self.facilities)) != len(self.facilities):
            raise ValueError("duplicate facility ids")
        universe = self.dist.n_points
        for p in self.clients + self.facilities:
            if not 0 <= p < universe:
                raise ValueError(f"point id {p} outside universe of size {universe}")
        if _require_int(self.k, "k") < 1:
            raise ValueError("k must be positive")
        if not 0 <= _require_int(self.m, "m") <= len(self.clients):
            raise ValueError("m must satisfy 0 <= m <= |clients|")
        if not 1 <= self.z < math.inf:
            raise ValueError(f"z must be >= 1 and finite, got {self.z}")

    @property
    def n(self) -> int:
        """Instance size: number of distinct points in clients union facilities."""
        return len(set(self.clients) | set(self.facilities))


@dataclass(frozen=True)
class WeightedPointSet:
    """Point ids with positive integer weights; repeated ids are distinct entries."""

    points: tuple[PointId, ...]
    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.points) != len(self.weights):
            raise ValueError("points and weights must align")
        for w in self.weights:
            if not isinstance(w, (int, np.integer)) or w < 1:
                raise ValueError(f"weights must be integers >= 1, got {w!r}")
        object.__setattr__(self, "points", tuple(int(p) for p in self.points))
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))

    @classmethod
    def unit(cls, points: Iterable[PointId]) -> "WeightedPointSet":
        pts = tuple(points)
        return cls(pts, (1,) * len(pts))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def entries(self) -> list[tuple[PointId, int]]:
        return list(zip(self.points, self.weights))

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.asarray(self.points, dtype=np.intp),
            np.asarray(self.weights, dtype=float),
        )


@dataclass(frozen=True)
class Solution:
    """A feasible answer: centers, the evicted clients, and the achieved cost.

    ``candidate_tag`` records which enumerated outlier subset produced the
    centers ("oracle" and "direct" are reserved for non-enumerated origins).
    """

    centers: tuple[PointId, ...]
    outliers: tuple[PointId, ...]
    cost: float
    candidate_tag: str = "direct"

    def __post_init__(self):
        object.__setattr__(self, "centers", tuple(sorted(int(c) for c in self.centers)))
        object.__setattr__(self, "outliers", tuple(int(p) for p in self.outliers))


# ---------------------------------------------------------------------------
# trimmed cost functions
# ---------------------------------------------------------------------------


def trimmed_sum(values: Iterable[float], drop: int) -> float:
    """Sum of all but the ``drop`` largest values (multiset semantics).

    ``drop=0`` is the plain sum; ``drop=len(values)`` is 0.
    """
    vals = sorted(float(v) for v in values)
    if not 0 <= drop <= len(vals):
        raise ValueError(f"drop={drop} out of range for {len(vals)} values")
    return math.fsum(vals[: len(vals) - drop])


def _min_power_dists(
    dist: DistanceOracle, X: Sequence[PointId], C: Sequence[PointId], z: float
) -> np.ndarray:
    d = dist.pairwise(X, C).min(axis=1)
    return d if z == 1.0 else d**z


def trimmed_score(
    dist: DistanceOracle,
    X: Sequence[PointId],
    C: Sequence[PointId],
    groups: Sequence[tuple[np.ndarray | slice, int]],
    z: float = 1.0,
) -> tuple[float, tuple[PointId, ...]]:
    """Trimmed cost of C over X and the evicted clients, from one distance block.

    Each group ``(rows, drop)`` (``rows`` index X, ``slice(None)`` for all of
    X; the groups of `solvers.argmin_trimmed`) evicts its ``drop`` rows
    farthest from C: larger powered distance first, then larger PointId (so
    among tied distances the lower id stays clustered).  The cost is the
    ``math.fsum`` of each group's ``math.fsum`` over its kept rows, so with
    one group it is that group's sum bit for bit.  The outliers come group by
    group, each ordered by (powered distance descending, PointId ascending).
    """
    if len(C) == 0:
        raise ValueError("center set must be nonempty")
    vals = _min_power_dists(dist, X, C, z)
    ids = np.asarray(X, dtype=np.intp)
    sums, outliers = [], []
    for rows, drop in groups:
        v, p = vals[rows], ids[rows]
        if not 0 <= drop <= len(v):
            raise ValueError(f"drop={drop} out of range for {len(v)} clients")
        evict = np.lexsort((-p, -v))[:drop] if drop else np.empty(0, dtype=np.intp)
        evict = evict[np.lexsort((p[evict], -v[evict]))]
        outliers.extend(p[evict].tolist())
        sums.append(math.fsum(np.delete(v, evict).tolist()))
    return math.fsum(sums), tuple(outliers)


def trimmed_cost(
    dist: DistanceOracle,
    X: Sequence[PointId],
    C: Sequence[PointId],
    drop: int,
    z: float = 1.0,
) -> float:
    """Sum of d(p, C)**z over X after dropping the ``drop`` largest values.

    Equals the minimum, over all ways to evict ``drop`` points, of the powered
    assignment cost of the remainder.
    """
    return trimmed_score(dist, X, C, [(slice(None), drop)], z)[0]


def weighted_trimmed_cost(
    dist: DistanceOracle,
    points: Sequence[PointId],
    weights: Sequence[float],
    C: Sequence[PointId],
    drop: int,
    z: float = 1.0,
) -> float:
    """Trimmed cost over weighted entries.

    Each entry contributes the single value ``d(p, C)**z * w``; the ``drop``
    largest such values are removed whole (an entry is kept or evicted
    atomically, never split).  Weights may be fractional here; the coreset
    itself always carries integers.
    """
    if len(C) == 0:
        raise ValueError("center set must be nonempty")
    if len(points) != len(weights):
        raise ValueError("points and weights must align")
    if not 0 <= drop <= len(points):
        raise ValueError(f"drop={drop} out of range for {len(points)} entries")
    vals = _min_power_dists(dist, points, C, z) * np.asarray(weights, dtype=float)
    return trimmed_sum(vals.tolist(), drop)


def farthest_points(
    dist: DistanceOracle,
    X: Sequence[PointId],
    C: Sequence[PointId],
    count: int,
    z: float = 1.0,
) -> tuple[PointId, ...]:
    """The ``count`` clients farthest from C, i.e. the canonical outlier set.

    Chosen and ordered as by `trimmed_score`: ties go out by larger PointId,
    and the tuple runs by (powered distance descending, PointId ascending).
    """
    if not 0 <= count <= len(X):
        raise ValueError(f"count={count} out of range for {len(X)} clients")
    return trimmed_score(dist, X, C, [(slice(None), count)], z)[1]


def diameter(dist: DistanceOracle, S: Sequence[PointId]) -> float:
    """Largest pairwise distance within S."""
    if len(S) == 0:
        raise ValueError("diameter of an empty set is undefined")
    return float(dist.pairwise(S, S).max())


def set_distance(dist: DistanceOracle, S: Sequence[PointId], C: Sequence[PointId]) -> float:
    """Smallest distance between a point of S and a point of C."""
    if len(S) == 0 or len(C) == 0:
        raise ValueError("set distance needs two nonempty sets")
    return float(dist.pairwise(S, C).min())
