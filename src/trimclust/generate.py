"""Planted instance generation for benchmarks and tests.

Gaussian balls around well-separated centers plus a configurable number of
far-away outlier points.  Every byte of the result is a function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metric import EuclideanOracle, MetricInstance, _require_int
from .rng import TAG_GENERATE, generator_for

_CENTER_SPACING = 20.0  # cluster centers sit this many spreads apart


@dataclass(frozen=True)
class PlantedConfig:
    """Shape of a generated instance.

    ``k`` and ``m`` default to ``clusters`` and ``outlier_count``.  With
    ``facility_fraction`` set, only that share of points (but at least k) can
    host centers; otherwise every point is also a facility.
    """

    clusters: int
    points_per_cluster: int
    spread: float
    outlier_count: int
    outlier_distance_factor: float
    dimension: int
    seed: int
    k: int | None = None
    m: int | None = None
    z: float = 1.0
    facility_fraction: float | None = None

    def __post_init__(self):
        for name in "clusters points_per_cluster outlier_count dimension seed k m".split():
            if getattr(self, name) is not None:  # k and m default to None
                _require_int(getattr(self, name), name)
        if self.clusters < 1 or self.points_per_cluster < 1:
            raise ValueError("need at least one cluster with one point")
        if self.spread <= 0 or self.outlier_distance_factor <= 0:
            raise ValueError("spread and outlier_distance_factor must be positive")
        if self.outlier_count < 0 or self.dimension < 1:
            raise ValueError("invalid outlier_count or dimension")
        if self.facility_fraction is not None and not 0 < self.facility_fraction <= 1:
            raise ValueError("facility_fraction must be in (0, 1]")

    @property
    def n_points(self) -> int:
        return self.clusters * self.points_per_cluster + self.outlier_count

    @property
    def effective_k(self) -> int:
        return self.clusters if self.k is None else self.k

    @property
    def effective_m(self) -> int:
        return self.outlier_count if self.m is None else self.m


def generate_planted(config: PlantedConfig) -> tuple[MetricInstance, tuple[int, ...]]:
    """Instance plus ground-truth labels (cluster index, -1 for planted outliers).

    Cluster centers are strung along the first axis with jitter, so any two
    are at least about 18 spreads apart; outliers sit beyond every center by
    at least outlier_distance_factor spreads.
    """
    rng = generator_for(config.seed, TAG_GENERATE)
    dim, spread = config.dimension, config.spread

    centers = np.zeros((config.clusters, dim))
    centers[:, 0] = _CENTER_SPACING * spread * np.arange(config.clusters)
    centers += rng.normal(0.0, spread, size=(config.clusters, dim))

    points = []
    labels = []
    for ci in range(config.clusters):
        points.append(rng.normal(centers[ci], spread, size=(config.points_per_cluster, dim)))
        labels.extend([ci] * config.points_per_cluster)

    if config.outlier_count:
        base = centers.mean(axis=0)
        span = float(np.linalg.norm(centers - base, axis=1).max())
        radius = span + config.outlier_distance_factor * spread * (
            1.0 + rng.random(config.outlier_count)
        )
        dirs = rng.normal(size=(config.outlier_count, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        points.append(base + dirs * radius[:, None])
        labels.extend([-1] * config.outlier_count)

    coords = np.vstack(points)
    n = coords.shape[0]
    oracle = EuclideanOracle(coords)

    if config.facility_fraction is None:
        facilities = tuple(range(n))
    else:
        want = max(config.effective_k, round(config.facility_fraction * n))
        picks = rng.choice(n, size=min(n, want), replace=False)
        facilities = tuple(sorted(int(i) for i in picks))

    inst = MetricInstance(
        clients=tuple(range(n)),
        facilities=facilities,
        dist=oracle,
        k=config.effective_k,
        m=config.effective_m,
        z=config.z,
    )
    return inst, tuple(labels)
