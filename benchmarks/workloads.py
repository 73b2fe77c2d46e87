"""Seeded workload definitions for the solve benchmark.

Every workload is a few instances of one shape.  The base instances come from
fixed planted configurations.  ``--seed`` maps each one through a seeded
symmetry of the square and a power-of-two scale, picks the colors and the
matroid partition where a workload has them, and seeds every solve, so it
changes the coordinates and the coreset draws the program sees.  It does not
change the rings, the coreset sizes or the number of subsets to enumerate,
which set the solve time: those are the same on every seed, and a median over
seeds describes one amount of work.

This module imports only numpy and trimclust's public names, so building the
inputs of a workload is what ``setup_s`` measures besides the imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import trimclust as tc

EPSILON = 0.5


@dataclass
class Case:
    """One instance of a workload together with everything needed to solve it.

    ``kind`` is "plain", "colorful", "matroid" or "colorful_matroid".  For the
    colorful kinds ``colors`` maps client id to color 1..len(budgets); for the
    matroid kinds ``parts`` is the partition the benchmark built, a list of
    (facility ids, capacity), and ``matroid`` the program's oracle over it.
    """

    name: str
    kind: str
    inst: tc.MetricInstance
    coords: np.ndarray
    params: tc.CoresetParams
    solver: tc.SolverHandle
    solve_seed: int
    colors: dict[int, int] | None = None
    budgets: tuple[int, ...] | None = None
    parts: list[tuple[tuple[int, ...], int]] | None = None
    matroid: object = None
    cinst: object = None
    lossless: bool = False  # s >= |X|, so every ring is kept verbatim

    def solve(self):
        """Run the program's solver for this case; returns its report or solution."""
        kw = dict(seed=self.solve_seed, rounds=1)
        if self.kind == "plain":
            return tc.solve_with_outliers(self.inst, self.params, self.solver, **kw)
        if self.kind == "colorful":
            return tc.colorful_solve(self.cinst, self.params, self.solver, **kw)
        if self.kind == "matroid":
            return tc.matroid_median_solve(
                self.inst, self.matroid, self.params, self.solver, **kw
            )
        return tc.colorful_matroid_solve(
            self.cinst, self.matroid, self.params, self.solver, **kw
        )

    def oracle(self):
        """The program's exhaustive oracle for this case."""
        if self.kind == "plain":
            return tc.exact_outlier_oracle(self.inst)
        if self.kind == "colorful":
            return tc.colorful_oracle(self.cinst)
        if self.kind == "matroid":
            return tc.matroid_median_oracle(self.inst, self.matroid)
        return tc.colorful_matroid_oracle(self.cinst, self.matroid)


@dataclass
class Workload:
    name: str
    cases: list[Case]
    oracle_batch: int  # oracle calls per timed sample, so that a sample lasts ~0.1 s


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *key]))


def _move(coords: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A seeded symmetry of the square followed by a seeded power-of-two scale.

    Both are exact in floating point: every distance is the old one times the
    scale, bit for bit, so the program takes the same branches and does the
    same work on every seed.
    """
    moved = coords[:, ::-1] if rng.integers(2) else coords
    signs = np.where(rng.integers(2, size=coords.shape[1]) == 1, -1.0, 1.0)
    return np.ascontiguousarray(moved * signs * 2.0 ** int(rng.integers(-3, 4)))


def _planted(clusters, per_cluster, outliers, seed, spread=1.0) -> np.ndarray:
    inst, _ = tc.generate_planted(
        tc.PlantedConfig(
            clusters=clusters, points_per_cluster=per_cluster, spread=spread,
            outlier_count=outliers, outlier_distance_factor=30.0, dimension=2,
            seed=seed,
        )
    )
    return inst.dist.coords


def _plain_case(name, coords, k, m, s, solver, seed, key) -> Case:
    rng = _rng(seed, *key)
    moved = _move(coords, rng)
    ids = tuple(range(len(moved)))
    inst = tc.MetricInstance(ids, ids, tc.EuclideanOracle(moved), k=k, m=m)
    return Case(
        name=name, kind="plain", inst=inst, coords=moved,
        params=tc.CoresetParams(epsilon=EPSILON, mode="practical", practical_s=s),
        solver=solver, solve_seed=int(rng.integers(2**62)),
        lossless=s >= len(ids),
    )


def exact_enum(seed: int, toy: bool = False) -> Workload:
    """Criterion 6's m = 3 shape: k = 1, every point a facility, exact black box."""
    n, m = (24, 2) if toy else (80, 3)
    s = math.ceil(8 * (m + 1 * math.log(n)))
    cases = [
        _plain_case(f"exact-enum/{i}", _planted(1, n - m, m, 6100 + i), 1, m, s,
                    tc.SolverHandle.exact(), seed, (1, i))
        for i in range(2)
    ]
    return Workload("exact-enum", cases, oracle_batch=5 if toy else 400)


def local_search(seed: int, toy: bool = False) -> Workload:
    """Local-search black box: thousands of calls, few distinct candidates."""
    per = 20 if toy else 80
    cases = [
        _plain_case(f"local-search/{i}", _planted(2, per, 2, 6201 + i), 2, 2, 10,
                    tc.SolverHandle.local_search(), seed, (2, i))
        for i in range(2)
    ]
    return Workload("local-search", cases, oracle_batch=1)


def _variant_case(kind, name, seed, key, n_per, m, budgets, n_fac) -> Case:
    """Colorful and/or matroid case on a planted instance with 2 clusters.

    Matroid kinds get a facility set of their own, disjoint from the clients,
    planted around the same clusters and split at random into three parts of
    capacity one (so k = 3).  Colors are assigned at random with the budgets
    given.  s is at least |X|, so the coreset is lossless.
    """
    rng = _rng(seed, *key)
    clients = _planted(2, n_per, m, 6400 + key[-1])
    matroid_kind = kind in ("matroid", "colorful_matroid")
    if matroid_kind:
        fac = _planted(2, n_fac // 2, 0, 6500 + key[-1], spread=2.0)
        coords = np.vstack([clients, fac])
    else:
        coords = clients
    moved = _move(coords, rng)
    n_c = len(clients)
    client_ids = tuple(range(n_c))
    if matroid_kind:
        fac_ids = list(range(n_c, len(coords)))
        labels = rng.permutation(len(fac_ids)) % 3
        parts = [
            (tuple(sorted(f for f, lab in zip(fac_ids, labels) if lab == p)), 1)
            for p in range(3)
        ]
        facilities, k = tuple(sorted(fac_ids)), 3
    else:
        parts, facilities, k = None, client_ids, 2
    inst = tc.MetricInstance(client_ids, facilities, tc.EuclideanOracle(moved), k=k, m=m)
    case = Case(
        name=name, kind=kind, inst=inst, coords=moved,
        params=tc.CoresetParams(epsilon=EPSILON, mode="practical", practical_s=n_c),
        solver=tc.SolverHandle.exact(), solve_seed=int(rng.integers(2**62)),
        lossless=True,
    )
    if parts is not None:
        case.parts = parts
        case.matroid = tc.PartitionMatroid(parts)
    if budgets is not None:
        shuffled = rng.permutation(len(client_ids))
        case.colors = {p: 1 + int(r % 2) for r, p in zip(shuffled, client_ids)}
        case.budgets = budgets
        case.cinst = tc.ColorfulInstance(base=inst, colors=case.colors, budgets=budgets)
    return case


def variants(seed: int, toy: bool = False) -> Workload:
    """Colorful, matroid and combined solves, each sized to a similar solve time."""
    scale = 0 if toy else 1
    specs = [
        ("colorful", 10 + 20 * scale, 3, (2, 1), 0),
        ("matroid", 10 + 24 * scale, 3, None, 12),
        ("colorful_matroid", 10 + 30 * scale, 3, (2, 1), 12),
    ]
    cases = [
        _variant_case(kind, f"variants/{kind}", seed, (4, i), n_per, m, budgets, n_fac)
        for i, (kind, n_per, m, budgets, n_fac) in enumerate(specs)
    ]
    return Workload("variants", cases, oracle_batch=2 if toy else 80)


WORKLOADS = {
    "exact-enum": exact_enum,
    "local-search": local_search,
    "variants": variants,
}


def build(name: str, seed: int, toy: bool = False) -> Workload:
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed, toy)
