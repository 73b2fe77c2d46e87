"""Independent recomputation of every answer the benchmark checks.

Nothing here calls into trimclust: distances come from the coordinates with
plain numpy, the optimum comes from this module's own exhaustive search, and
matroid independence is decided by counting centers per part of the
partition the benchmark built.  Each check returns a list of problems; an
empty list means the answer passed.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

REL_TOL = 1e-9


def distances(coords: np.ndarray, a, b) -> np.ndarray:
    """Euclidean distance block between point ids ``a`` and ``b``."""
    pa = coords[np.asarray(a, dtype=np.intp)]
    pb = coords[np.asarray(b, dtype=np.intp)]
    return np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2))


class Reference:
    """Ground truth for one case: its distances, groups and budgets.

    ``groups`` is a list of (client ids, outlier budget): one group holding
    every client for the plain kinds, one group per color otherwise.
    ``parts`` is the matroid partition, or None when centers are free
    k-subsets of the facilities.
    """

    def __init__(self, coords, clients, facilities, k, m, z=1.0, groups=None, parts=None):
        self.clients = tuple(int(p) for p in clients)
        self.facilities = tuple(sorted(int(f) for f in facilities))
        self.k, self.m, self.z = k, m, z
        self.coords = np.asarray(coords, dtype=float)
        self.row = {p: i for i, p in enumerate(self.clients)}
        self.col = {f: j for j, f in enumerate(self.facilities)}
        d = distances(self.coords, self.clients, self.facilities)
        self.d = d if z == 1.0 else d**z
        self.groups = groups if groups is not None else [(self.clients, m)]
        self._group_rows = [
            (None if members == self.clients else [self.row[p] for p in members], budget)
            for members, budget in self.groups
        ]
        self.parts = parts

    @classmethod
    def for_case(cls, case) -> "Reference":
        groups = None
        if case.colors is not None:
            groups = [
                (tuple(p for p in case.inst.clients if case.colors[p] == t), b)
                for t, b in enumerate(case.budgets, start=1)
            ]
        return cls(
            case.coords, case.inst.clients, case.inst.facilities, case.inst.k,
            case.inst.m, case.inst.z, groups=groups, parts=case.parts,
        )

    # -- exhaustive search -------------------------------------------------

    def candidate_sets(self):
        """Every center set the optimum ranges over, as column-index tuples."""
        if self.parts is None:
            return combinations(range(len(self.facilities)), min(self.k, len(self.facilities)))
        per_part = [combinations([self.col[f] for f in ids], cap) for ids, cap in self.parts]
        return (tuple(sorted(sum(pick, ()))) for pick in product(*per_part))

    def _group_costs(self, mins: np.ndarray) -> np.ndarray:
        """Trimmed cost per column of ``mins`` (clients x candidate sets):
        each group's sum less its ``budget`` largest values."""
        total = np.zeros(mins.shape[1])
        for rows, budget in self._group_rows:
            vals = mins if rows is None else mins[rows]
            total += vals.sum(axis=0)
            if budget == 1:
                total -= vals.max(axis=0)
            elif budget:
                top = vals.shape[0] - budget
                total -= np.partition(vals, top, axis=0)[top:].sum(axis=0)
        return total

    def optimum(self, chunk: int = 4096) -> float:
        """Least trimmed cost over all candidate center sets, by brute force."""
        best = np.inf
        if self.parts is None and self.k == 2:
            # pairs (a, b > a): one column block per first center
            for a in range(len(self.facilities) - 1):
                mins = np.minimum(self.d[:, a : a + 1], self.d[:, a + 1 :])
                best = min(best, float(self._group_costs(mins).min()))
            return best
        sets = list(self.candidate_sets())
        for lo in range(0, len(sets), chunk):
            idx = np.asarray(sets[lo : lo + chunk], dtype=np.intp)
            mins = self.d[:, idx].min(axis=2)
            best = min(best, float(self._group_costs(mins).min()))
        return best

    # -- checks of one answer ----------------------------------------------

    def check(self, centers, outliers, cost) -> list[str]:
        """Feasibility and the reported cost of one answer."""
        problems = []
        centers = [int(c) for c in centers]
        outliers = [int(p) for p in outliers]
        if not centers or len(centers) > self.k:
            problems.append(f"{len(centers)} centers for k={self.k}")
        if len(set(centers)) != len(centers):
            problems.append("repeated center")
        if any(c not in self.col for c in centers):
            problems.append("a center is not a facility")
            return problems
        if self.parts is not None:
            for ids, cap in self.parts:
                if sum(1 for c in centers if c in set(ids)) > cap:
                    problems.append(f"centers break the matroid: more than {cap} in part {ids}")
        if len(outliers) != self.m or len(set(outliers)) != len(outliers):
            problems.append(f"{len(outliers)} outliers for m={self.m}")
        if any(p not in self.row for p in outliers):
            problems.append("an outlier is not a client")
            return problems
        near = self.d[:, [self.col[c] for c in centers]].min(axis=1)
        evicted = set(outliers)
        kept_total = 0.0
        for members, budget in self.groups:
            out = [p for p in members if p in evicted]
            if len(out) > budget:
                problems.append(f"{len(out)} outliers in a group with budget {budget}")
            kept = [near[self.row[p]] for p in members if p not in evicted]
            if out and kept:
                far_kept = max(kept)
                near_out = min(near[self.row[p]] for p in out)
                if near_out < far_kept * (1 - REL_TOL):
                    problems.append("an outlier is nearer to the centers than a kept client")
            kept_total += float(np.sum(kept))
        if not np.isclose(cost, kept_total, rtol=REL_TOL, atol=0.0):
            problems.append(f"reported cost {cost!r} != recomputed {kept_total!r}")
        return problems

    def check_quality(self, cost, optimum, factor, exact_expected) -> list[str]:
        """Cost against the brute-force optimum and the method's guarantee."""
        problems = []
        if cost < optimum * (1 - REL_TOL):
            problems.append(f"cost {cost!r} is below the optimum {optimum!r}")
        if cost > optimum * factor * (1 + REL_TOL):
            problems.append(f"cost ratio {cost / optimum:.6f} above {factor:.3f}")
        if exact_expected and not np.isclose(cost, optimum, rtol=REL_TOL, atol=0.0):
            problems.append(f"lossless exact solve gave {cost!r}, optimum {optimum!r}")
        return problems
