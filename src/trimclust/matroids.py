"""Matroid independence oracles: uniform, partition, explicit, and direct sums.

Oracles answer "is this subset of the ground set independent" and memoize
the answers.  The axioms (empty set independent, downward closure, exchange)
can be verified exhaustively on small ground sets with `check_matroid_axioms`.

Every oracle here but `ExplicitMatroid` is a partition matroid, and says so
by its part form (`MatroidOracle._part_form`): a part label per id and a cap
per part, ids outside the ground set in a part of cap 0.  A set is
independent iff no part holds more of it than its cap.  A uniform matroid is
one part, a direct sum adds its uniform part to the inner matroid's form
(none if the inner matroid has none).  `solvers.ColumnTest` answers the
searches' and `matroid_bases`' questions by these counts, and asks
`is_independent` set by set only of a matroid without a form.
"""

from __future__ import annotations

import math
from itertools import chain, combinations
from typing import Iterable, Sequence

import numpy as np

from .metric import PointId, _require_int
from .solvers import DEFAULT_ENUMERATION_BUDGET, CandidateSpace, ColumnTest, SolverBudgetExceeded


class MatroidOracle:
    """Base class: caches `is_independent` over frozensets.

    Subclasses implement `_independent(fs)`; elements outside the ground set
    make a set dependent.  A partition matroid also gives its `_part_form`,
    which must agree with `_independent`: a subclass that changes one
    changes the other.
    """

    def __init__(self, ground_set: Iterable[PointId], rank: int):
        self.ground_set: tuple[PointId, ...] = tuple(sorted({int(g) for g in ground_set}))
        self.rank = int(_require_int(rank, "matroid rank"))
        self._ground = frozenset(self.ground_set)
        self._cache: dict[frozenset, bool] = {}

    def is_independent(self, S: Iterable[PointId]) -> bool:
        fs = frozenset(int(x) for x in S)
        hit = self._cache.get(fs)
        if hit is None:
            hit = self._cache[fs] = fs <= self._ground and self._independent(fs)
        return hit

    def _independent(self, fs: frozenset) -> bool:
        raise NotImplementedError

    def _part_form(self, ids: Sequence[PointId]) -> tuple[np.ndarray, np.ndarray] | None:
        """``(part, caps)``: the part of each of ``ids`` and the cap of each
        part, ids outside the ground set in a part of cap 0, if the matroid
        is a partition matroid; ``None`` (ask `is_independent`) otherwise."""
        return None


class UniformMatroid(MatroidOracle):
    """Any subset of the ground set with at most `rank` elements."""

    def __init__(self, ground_set: Iterable[PointId], rank: int):
        super().__init__(ground_set, rank)
        if not 0 <= self.rank <= len(self.ground_set):
            raise ValueError("uniform matroid rank out of range")

    def _independent(self, fs):
        return len(fs) <= self.rank

    def _part_form(self, ids):
        part = np.array([int(i) not in self._ground for i in ids], dtype=np.intp)
        return part, np.array([self.rank, 0], dtype=np.intp)


class PartitionMatroid(MatroidOracle):
    """At most `cap` elements from each part of a partition of the ground set."""

    def __init__(self, parts: Sequence[tuple[Sequence[PointId], int]]):
        norm = []
        seen: set[int] = set()
        for ids, cap in parts:
            ids_t = tuple(sorted(int(i) for i in ids))
            if _require_int(cap, "part capacity") < 0:
                raise ValueError("part capacity must be nonnegative")
            if seen & set(ids_t):
                raise ValueError("parts must be disjoint")
            seen |= set(ids_t)
            norm.append((ids_t, int(cap)))
        self.parts: tuple[tuple[tuple[PointId, ...], int], ...] = tuple(norm)
        rank = sum(min(cap, len(ids)) for ids, cap in norm)
        super().__init__(seen, rank)
        self._part_of = {i: pi for pi, (ids, _) in enumerate(norm) for i in ids}
        self._caps = tuple(cap for _, cap in norm)

    def _independent(self, fs):
        counts = [0] * len(self.parts)
        for x in fs:
            pi = self._part_of[x]
            counts[pi] += 1
            if counts[pi] > self._caps[pi]:
                return False
        return True

    def _part_form(self, ids):
        outside = len(self._caps)
        part = np.array([self._part_of.get(int(i), outside) for i in ids], dtype=np.intp)
        return part, np.array(self._caps + (0,), dtype=np.intp)


class ExplicitMatroid(MatroidOracle):
    """Independence given by an explicit list of sets (closed downward here).

    The listed sets act as generators; every subset of a listed set is
    independent.  Whether the result satisfies the exchange axiom is the
    caller's responsibility (`check_matroid_axioms` can verify).
    """

    def __init__(self, ground_set: Iterable[PointId], independent_sets: Iterable[Iterable[PointId]]):
        closure: set[frozenset] = {frozenset()}
        for s in independent_sets:
            fs = frozenset(int(x) for x in s)
            for r in range(len(fs) + 1):
                closure.update(frozenset(c) for c in combinations(sorted(fs), r))
        rank = max(len(s) for s in closure)
        super().__init__(ground_set, rank)
        if not all(s <= self._ground for s in closure):
            raise ValueError("independent sets must lie inside the ground set")
        self._sets = closure

    def _independent(self, fs):
        return fs in self._sets


class DirectSumMatroid(MatroidOracle):
    """Direct sum of a matroid over F with a uniform matroid of rank m over X.

    A set is independent iff its F-part is independent in the inner matroid
    and its X-part has at most m elements.  F and X must be disjoint id sets.
    """

    def __init__(self, inner: MatroidOracle, extra_ground: Iterable[PointId], extra_rank: int):
        extra = tuple(sorted({int(x) for x in extra_ground}))
        if set(extra) & set(inner.ground_set):
            raise ValueError("direct sum needs disjoint ground sets")
        if not 0 <= _require_int(extra_rank, "uniform part rank") <= len(extra):
            raise ValueError("uniform part rank out of range")
        super().__init__(inner.ground_set + extra, inner.rank + extra_rank)
        self.inner = inner
        self._extra = frozenset(extra)
        self._extra_rank = int(extra_rank)

    def _independent(self, fs):
        x_part = fs & self._extra
        if len(x_part) > self._extra_rank:
            return False
        return self.inner.is_independent(fs - self._extra)

    def _part_form(self, ids):
        form = self.inner._part_form(ids)
        if form is None:
            return None
        part, caps = form
        extra = np.array([int(i) in self._extra for i in ids], dtype=bool)
        return np.where(extra, len(caps), part), np.append(caps, self._extra_rank)


def direct_sum_matroid(
    matroid: MatroidOracle, clients: Sequence[PointId], m: int
) -> DirectSumMatroid:
    """Matroid over F + X whose independent sets add at most m clients.

    Used to pose the outlier-free baseline problem for matroid-constrained
    clustering: the m "virtual centers" are client points.
    """
    if _require_int(m, "uniform part rank") > len(set(clients)):
        raise ValueError("m exceeds the number of clients")
    return DirectSumMatroid(matroid, clients, m)


def matroid_bases(
    matroid: MatroidOracle, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> list[tuple[PointId, ...]]:
    """All maximal independent sets, as sorted tuples in lexicographic order.

    Since clustering costs only drop when centers are added, optimizing over
    bases is equivalent to optimizing over all independent sets.  These are
    the ids of `_basis_rows`, which a solve reads as they are.
    """
    ground = np.asarray(matroid.ground_set, dtype=np.intp)
    return list(map(tuple, ground[_basis_rows(matroid, budget)].tolist()))


def _basis_rows(matroid: MatroidOracle, budget: int) -> np.ndarray:
    """The bases as rows of indices into ``matroid.ground_set``, in
    lexicographic order.  The ``rank``-subsets of the ground set are counted
    against ``budget`` before any is built, then written block by block
    (`CandidateSpace.subsets`) and kept where `ColumnTest.fits`: by part
    counts, or by `is_independent` for a matroid without a part form."""
    n, r = len(matroid.ground_set), matroid.rank
    if r < 1:
        raise ValueError("matroid has no independent set of positive rank")
    if math.comb(n, r) > budget:
        raise SolverBudgetExceeded(
            f"{math.comb(n, r)} candidate bases exceed budget {budget}"
        )
    test = ColumnTest(matroid, matroid.ground_set)
    sets = CandidateSpace.subsets(range(n), r, budget).sets
    rows = np.concatenate([b.T[test.fits(b.T)] for b in sets.blocks()])
    if not len(rows):
        raise ValueError("matroid rank is inconsistent: no independent set of that size")
    return rows


def check_matroid_axioms(matroid: MatroidOracle, max_ground: int = 12) -> tuple[bool, list[str]]:
    """Exhaustively verify the three matroid axioms on a small ground set.

    Checks: the empty set is independent; removing one element from an
    independent set keeps it independent (equivalent to downward closure);
    and for independent A, B with |B| < |A| some element of A - B extends B.
    """
    ground = matroid.ground_set
    if len(ground) > max_ground:
        raise ValueError(f"exhaustive axiom check capped at {max_ground} elements")
    failures: list[str] = []
    subsets = list(
        chain.from_iterable(combinations(ground, r) for r in range(len(ground) + 1))
    )
    independent = [frozenset(s) for s in subsets if matroid.is_independent(s)]
    indep_set = set(independent)

    if frozenset() not in indep_set:
        failures.append("empty set is not independent")
    for a in independent:
        for x in a:
            if a - {x} not in indep_set:
                failures.append(f"hereditary fails: {sorted(a)} minus {x}")
    for a in independent:
        for b in independent:
            if len(b) < len(a):
                if not any(b | {x} in indep_set for x in a - b):
                    failures.append(f"exchange fails for A={sorted(a)}, B={sorted(b)}")
    return not failures, failures
