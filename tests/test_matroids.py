"""Matroid oracles: axioms, direct sums, and basis enumeration."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from trimclust import (
    ExplicitMatroid,
    PartitionMatroid,
    SolverBudgetExceeded,
    UniformMatroid,
    check_matroid_axioms,
    direct_sum_matroid,
    matroid_bases,
)
from trimclust.solvers import ColumnTest, _greedy_basis


def test_uniform_matroid_basics():
    m = UniformMatroid(range(5), 2)
    assert m.is_independent([])
    assert m.is_independent([0, 4])
    assert not m.is_independent([0, 1, 2])
    assert not m.is_independent([0, 99])  # outside the ground set
    ok, failures = check_matroid_axioms(m)
    assert ok, failures


@pytest.mark.parametrize("build, rank, error", [
    # a float rank or cap used to be truncated: rank 2.7 was rank 2
    (lambda: UniformMatroid(range(5), 2.7), None, "matroid rank must be an integer, got 2.7"),
    (lambda: PartitionMatroid([((0, 1, 2), 1.5)]), None,
     "part capacity must be an integer, got 1.5"),
    (lambda: UniformMatroid(range(5), np.int64(2)), 2, None),
    (lambda: PartitionMatroid([((0, 1, 2), np.int32(1)), ((3, 4), 2)]), 3, None),
    # the direct sum's own rank used to be refused under the sum's name ("got 3.5")
    (lambda: direct_sum_matroid(UniformMatroid(range(3), 2), [10, 11], 1.5), None,
     "uniform part rank must be an integer, got 1.5"),
    # and one above the client count as "m exceeds the number of clients"
    (lambda: direct_sum_matroid(UniformMatroid(range(3), 2), [10, 11], 2.5), None,
     "uniform part rank must be an integer, got 2.5"),
    (lambda: direct_sum_matroid(UniformMatroid(range(3), 2), [10, 11, 12], np.int64(2)), 4, None),
])
def test_rank_and_caps_must_be_integers(build, rank, error):
    if error is None:
        assert build().rank == rank
        return
    with pytest.raises(ValueError, match=error):
        build()


def test_partition_matroid():
    m = PartitionMatroid([((0, 1, 2), 1), ((3, 4), 2)])
    assert m.rank == 3
    assert m.is_independent([0, 3, 4])
    assert not m.is_independent([0, 1])
    ok, failures = check_matroid_axioms(m)
    assert ok, failures
    with pytest.raises(ValueError):
        PartitionMatroid([((0, 1), 1), ((1, 2), 1)])  # overlapping parts


def test_explicit_matroid_downward_closure():
    # all 2-subsets of a 3-element ground set (the triangle's cycle matroid)
    m = ExplicitMatroid(range(3), [[0, 1], [1, 2], [0, 2]])
    assert m.rank == 2
    assert m.is_independent([0]) and m.is_independent([2])
    assert m.is_independent([0, 1]) and not m.is_independent([0, 1, 2])
    ok, failures = check_matroid_axioms(m)
    assert ok, failures


def test_explicit_non_matroid_detected():
    # {0,1} and {2} independent but {0,2},{1,2} not: exchange fails
    m = ExplicitMatroid(range(3), [[0, 1], [2]])
    ok, failures = check_matroid_axioms(m)
    assert not ok
    assert any("exchange" in f for f in failures)


def test_axiom_check_guard():
    m = UniformMatroid(range(20), 3)
    with pytest.raises(ValueError):
        check_matroid_axioms(m)


def test_direct_sum_reduces_at_zero():
    inner = UniformMatroid(range(3), 2)
    ds = direct_sum_matroid(inner, [10, 11], 0)
    assert ds.rank == 2
    assert ds.is_independent([0, 1])
    assert not ds.is_independent([0, 10])  # any client makes it dependent


def test_direct_sum_example_rank():
    inner = PartitionMatroid([((0, 1), 1), ((2, 3), 1)])
    ds = direct_sum_matroid(inner, [10, 11, 12], 1)
    assert ds.rank == 3
    assert ds.is_independent([0, 2, 11])
    assert not ds.is_independent([0, 2, 10, 11])


def test_direct_sum_axioms_exhaustive():
    cases = [
        (UniformMatroid(range(3), 2), [10, 11], 1),
        (PartitionMatroid([((0, 1), 1), ((2,), 1)]), [10, 11, 12], 2),
        (ExplicitMatroid(range(3), [[0, 1], [1, 2], [0, 2]]), [10, 11], 1),
    ]
    for inner, clients, m in cases:
        ds = direct_sum_matroid(inner, clients, m)
        assert len(ds.ground_set) <= 8
        ok, failures = check_matroid_axioms(ds)
        assert ok, failures


def test_direct_sum_needs_disjoint_ids():
    inner = UniformMatroid(range(3), 1)
    with pytest.raises(ValueError):
        direct_sum_matroid(inner, [2, 5], 1)
    with pytest.raises(ValueError):
        direct_sum_matroid(inner, [5, 6], 3)  # m > |clients|


def test_matroid_bases():
    m = PartitionMatroid([((0, 1), 1), ((2, 3), 1)])
    bases = matroid_bases(m)
    assert bases == [(0, 2), (0, 3), (1, 2), (1, 3)]
    with pytest.raises(SolverBudgetExceeded):
        matroid_bases(UniformMatroid(range(30), 10), budget=10)
    with pytest.raises(ValueError):
        matroid_bases(UniformMatroid(range(3), 0))


def test_oracle_memoization_counts():
    calls = 0

    class Counting(UniformMatroid):
        def _independent(self, fs):
            nonlocal calls
            calls += 1
            return super()._independent(fs)

    m = Counting(range(4), 2)
    for _ in range(5):
        m.is_independent([0, 1])
    assert calls == 1


def _part_form_cases():
    """Matroids with a part form (caps 0 and full included), direct sums of
    them, and direct sums over an `ExplicitMatroid`, which has none."""
    triangle = ExplicitMatroid(range(3), [[0, 1], [1, 2], [0, 2]])
    inner = [
        UniformMatroid(range(5), 0),
        UniformMatroid(range(5), 2),
        UniformMatroid(range(5), 5),
        PartitionMatroid([((0, 1, 2), 1), ((3, 4), 2)]),
        PartitionMatroid([((0, 1), 0), ((2, 3, 4), 3), ((5,), 1)]),
        triangle,
    ]
    out = list(inner)
    for m in inner:
        for extra_rank in (0, 1, 3):
            out.append(direct_sum_matroid(m, [10, 11, 12], extra_rank))
    out.append(direct_sum_matroid(direct_sum_matroid(inner[3], [10, 11], 1), [20, 21], 1))
    return out


def test_column_test_matches_is_independent(rng):
    forms = searched = 0
    for matroid in _part_form_cases():
        forms += matroid._part_form(matroid.ground_set) is not None
        # ids outside the ground set (7, 30, 31) among the columns
        ids = sorted(set(matroid.ground_set) | {7, 30, 31})
        test = ColumnTest(matroid, ids)
        for _ in range(60):
            size = int(rng.integers(0, min(len(ids), 6) + 1))
            current = sorted(rng.choice(len(ids), size=size, replace=False).tolist())
            rows = np.array([current], dtype=np.intp).reshape(1, size)
            independent = matroid.is_independent([ids[c] for c in current])
            assert test.fits(rows).tolist() == [independent]
            if not independent:  # every search's current set is independent
                continue
            searched += 1
            outside = np.setdiff1d(np.arange(len(ids)), current)
            want = [
                [matroid.is_independent([ids[c] for c in current[:pos] + current[pos + 1 :]]
                                        + [ids[y]]) for y in outside.tolist()]
                for pos in range(len(current))
            ]
            got = test.swaps(current, outside)
            assert got.shape == (len(current), len(outside))
            assert got.tolist() == want, (matroid, current)
        for k in range(len(ids) + 1):
            want = []
            for j in range(len(ids)):
                if len(want) < k and matroid.is_independent([ids[c] for c in want + [j]]):
                    want.append(j)
            assert test.basis(k) == want
            if len(want) == k:
                assert _greedy_basis(len(ids), k, test) == want
            else:
                with pytest.raises(ValueError, match="could not build a basis"):
                    _greedy_basis(len(ids), k, test)
    assert 0 < forms < len(_part_form_cases())  # both paths were taken
    assert searched > 100


def test_matroid_bases_match_the_itertools_filter():
    for matroid in _part_form_cases():
        if matroid.rank < 1:
            with pytest.raises(ValueError, match="no independent set of positive rank"):
                matroid_bases(matroid)
            continue
        want = [
            combo for combo in combinations(matroid.ground_set, matroid.rank)
            if matroid.is_independent(combo)
        ]
        assert matroid_bases(matroid) == want


def test_bases_of_a_part_form_ask_no_set(monkeypatch):
    m = PartitionMatroid([((0, 1, 2), 1), ((3, 4), 2)])
    monkeypatch.setattr(m, "is_independent", lambda S: pytest.fail("asked is_independent"))
    assert matroid_bases(m) == [(0, 3, 4), (1, 3, 4), (2, 3, 4)]
