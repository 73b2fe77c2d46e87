"""Cost functions against brute-force oracles and their algebraic properties."""

from __future__ import annotations

import math
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trimclust import (
    EuclideanOracle,
    MatrixOracle,
    MetricInstance,
    WeightedPointSet,
    diameter,
    farthest_points,
    set_distance,
    trimmed_cost,
    trimmed_sum,
    weighted_trimmed_cost,
)
from trimclust import metric
from conftest import line_instance, random_instance


def brute_trimmed_cost(dist, X, C, m, z):
    """Independent oracle: minimum over all ways to evict m clients."""
    vals = {p: min(dist.d(p, c) for c in C) ** z for p in X}
    best = math.inf
    for evicted in combinations(X, m):
        kept = [p for p in X if p not in set(evicted)]
        best = min(best, math.fsum(vals[p] for p in kept))
    return best


# ---------------------------------------------------------------------------
# trimmed_sum
# ---------------------------------------------------------------------------


def test_trimmed_sum_examples():
    assert trimmed_sum([3, 1, 2], 1) == 3
    assert trimmed_sum([5, 5, 5], 0) == 15
    # oracle: sort [2,2,4,7,9], drop the two largest
    assert trimmed_sum([7, 2, 2, 9, 4], 2) == 8


def test_trimmed_sum_rejects_overdrop():
    with pytest.raises(ValueError):
        trimmed_sum([1.0, 2.0], 3)


@given(st.lists(st.floats(0, 1e6), max_size=30))
@settings(max_examples=100)
def test_trimmed_sum_edges(values):
    assert trimmed_sum(values, len(values)) == 0.0
    assert trimmed_sum(values, 0) == math.fsum(sorted(values))


@given(st.lists(st.floats(0, 1e6), min_size=1, max_size=30))
@settings(max_examples=100)
def test_trimmed_sum_monotone_in_drop(values):
    sums = [trimmed_sum(values, d) for d in range(len(values) + 1)]
    assert all(a >= b for a, b in zip(sums, sums[1:]))


# ---------------------------------------------------------------------------
# trimmed_cost
# ---------------------------------------------------------------------------


def test_trimmed_cost_colocated_center():
    inst = line_instance([5, 5, 5], [5], k=1, m=0)
    for m in range(4):
        assert trimmed_cost(inst.dist, inst.clients, inst.facilities, m) == 0.0


def test_trimmed_cost_line_examples():
    inst = line_instance([0, 1, 10], [0], k=1, m=1)
    X, C = inst.clients, inst.facilities
    assert trimmed_cost(inst.dist, X, C, 1, 1.0) == 1.0
    assert brute_trimmed_cost(inst.dist, X, C, 1, 1.0) == 1.0
    assert trimmed_cost(inst.dist, X, C, 0, 2.0) == 101.0


def test_trimmed_cost_matches_eviction_oracle(rng):
    for _ in range(40):
        n_c = int(rng.integers(2, 9))
        inst = random_instance(rng, n_c, int(rng.integers(1, 5)), k=1, m=0)
        m = int(rng.integers(0, min(3, n_c) + 1))
        z = float(rng.choice([1.0, 2.0]))
        got = trimmed_cost(inst.dist, inst.clients, inst.facilities, m, z)
        want = brute_trimmed_cost(inst.dist, inst.clients, inst.facilities, m, z)
        assert got == pytest.approx(want, rel=1e-12)


def test_trimmed_cost_monotone_in_centers(rng):
    inst = random_instance(rng, 10, 5, k=1, m=2)
    F = list(inst.facilities)
    for _ in range(20):
        size = int(rng.integers(1, len(F)))
        small = sorted(rng.choice(F, size=size, replace=False))
        big = sorted(set(small) | {int(f) for f in rng.choice(F, size=2)})
        c_small = trimmed_cost(inst.dist, inst.clients, small, inst.m)
        c_big = trimmed_cost(inst.dist, inst.clients, big, inst.m)
        assert c_big <= c_small + 1e-12


def test_trimmed_cost_requires_centers():
    inst = line_instance([0, 1], [2], k=1, m=0)
    with pytest.raises(ValueError):
        trimmed_cost(inst.dist, inst.clients, (), 0)


# ---------------------------------------------------------------------------
# farthest_points and the composition identity
# ---------------------------------------------------------------------------


def test_farthest_points_basic():
    inst = line_instance([0, 1, 10], [0], k=1, m=1)
    assert farthest_points(inst.dist, inst.clients, inst.facilities, 0) == ()
    assert farthest_points(inst.dist, inst.clients, inst.facilities, 1) == (2,)


def test_farthest_points_tie_evicts_higher_id():
    # clients 0,1,2 all at distance 5 from the only facility
    inst = line_instance([5, 5, 5], [0], k=1, m=0)
    got = farthest_points(inst.dist, inst.clients, inst.facilities, 2)
    assert got == (1, 2)  # ids 2 and 1 evicted; presented ascending at equal distance


def test_composition_is_exact(rng):
    for _ in range(30):
        inst = random_instance(rng, int(rng.integers(3, 12)), 3, k=1, m=0)
        z = float(rng.choice([1.0, 2.0]))
        m = int(rng.integers(0, 4))
        if m > len(inst.clients):
            continue
        C = inst.facilities
        evicted = set(farthest_points(inst.dist, inst.clients, C, m, z))
        kept_vals = [
            min(inst.dist.d(p, c) for c in C) ** z
            for p in inst.clients
            if p not in evicted
        ]
        assert trimmed_cost(inst.dist, inst.clients, C, m, z) == math.fsum(kept_vals)


# ---------------------------------------------------------------------------
# weighted trimmed cost
# ---------------------------------------------------------------------------


def test_weighted_single_entry():
    inst = line_instance([2], [0], k=1, m=0)
    got = weighted_trimmed_cost(inst.dist, inst.clients, [5], inst.facilities, 0, 1.0)
    assert got == 10.0


def test_weighted_drop_is_atomic():
    # values 1*3=3 and 10*1=10; dropping one removes the 10 whole
    inst = line_instance([1, 10], [0], k=1, m=0)
    got = weighted_trimmed_cost(inst.dist, inst.clients, [3, 1], inst.facilities, 1, 1.0)
    assert got == 3.0


def test_weighted_unit_weights_equal_plain(rng):
    for _ in range(25):
        inst = random_instance(rng, int(rng.integers(2, 10)), 3, k=1, m=0)
        t = int(rng.integers(0, len(inst.clients) + 1))
        z = float(rng.choice([1.0, 2.0]))
        w = [1.0] * len(inst.clients)
        a = weighted_trimmed_cost(inst.dist, inst.clients, w, inst.facilities, t, z)
        b = trimmed_cost(inst.dist, inst.clients, inst.facilities, t, z)
        assert a == b  # identical multisets through fsum


# ---------------------------------------------------------------------------
# diameter / set distance
# ---------------------------------------------------------------------------


def test_diameter_and_set_distance():
    inst = line_instance([0, 3, 7], [0], k=1, m=0)
    assert diameter(inst.dist, inst.clients) == 7.0
    assert diameter(inst.dist, inst.clients[:1]) == 0.0
    assert set_distance(inst.dist, inst.clients, inst.clients) == 0.0
    with pytest.raises(ValueError):
        diameter(inst.dist, ())


# ---------------------------------------------------------------------------
# oracles and types
# ---------------------------------------------------------------------------


def test_matrix_oracle_validation():
    good = np.array([[0.0, 1.0], [1.0, 0.0]])
    MatrixOracle(good)
    with pytest.raises(ValueError):
        MatrixOracle(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        MatrixOracle(np.array([[1.0, 1.0], [1.0, 0.0]]))  # nonzero diagonal
    bad_triangle = np.array(
        [[0.0, 1.0, 9.0], [1.0, 0.0, 1.0], [9.0, 1.0, 0.0]]
    )
    with pytest.raises(ValueError):
        MatrixOracle(bad_triangle, triangle_samples=2000)
    with pytest.raises(ValueError, match="finite"):
        MatrixOracle(np.array([[0.0, np.inf], [np.inf, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_euclidean_oracle_rejects_non_finite(rng, bad):
    coords = rng.uniform(0.0, 100.0, size=(20, 2))
    coords[7, 0] = bad
    with pytest.raises(ValueError, match=r"coords must be finite; entry \(7, 0\)"):
        EuclideanOracle(coords)


def test_euclidean_oracle_rejects_zero_dimensions():
    with pytest.raises(ValueError, match="at least one dimension"):
        EuclideanOracle(np.zeros((3, 0)))


def test_matrix_matches_euclidean(rng):
    """EuclideanOracle's blocks are scipy's cdist, bit for bit, overflow included."""
    from scipy.spatial.distance import cdist

    coords = rng.uniform(0, 10, size=(8, 3))
    ids = list(range(8))
    mo = MatrixOracle(cdist(coords, coords))
    assert mo.pairwise(ids, ids).tobytes() == EuclideanOracle(coords).pairwise(ids, ids).tobytes()

    many = rng.integers(300, size=300)  # repeated ids too
    blocks = [
        (ids, ids),
        ((5, 0, 7), ids),
        ([], ids),
        (ids, []),
        ([], []),
        ([3, 3, 0, 3], (6, 3, 6, 6, 1)),  # repeated ids
        # blocks of several row chunks, the last one short
        (range(300), range(200)),
        (many, many[:100]),
        (range(300), []),
        ([], range(300)),
    ]
    assert 300 * 200 > metric._PAIRWISE_CHUNK
    overflowed = False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dim in range(1, 13):
            for scale in (1e-200, 1e-3, 1.0, 1e5, 1e150, 1e300, 1.7e308):
                coords = rng.uniform(-1.0, 1.0, size=(300, dim)) * scale
                eo = EuclideanOracle(coords)
                for a, b in blocks:
                    want = cdist(coords[list(a)], coords[list(b)])
                    got = eo.pairwise(a, b)
                    assert got.shape == want.shape and got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (dim, scale, a, b)
                    overflowed |= bool(np.isinf(want).any())
    assert overflowed  # the squares past the float range were exercised


def test_weighted_point_set_validation():
    WeightedPointSet((1, 2), (1, 3))
    with pytest.raises(ValueError):
        WeightedPointSet((1,), (0,))
    with pytest.raises(ValueError):
        WeightedPointSet((1,), (1.5,))  # type: ignore[arg-type]
    wps = WeightedPointSet((4, 4, 5), (2, 2, 1))
    assert wps.total_weight == 5  # duplicate entries stay distinct


@pytest.mark.parametrize("k, m, error", [
    (2.5, 1, "k must be an integer, got 2.5"),
    (2.0, 1, "k must be an integer, got 2.0"),
    (2, 1.5, "m must be an integer, got 1.5"),
    (np.int64(2), np.int32(1), None),
])
def test_instance_sizes_must_be_integers(k, m, error):
    # a float size used to fail only inside a solve, with a TypeError
    oracle = EuclideanOracle(np.zeros((3, 1)))
    if error is None:
        assert MetricInstance((0, 1), (2,), oracle, k=k, m=m).k == 2
        return
    with pytest.raises(ValueError, match=error):
        MetricInstance((0, 1), (2,), oracle, k=k, m=m)


@pytest.mark.parametrize("clients, facilities, error", [
    ((0.7, 1.2), (2,), "point id 0.7 is not an integer"),
    ((0, 1), (2.0,), "point id 2.0 is not an integer"),
    (np.arange(2), (np.int32(2),), None),
])
def test_instance_ids_must_be_integers(clients, facilities, error):
    # a float id used to be truncated: clients (0.7, 1.2) became (0, 1)
    oracle = EuclideanOracle(np.zeros((3, 1)))
    if error is None:
        inst = MetricInstance(clients, facilities, oracle, k=1)
        assert (inst.clients, inst.facilities) == ((0, 1), (2,))
        assert all(type(p) is int for p in inst.clients + inst.facilities)
        return
    with pytest.raises(ValueError, match=error):
        MetricInstance(clients, facilities, oracle, k=1)


def test_instance_validation():
    coords = np.zeros((3, 1))
    oracle = EuclideanOracle(coords)
    with pytest.raises(ValueError):
        MetricInstance((0, 0), (1,), oracle, k=1)  # duplicate client
    with pytest.raises(ValueError):
        MetricInstance((0,), (1,), oracle, k=1, m=2)  # m > |X|
    with pytest.raises(ValueError):
        MetricInstance((0,), (5,), oracle, k=1)  # id outside universe
    with pytest.raises(ValueError):
        MetricInstance((0,), (1,), oracle, k=1, z=0.5)  # z < 1
    for z in (math.nan, math.inf):
        with pytest.raises(ValueError, match="z must be >= 1 and finite"):
            MetricInstance((0,), (1,), oracle, k=1, z=z)
