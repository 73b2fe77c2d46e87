"""Shared instance builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from trimclust import CandidateSpace, EuclideanOracle, MatrixOracle, MetricInstance
from trimclust.solvers import SubsetStream


def line_instance(client_xs, facility_xs, k, m, z=1.0):
    """1-D instance: clients first, then facilities, ids in listing order."""
    coords = np.asarray(list(client_xs) + list(facility_xs), dtype=float)[:, None]
    n_c = len(client_xs)
    return MetricInstance(
        clients=tuple(range(n_c)),
        facilities=tuple(range(n_c, n_c + len(facility_xs))),
        dist=EuclideanOracle(coords),
        k=k,
        m=m,
        z=z,
    )


def random_instance(rng, n_clients, n_fac, k, m, z=1.0, dim=2, integer=False, matrix=False):
    """Random instance with disjoint client and facility ids."""
    n = n_clients + n_fac
    if integer:
        coords = rng.integers(0, 50, size=(n, dim)).astype(float)
    else:
        coords = rng.uniform(0.0, 100.0, size=(n, dim))
    if matrix:
        from scipy.spatial.distance import cdist

        oracle = MatrixOracle(cdist(coords, coords))
    else:
        oracle = EuclideanOracle(coords)
    return MetricInstance(
        clients=tuple(range(n_clients)),
        facilities=tuple(range(n_clients, n)),
        dist=oracle,
        k=k,
        m=m,
        z=z,
    )


def shared_point_instance(rng, n_points, k, m, z=1.0, dim=2):
    """Every point is both client and candidate facility."""
    coords = rng.uniform(0.0, 100.0, size=(n_points, dim))
    ids = tuple(range(n_points))
    return MetricInstance(ids, ids, EuclideanOracle(coords), k=k, m=m, z=z)


def explicit_space(center_sets):
    """The candidate space of the given center sets, in the given order,
    over the sorted ids they use (``SubsetStream.from_rows``)."""
    ids = sorted({int(c) for cset in center_sets for c in cset})
    rows = np.searchsorted(ids, np.sort(np.asarray(center_sets, dtype=np.intp), axis=1))
    return CandidateSpace(tuple(ids), SubsetStream.from_rows(rows))


def space_rows(space, per=7):
    """A candidate space's sets as one array of indices into ``space.col_ids``,
    one set per row, stacked from its blocks of ``per`` sets."""
    blocks = [block.T.copy() for block in space.sets.blocks(per)]  # each overwrites the last
    return np.vstack(blocks).reshape(space.count, space.sets.width)


def space_sets(space):
    """A candidate space's sets as id tuples, in enumeration order."""
    return [tuple(space.col_ids[i] for i in row) for row in space_rows(space).tolist()]


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
