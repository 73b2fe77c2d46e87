"""Degenerate inputs: both black boxes against the exhaustive oracles.

Every instance lies on integer 1-D coordinates, so distances and sums are
exact, and the coreset is lossless (s = |X|).  The exact black box must then
reproduce the oracle's cost.  Local search must return a feasible solution
that never beats the oracle and, at z = 1, stays within its factor of 5.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from trimclust import (
    ColorfulInstance,
    CoresetParams,
    SolverHandle,
    colorful_cost,
    colorful_oracle,
    colorful_solve,
    exact_outlier_oracle,
    solve_with_outliers,
    trimmed_cost,
)
from conftest import line_instance

# few examples each: the five properties add about two seconds to the suite
FEW = settings(max_examples=30, deadline=None, derandomize=True)

COORD = st.integers(0, 6)


def _solvers(z):
    return (SolverHandle.exact(), SolverHandle.local_search(z))


def _lossless(inst):
    return CoresetParams(epsilon=0.5, mode="practical", practical_s=len(inst.clients), z=inst.z)


def _check_centers(sol, inst):
    assert len(set(sol.centers)) == len(sol.centers) <= inst.k
    assert set(sol.centers) <= set(inst.facilities)


def _check_against_oracle(cost, oracle_cost, solver, z):
    if solver.kind == "exact":
        assert cost == oracle_cost
    else:
        assert cost >= oracle_cost
        if z == 1.0:
            assert cost <= 5.0 * oracle_cost


def _check_plain(inst):
    oracle = exact_outlier_oracle(inst)
    for solver in _solvers(inst.z):
        sol = solve_with_outliers(inst, _lossless(inst), solver, seed=0, rounds=1).best
        _check_centers(sol, inst)
        assert len(sol.outliers) <= inst.m and set(sol.outliers) <= set(inst.clients)
        assert sol.cost == trimmed_cost(inst.dist, inst.clients, sol.centers, inst.m, inst.z)
        _check_against_oracle(sol.cost, oracle.cost, solver, inst.z)


@given(x=COORD, n=st.integers(1, 8), f=st.integers(1, 4), data=st.data())
@FEW
def test_every_point_at_one_location(x, n, f, data):
    k = data.draw(st.integers(1, f))
    m = data.draw(st.integers(0, n))
    _check_plain(line_instance([x] * n, [x] * f, k, m))


@given(xs=st.lists(COORD, min_size=1, max_size=5), data=st.data())
@FEW
def test_as_many_centers_as_clients(xs, data):
    fs = data.draw(st.lists(COORD, min_size=1, max_size=len(xs) + 2))
    m = data.draw(st.integers(0, len(xs)))
    _check_plain(line_instance(xs, fs, k=len(xs), m=m))


@given(
    xs=st.lists(COORD, min_size=1, max_size=8),
    fs=st.lists(COORD, min_size=1, max_size=4),
    data=st.data(),
)
@FEW
def test_every_client_an_outlier(xs, fs, data):
    k = data.draw(st.integers(1, len(fs)))
    _check_plain(line_instance(xs, fs, k, m=len(xs)))


@given(
    xs=st.lists(st.integers(0, 3), min_size=2, max_size=8),
    fs=st.lists(st.integers(0, 3), min_size=1, max_size=5),
    m=st.integers(1, 2),
    z=st.sampled_from([1.0, 2.0]),
    data=st.data(),
)
@FEW
def test_tied_distances(xs, fs, m, z, data):
    k = data.draw(st.integers(1, min(3, len(fs))))
    _check_plain(line_instance(xs, fs, k, m, z=z))


@given(
    xs=st.lists(COORD, min_size=2, max_size=8),
    fs=st.lists(COORD, min_size=1, max_size=4),
    data=st.data(),
)
@FEW
def test_color_class_with_zero_budget(xs, fs, data):
    n = len(xs)
    ell = data.draw(st.integers(2, 3))
    colors = data.draw(st.lists(st.integers(1, ell), min_size=n, max_size=n))
    sizes = Counter(colors)
    zero = data.draw(st.integers(1, ell))
    budgets = tuple(
        0 if t == zero else data.draw(st.integers(0, min(2, sizes[t])))
        for t in range(1, ell + 1)
    )
    k = data.draw(st.integers(1, len(fs)))
    inst = line_instance(xs, fs, k, m=sum(budgets))
    cinst = ColorfulInstance(base=inst, colors=dict(enumerate(colors)), budgets=budgets)
    oracle = colorful_oracle(cinst)
    for solver in _solvers(1.0):
        sol = colorful_solve(cinst, _lossless(inst), solver, seed=0, rounds=1)
        _check_centers(sol, inst)
        evicted = Counter(cinst.colors[p] for p in sol.outliers)
        assert all(evicted[t] <= budgets[t - 1] for t in range(1, ell + 1))
        assert sol.cost == colorful_cost(cinst, sol.centers)
        _check_against_oracle(sol.cost, oracle.cost, solver, 1.0)
