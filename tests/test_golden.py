"""Report bytes of seven small seeded solves, compared with committed files.

Each case runs on integer 1-D coordinates, so every distance and every sum
is exact and the bytes do not depend on the BLAS.  A change that alters a
report on purpose rewrites the files with ``python tests/test_golden.py``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from trimclust import (
    ColorfulInstance,
    CoresetParams,
    EuclideanOracle,
    MetricInstance,
    PartitionMatroid,
    SolverHandle,
    colorful_matroid_solve,
    colorful_solve,
    matroid_median_solve,
    solve_with_outliers,
)
from trimclust.bench import report_to_dict, solution_to_dict
from trimclust.fileio import dump_json

GOLDEN = Path(__file__).parent / "golden"


def _line(n_clients, n_fac, k, m, seed, shared=False):
    """Integer coordinates on [0, 60); facilities are the clients when ``shared``.

    With ``s = 3`` the rings are large enough that every case samples.
    """
    xs = np.random.default_rng(seed).integers(0, 60, size=n_clients + n_fac)
    coords = xs.astype(float)[:, None]
    clients = tuple(range(n_clients))
    facilities = clients if shared else tuple(range(n_clients, n_clients + n_fac))
    return MetricInstance(clients, facilities, EuclideanOracle(coords), k=k, m=m)


def _params(s):
    return CoresetParams(epsilon=0.5, mode="practical", practical_s=s)


def _plain_exact():
    inst = _line(30, 0, k=2, m=2, seed=11, shared=True)
    return report_to_dict(
        solve_with_outliers(inst, _params(3), SolverHandle.exact(), seed=5, rounds=2)
    )


def _plain_local_search():
    inst = _line(40, 6, k=2, m=2, seed=12)
    return report_to_dict(
        solve_with_outliers(inst, _params(3), SolverHandle.local_search(), seed=6, rounds=2)
    )


def _colorful():
    inst = _line(30, 5, k=2, m=3, seed=13)
    colors = {p: 1 + p % 2 for p in inst.clients}
    cinst = ColorfulInstance(base=inst, colors=colors, budgets=(2, 1))
    return solution_to_dict(
        colorful_solve(cinst, _params(3), SolverHandle.exact(), seed=7, rounds=2)
    )


def _colorful_local_search():
    inst = _line(30, 6, k=2, m=3, seed=15)
    colors = {p: 1 + p % 2 for p in inst.clients}
    cinst = ColorfulInstance(base=inst, colors=colors, budgets=(2, 1))
    return solution_to_dict(
        colorful_solve(cinst, _params(3), SolverHandle.local_search(), seed=9, rounds=2)
    )


def _matroid():
    inst = _line(30, 6, k=3, m=2, seed=14)
    fac = inst.facilities
    matroid = PartitionMatroid([(fac[0:2], 1), (fac[2:4], 1), (fac[4:6], 1)])
    return solution_to_dict(
        matroid_median_solve(inst, matroid, _params(3), SolverHandle.exact(), seed=8, rounds=2)
    )


def _matroid_local_search():
    inst = _line(40, 9, k=3, m=2, seed=16)
    fac = inst.facilities
    matroid = PartitionMatroid([(fac[0:3], 1), (fac[3:6], 1), (fac[6:9], 1)])
    return solution_to_dict(
        matroid_median_solve(
            inst, matroid, _params(3), SolverHandle.local_search(), seed=10, rounds=2
        )
    )


def _colorful_matroid_local_search():
    inst = _line(30, 8, k=3, m=3, seed=17)
    fac = inst.facilities
    matroid = PartitionMatroid([(fac[0:4], 2), (fac[4:8], 1)])
    colors = {p: 1 + p % 2 for p in inst.clients}
    cinst = ColorfulInstance(base=inst, colors=colors, budgets=(2, 1))
    return solution_to_dict(
        colorful_matroid_solve(
            cinst, matroid, _params(3), SolverHandle.local_search(), seed=11, rounds=2
        )
    )


CASES = {
    "plain_exact": _plain_exact,
    "plain_local_search": _plain_local_search,
    "colorful": _colorful,
    "colorful_local_search": _colorful_local_search,
    "matroid": _matroid,
    "matroid_local_search": _matroid_local_search,
    "colorful_matroid_local_search": _colorful_matroid_local_search,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name):
    expected = (GOLDEN / f"{name}.json").read_text()
    assert dump_json(CASES[name]()) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, case in CASES.items():
        (GOLDEN / f"{name}.json").write_text(dump_json(case()))
