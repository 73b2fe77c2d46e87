"""Round-trip fidelity of the text formats and the planted generator."""

from __future__ import annotations

import numpy as np
import pytest

from trimclust import (
    CoresetParams,
    PlantedConfig,
    baseline_solve,
    build_augmented_instance,
    build_coreset,
    generate_planted,
    ring_partition,
)
from trimclust import fileio
from trimclust.rng import generator_for
from conftest import random_instance


def test_euclidean_instance_round_trip(rng, tmp_path):
    inst, _ = generate_planted(
        PlantedConfig(
            clusters=2, points_per_cluster=5, spread=1.0, outlier_count=2,
            outlier_distance_factor=20.0, dimension=3, seed=99,
        )
    )
    p = tmp_path / "a.inst"
    fileio.save_instance(inst, p)
    text = p.read_text()
    again = fileio.load_instance(p)
    assert fileio.instance_to_text(again) == text  # byte-identical round trip
    assert again.clients == inst.clients and again.k == inst.k and again.z == inst.z
    assert np.array_equal(again.dist.coords, inst.dist.coords)


def test_matrix_instance_round_trip(rng, tmp_path):
    inst = random_instance(rng, 5, 3, k=2, m=1, matrix=True)
    p = tmp_path / "m.inst"
    fileio.save_instance(inst, p)
    again = fileio.load_instance(p)
    assert fileio.instance_to_text(again) == p.read_text()
    assert np.array_equal(again.dist.matrix, inst.dist.matrix)
    assert again.facilities == inst.facilities


def test_instance_rejects_garbage(tmp_path):
    p = tmp_path / "bad.inst"
    p.write_text("not an instance\n")
    with pytest.raises(ValueError):
        fileio.load_instance(p)


EUCLIDEAN = """trimclust-instance v1
format=euclidean
dim=2
k=1
m=0
z=1.0
points=3
0,both,0.0,0.0
1,both,3.0,0.0
2,both,0.0,4.0
"""
MATRIX = """trimclust-instance v1
format=matrix
n=3
k=1
m=0
z=1.0
clients=0,1,2
facilities=0,1,2
0.0
3.0 0.0
4.0 5.0 0.0
"""

# the euclidean file from its dim= line on
EUCLIDEAN_TAIL = EUCLIDEAN[EUCLIDEAN.index("dim="):]

# (good file, its text to replace, the replacement, the line the error names)
BROKEN_LAYOUTS = [
    pytest.param(EUCLIDEAN, EUCLIDEAN, "trimclust-instance v1\n", 2, id="magic-line-only"),
    pytest.param(EUCLIDEAN, "points=3", "points=9", 11, id="points-9-rows-3"),
    pytest.param(EUCLIDEAN, "2,both,0.0,4.0\n", "", 10, id="row-missing"),
    pytest.param(EUCLIDEAN, "0.0,4.0\n", "0.0,4.0\n\n", 11, id="trailing-blank-line"),
    pytest.param(EUCLIDEAN, "2,both,0.0,4.0", "2,both,1.5", 10, id="coordinate-missing"),
    pytest.param(EUCLIDEAN, "2,both,0.0,4.0", "2,both,0.0,4.0,7.0", 10, id="coordinate-extra"),
    pytest.param(EUCLIDEAN, "2,both,0.0,4.0", "2", 10, id="role-missing"),
    pytest.param(EUCLIDEAN, "2,both,0.0,4.0", "2,both,x,4.0", 10, id="coordinate-not-a-number"),
    pytest.param(EUCLIDEAN, "k=1", "k=one", 4, id="k-not-a-number"),
    pytest.param(EUCLIDEAN, EUCLIDEAN_TAIL, "dim=-1\nk=1\nm=0\nz=1.0\npoints=0\n", 3,
                 id="dim-negative"),
    pytest.param(EUCLIDEAN, EUCLIDEAN_TAIL, "dim=0\nk=1\nm=0\nz=1.0\npoints=2\n0,both\n1,both\n",
                 3, id="dim-zero"),
    pytest.param(MATRIX, "4.0 5.0 0.0\n", "", 11, id="matrix-row-missing"),
    pytest.param(MATRIX, "4.0 5.0 0.0\n", "4.0 5.0 0.0\n0.0\n", 12, id="matrix-row-extra"),
    pytest.param(MATRIX, "4.0 5.0 0.0", "4.0 5.0", 11, id="matrix-row-short"),
]


@pytest.mark.parametrize("good, old, new, line", BROKEN_LAYOUTS)
def test_instance_rejects_broken_layout(good, old, new, line):
    fileio.instance_from_text(good)
    bad = good.replace(old, new, 1)
    assert bad != good
    with pytest.raises(ValueError, match=f"^line {line}: "):
        fileio.instance_from_text(bad)


def test_instance_rejects_nan_coordinate(tmp_path):
    inst, _ = generate_planted(
        PlantedConfig(
            clusters=2, points_per_cluster=5, spread=1.0, outlier_count=1,
            outlier_distance_factor=20.0, dimension=2, seed=5,
        )
    )
    p = tmp_path / "nan.inst"
    fileio.save_instance(inst, p)
    lines = p.read_text().splitlines()
    pid, role, x, y = lines[-1].split(",")
    lines[-1] = ",".join([pid, role, "nan", y])
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="finite"):
        fileio.load_instance(p)


@pytest.mark.parametrize("z", ["nan", "inf"])
def test_instance_rejects_non_finite_z(z):
    with pytest.raises(ValueError, match=f"z must be >= 1 and finite, got {z}"):
        fileio.instance_from_text(EUCLIDEAN.replace("z=1.0", f"z={z}"))


def test_coreset_dump_round_trip(rng, tmp_path):
    inst = random_instance(rng, 30, 4, k=2, m=1)
    params = CoresetParams(mode="practical", practical_s=4)
    base = baseline_solve(build_augmented_instance(inst))
    rp = ring_partition(inst, base.centers, params.tau)
    cs = build_coreset(rp, params, generator_for(5, 1, 0))
    p = tmp_path / "c.coreset"
    fileio.save_coreset(cs, p, seed=5, R=rp.R, phi=rp.phi, tau=params.tau, baseline=rp.baseline)
    header, rows = fileio.coreset_entries_from_text(p.read_text())
    assert rows == [
        (i, j, pid, w)
        for (i, j), pid, w in zip(cs.entry_rings, cs.union.points, cs.union.weights)
    ]
    assert int(header["seed"]) == 5 and int(header["s"]) == cs.sample_size
    assert float(header["R"]) == rp.R and int(header["phi"]) == rp.phi
    assert float(header["tau"]) == params.tau
    assert tuple(int(b) for b in header["baseline"].split(",")) == tuple(rp.baseline)
    assert int(header["entries"]) == len(cs.union)
    # a dump that breaks its declared layout is rejected, naming the line
    text = p.read_text()
    for bad, line in (
        (text.replace(f"entries={len(rows)}\n", f"entries={len(rows) + 1}\n"), 9 + len(rows)),
        (text[: text.rindex(",")] + "\n", 8 + len(rows)),  # last row loses its weight
    ):
        with pytest.raises(ValueError, match=f"^line {line}: "):
            fileio.coreset_entries_from_text(bad)
    # weight conservation survives the dump
    by_ring: dict[tuple[int, int], int] = {}
    for i, j, pid, w in rows:
        by_ring[(i, j)] = by_ring.get((i, j), 0) + w
    for key, pts in rp.rings.items():
        assert by_ring[key] == len(pts)


# ---------------------------------------------------------------------------
# planted generator
# ---------------------------------------------------------------------------


def test_planted_shape_and_labels():
    cfg = PlantedConfig(
        clusters=3, points_per_cluster=7, spread=0.5, outlier_count=4,
        outlier_distance_factor=25.0, dimension=2, seed=12,
    )
    inst, labels = generate_planted(cfg)
    assert len(inst.clients) == 3 * 7 + 4 == cfg.n_points
    assert labels.count(-1) == 4
    assert inst.k == 3 and inst.m == 4
    assert set(inst.facilities) == set(inst.clients)  # co-located by default


def test_planted_outliers_are_far():
    cfg = PlantedConfig(
        clusters=2, points_per_cluster=10, spread=1.0, outlier_count=3,
        outlier_distance_factor=30.0, dimension=2, seed=7,
    )
    inst, labels = generate_planted(cfg)
    coords = inst.dist.coords
    cluster_pts = [i for i, l in enumerate(labels) if l >= 0]
    centroids = {
        l: coords[[i for i, ll in enumerate(labels) if ll == l]].mean(axis=0)
        for l in (0, 1)
    }
    for i, l in enumerate(labels):
        if l == -1:
            for c in centroids.values():
                assert np.linalg.norm(coords[i] - c) >= 30.0 * cfg.spread * 0.8


def test_planted_deterministic_bytes(tmp_path):
    cfg = PlantedConfig(
        clusters=2, points_per_cluster=6, spread=1.0, outlier_count=1,
        outlier_distance_factor=20.0, dimension=2, seed=1234,
    )
    a, b = tmp_path / "a", tmp_path / "b"
    fileio.save_instance(generate_planted(cfg)[0], a)
    fileio.save_instance(generate_planted(cfg)[0], b)
    assert a.read_bytes() == b.read_bytes()


def test_planted_oracle_recovers_tight_clusters():
    from trimclust import exact_outlier_oracle

    cfg = PlantedConfig(
        clusters=2, points_per_cluster=6, spread=0.01, outlier_count=1,
        outlier_distance_factor=100.0, dimension=1, seed=5,
    )
    inst, labels = generate_planted(cfg)
    sol = exact_outlier_oracle(inst)
    assert labels[sol.outliers[0]] == -1  # the planted outlier is evicted
    got_labels = {labels[c] for c in sol.centers}
    assert got_labels == {0, 1}  # one center inside each planted ball


def test_planted_facility_fraction():
    cfg = PlantedConfig(
        clusters=2, points_per_cluster=10, spread=1.0, outlier_count=0,
        outlier_distance_factor=10.0, dimension=2, seed=3, facility_fraction=0.3,
    )
    inst, _ = generate_planted(cfg)
    assert len(inst.facilities) == max(2, round(0.3 * 20))
    assert set(inst.facilities) <= set(inst.clients)
