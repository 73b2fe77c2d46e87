"""CLI verbs end to end, including byte-level report determinism."""

from __future__ import annotations

import json

import pytest

from trimclust import fileio
from trimclust.bench import solver_from_dict
from trimclust.cli import main


def _generate(tmp_path, name="inst.txt", **overrides):
    path = tmp_path / name
    args = {
        "--clusters": "2",
        "--points-per-cluster": "8",
        "--spread": "1.0",
        "--outliers": "2",
        "--outlier-distance-factor": "25.0",
        "--dimension": "2",
        "--seed": "77",
        "--out": str(path),
    }
    args.update(overrides)
    argv = ["generate"] + [x for kv in args.items() for x in kv]
    assert main(argv) == 0
    return path


def test_generate_writes_loadable_instance(tmp_path):
    path = _generate(tmp_path)
    inst = fileio.load_instance(path)
    assert len(inst.clients) == 18 and inst.k == 2 and inst.m == 2


def test_solve_report_byte_deterministic(tmp_path):
    inst = _generate(tmp_path)
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        rc = main([
            "solve", "--instance", str(inst), "--epsilon", "0.5", "--mode", "practical",
            "--s", "6", "--solver", "exact", "--rounds", "2", "--seed", "42",
            "--out", str(out),
        ])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["kind"] == "solve-report"
    assert payload["best"]["cost"] >= 0
    assert len(payload["per_round"]) == 2


def test_solve_differs_across_seeds(tmp_path):
    inst = _generate(tmp_path)
    reports = []
    for seed in ("42", "43"):
        out = tmp_path / f"s{seed}.json"
        main([
            "solve", "--instance", str(inst), "--s", "4", "--seed", seed,
            "--rounds", "1", "--out", str(out),
        ])
        reports.append(json.loads(out.read_text()))
    # costs may coincide, but the sampled coresets almost surely differ
    assert reports[0]["seed"] != reports[1]["seed"]


def test_oracle_verb(tmp_path, capsys):
    inst = _generate(tmp_path)
    assert main(["oracle", "--instance", str(inst)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "oracle-report"
    assert len(payload["solution"]["outliers"]) == 2


def test_solve_cost_matches_oracle_lossless(tmp_path, capsys):
    inst_path = _generate(tmp_path)
    assert main(["oracle", "--instance", str(inst_path)]) == 0
    oracle = json.loads(capsys.readouterr().out)
    out = tmp_path / "solve.json"
    main([
        "solve", "--instance", str(inst_path), "--s", "50", "--seed", "1",
        "--rounds", "1", "--out", str(out),
    ])
    solve = json.loads(out.read_text())
    assert solve["best"]["cost"] == pytest.approx(oracle["solution"]["cost"], rel=1e-12)


def test_check_rings_verb(tmp_path, capsys):
    inst = _generate(tmp_path)
    assert main(["check-rings", "--instance", str(inst)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["radius_sum"] <= payload["radius_bound"] * (1 + 1e-9)


def test_coreset_dump_verb(tmp_path):
    inst = _generate(tmp_path)
    out = tmp_path / "cs.txt"
    rc = main([
        "coreset-dump", "--instance", str(inst), "--s", "5", "--seed", "9",
        "--out", str(out),
    ])
    assert rc == 0
    header, rows = fileio.coreset_entries_from_text(out.read_text())
    assert int(header["seed"]) == 9 and int(header["s"]) == 5
    assert sum(w for *_, w in rows) == 18  # total weight = |X|


def test_experiment_verb(tmp_path):
    suite = {
        "seed": 5,
        "rounds": 1,
        "params": {"epsilon": 0.5, "mode": "practical", "practical_s": 30},
        "solver": {"kind": "exact"},
        "ratio_threshold": 2.0,
        "min_success_fraction": 0.9,
        "instances": [
            {
                "id": "p1",
                "planted": {
                    "clusters": 2, "points_per_cluster": 8, "spread": 1.0,
                    "outlier_count": 1, "outlier_distance_factor": 25.0,
                    "dimension": 2, "seed": 11,
                },
            },
            {
                "id": "p2",
                "planted": {
                    "clusters": 2, "points_per_cluster": 6, "spread": 1.0,
                    "outlier_count": 2, "outlier_distance_factor": 25.0,
                    "dimension": 2, "seed": 12,
                },
            },
        ],
    }
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(suite))
    out = tmp_path / "report.json"
    rc = main(["experiment", "--suite", str(suite_path), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["summary"]["instances"] == 2
    assert report["summary"]["success_fraction"] == 1.0
    for row in report["rows"]:
        assert row["ratio"] >= 1 - 1e-9
        assert "wall_time_s" not in row  # timing is opt-in, reports stay deterministic

    # byte determinism of the whole experiment report
    out2 = tmp_path / "report2.json"
    main(["experiment", "--suite", str(suite_path), "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()

    # opting into timings adds the wall-time column
    out3 = tmp_path / "report3.json"
    main(["experiment", "--suite", str(suite_path), "--timings", "--out", str(out3)])
    timed = json.loads(out3.read_text())
    assert all("wall_time_s" in row for row in timed["rows"])


def test_experiment_empty_suite(tmp_path):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps({"seed": 1, "instances": []}))
    out = tmp_path / "empty.json"
    assert main(["experiment", "--suite", str(suite_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["rows"] == [] and report["summary"]["success_fraction"] == 1.0


def test_oracle_budget_refusal_exit_code(tmp_path, capsys):
    inst = _generate(tmp_path)
    assert main(["oracle", "--instance", str(inst), "--budget", "1"]) == 2
    assert "refused" in capsys.readouterr().err


def test_solve_local_search_flags(tmp_path):
    inst = _generate(tmp_path)
    out = tmp_path / "ls.json"
    rc = main([
        "solve", "--instance", str(inst), "--s", "30", "--solver", "local-search",
        "--iteration-cap", "50", "--improvement-threshold", "0.001",
        "--rounds", "1", "--seed", "2", "--out", str(out),
    ])
    assert rc == 0
    assert json.loads(out.read_text())["best"]["cost"] >= 0


@pytest.mark.parametrize("spec, kind", [
    ({}, "exact"), ({"kind": "exact"}, "exact"),
    ({"kind": "local-search"}, "local_search"), ({"kind": "local_search"}, "local_search"),
])
def test_solver_from_dict_kinds(spec, kind):
    assert solver_from_dict(spec).kind == kind


@pytest.mark.parametrize("kind", ["bogus", "Local-Search", "Exact"])
def test_solver_from_dict_rejects_unknown_kind(kind):
    with pytest.raises(ValueError, match=f"unknown solver kind '{kind}'"):
        solver_from_dict({"kind": kind})


GENERATE = ["--clusters", "2", "--points-per-cluster", "4", "--seed", "1"]

# (verb, flags, what the one line must say).  Without a message the verb
# runs on an unloadable instance: a nan coordinate, then a missing file.
# With one, it runs on a good instance (unless the flags name another),
# given an invalid flag value.
BAD_INPUTS = [
    pytest.param("solve", ["--seed", "1"], None, id="solve"),
    pytest.param("oracle", [], None, id="oracle"),
    pytest.param("coreset-dump", ["--seed", "1", "--out", "OUT"], None, id="coreset-dump"),
    pytest.param("check-rings", [], None, id="check-rings"),
    pytest.param(
        "solve", ["--s", "4", "--seed", "1", "--solver", "local-search", "--iteration-cap", "0"],
        "iteration_cap must be positive", id="solve-iteration-cap-0",
    ),
    pytest.param(
        "solve", ["--s", "4", "--seed", "1", "--epsilon", "1.5"],
        "epsilon must be in (0, 1)", id="solve-epsilon-1.5",
    ),
    pytest.param(
        "solve", ["--seed", "1"], "practical mode needs practical_s", id="solve-no-s",
    ),
    pytest.param(
        "coreset-dump", ["--seed", "1", "--out", "OUT"], "practical mode needs practical_s",
        id="coreset-dump-no-s",
    ),
    pytest.param("check-rings", ["--tau", "0.5"], "tau must be >= 1", id="check-rings-tau-0.5"),
    pytest.param("check-rings", ["--tau", "inf"], "tau must be >= 1", id="check-rings-tau-inf"),
    pytest.param(
        "solve", ["--s", "4", "--seed", "1", "--tau", "nan"], "tau must be >= 1",
        id="solve-tau-nan",
    ),
    pytest.param(
        "experiment", ["--suite", "OUT"], "No such file", id="experiment-missing-suite"
    ),
    pytest.param(
        "solve", ["--s", "4", "--seed", "1", "--iteration-cap", "0"],
        "iteration_cap must be positive", id="solve-exact-iteration-cap-0",
    ),
    pytest.param(
        "solve", ["--s", "4", "--seed", "1", "--improvement-threshold", "5"],
        "improvement_threshold must be in (0, 1)", id="solve-exact-improvement-threshold-5",
    ),
    pytest.param(
        "solve", ["--s", "4", "--seed", "1", "--solver-budget", "1"],
        "exceed budget", id="solve-budget-1",
    ),
    pytest.param(
        "experiment", ["--suite", {"seed": 1, "params": {"epsilon": 1.5}, "instances": [
            {"id": "a", "planted": {
                "clusters": 2, "points_per_cluster": 4, "spread": 1.0, "outlier_count": 1,
                "outlier_distance_factor": 25.0, "dimension": 2, "seed": 1,
            }},
        ]}],
        "epsilon must be in (0, 1)", id="experiment-epsilon-1.5",
    ),
    pytest.param(
        "experiment", ["--suite", {"seed": 1, "instances": [{"id": "a", "file": "nope.txt"}]}],
        "No such file", id="experiment-missing-instance-file",
    ),
    pytest.param(
        "experiment", ["--suite", {"seed": 1, "solver": {"kind": "bogus"}, "instances": []}],
        "unknown solver kind 'bogus'", id="experiment-solver-bogus",
    ),
    pytest.param(
        "experiment",
        ["--suite", {"seed": 1, "solver": {"kind": "Local-Search"}, "instances": []}],
        "unknown solver kind 'Local-Search'", id="experiment-solver-Local-Search",
    ),
    pytest.param(
        "generate", ["--clusters", "0", "--points-per-cluster", "4", "--seed", "1", "--out", "OUT"],
        "need at least one cluster", id="generate-clusters-0",
    ),
    pytest.param(
        "generate", GENERATE + ["--m", "99", "--out", "OUT"], "m must satisfy",
        id="generate-m-99",
    ),
    pytest.param(
        "generate", GENERATE + ["--out", "NODIR"], "No such file", id="generate-out-unwritable",
    ),
    pytest.param(
        "solve", ["--s", "4", "--seed", "1", "--out", "NODIR"], "No such file",
        id="solve-out-unwritable",
    ),
    pytest.param(
        "coreset-dump", ["--s", "4", "--seed", "-1", "--out", "OUT"],
        "expected non-negative integer", id="coreset-dump-seed--1",
    ),
    pytest.param(
        "oracle", ["--instance", "trimclust-instance v1\nformat=euclidean\ndim=2\nk=1\nm=0\n"
                   "z=1.0\npoints=9\n0,both,0.0,0.0\n1,both,3.0,0.0\n2,both,0.0,4.0\n"],
        "line 11: points=9, but the file has 3 rows", id="oracle-points-9-rows-3",
    ),
]


def _arg(tmp_path, x):
    """A command-line word.

    A dict (a suite) or a multi-line string (a file's text) is written to a
    file first; OUT is a writable path and NODIR one in a missing directory.
    """
    if isinstance(x, dict):
        x = json.dumps(x) + "\n"
    if "\n" in x:
        path = tmp_path / "given.txt"
        path.write_text(x)
        return str(path)
    return {"OUT": str(tmp_path / "out.txt"), "NODIR": str(tmp_path / "no" / "out.txt")}.get(x, x)


@pytest.mark.parametrize("verb, extra, message", BAD_INPUTS)
def test_unloadable_instance_is_one_line_and_exit_2(tmp_path, capsys, verb, extra, message):
    extra = [_arg(tmp_path, x) for x in extra]
    if message is not None:
        named = verb in ("experiment", "generate") or "--instance" in extra
        good = [] if named else ["--instance", str(_generate(tmp_path))]
        assert main([verb] + good + extra) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        return
    bad = _generate(tmp_path, name="nan.txt")
    lines = bad.read_text().splitlines()
    pid, role, x, y = lines[-1].split(",")
    lines[-1] = ",".join([pid, role, "nan", y])
    bad.write_text("\n".join(lines) + "\n")
    missing = tmp_path / "missing.txt"
    for path, why in ((bad, "finite"), (missing, "No such file")):
        assert main([verb, "--instance", str(path)] + extra) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err and why in err
