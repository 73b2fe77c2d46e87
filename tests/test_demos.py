"""Every demo runs to completion, in this process so the check stays quick."""

from __future__ import annotations

import runpy
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_run(capsys):
    assert DEMOS
    for path in DEMOS:
        runpy.run_path(str(path), run_name="__main__")
        assert capsys.readouterr().out, path.name
