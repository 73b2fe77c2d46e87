"""The package imports only what pyproject.toml declares, and scipy is not among it."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "trimclust"


def _absolute_imports(path: Path) -> set[str]:
    """Top-level names of every absolute import in one module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_runtime_imports_are_declared_and_scipy_free():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep)[0].lower() for dep in project["dependencies"]}
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    third_party = set().union(*map(_absolute_imports, modules))
    third_party -= set(sys.stdlib_module_names) | {"trimclust"}
    assert third_party <= declared, sorted(third_party - declared)
    assert "scipy" not in declared

    probe = (
        "import sys, trimclust; print(trimclust.__file__); "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert Path(out[0]).resolve().parent == PACKAGE.resolve()
    assert out[1] == "[]", out[1]
