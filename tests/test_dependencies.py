"""The package imports only what pyproject.toml declares, and scipy is not among it;
it calls no BLAS product; the repo's pytest settings report a failing property
test as one failure."""

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


def test_no_blas_product_in_the_package():
    # the engines break exact ties by the first least float sum, so no sum
    # may come from a BLAS kernel, whose choice and summation order can vary
    # with the CPU: no ``@``, ``np.dot`` or ``np.matmul`` in the package
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno}: @")
            elif isinstance(node, ast.Attribute) and node.attr in {"dot", "matmul"}:
                found.append(f"{path.name}:{node.lineno}: {node.attr}")
            elif isinstance(node, ast.alias) and node.name in {"dot", "matmul"}:
                found.append(f"{path.name}: import {node.name}")
    assert not found, found


FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_property_test_is_one_failure_not_an_internal_error(tmp_path):
    # with warnings as errors, a warning raised while hypothesis reports the
    # failing example would end the session with INTERNALERROR (exit 3)
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(tmp_path / "test_fails.py")],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout.splitlines()[-1], run.stdout
