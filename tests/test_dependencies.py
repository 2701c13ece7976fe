"""The declared dependencies match the imports: numpy alone at run time.

Standard-library ``ast`` scans. Every ``import`` in a module under
``src/gpadapt``, at any depth (a function-local one included), must name
a standard-library module, numpy or the package itself. ``pyproject.toml``
must declare numpy as the one run-time dependency and list pytest and
scipy, which the tests use as references, in its ``test`` extra; that
part reads the file with ``tomllib`` and is skipped on Python 3.10, which
has none.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gpadapt"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "gpadapt"}


def _imported_packages(tree: ast.Module) -> set[str]:
    """Top-level package of every import; relative ones are ``gpadapt``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            out.add("gpadapt" if node.level else node.module.split(".")[0])
    return out


@pytest.mark.parametrize("module", MODULES)
def test_imports_are_stdlib_numpy_or_the_package(module):
    tree = ast.parse((SRC / module).read_text())
    assert _imported_packages(tree) - ALLOWED == set()


def _names(requirements: list[str]) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower()
            for r in requirements}


def test_pyproject_declares_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert _names(project["dependencies"]) == {"numpy"}
    assert {"pytest", "scipy"} <= _names(
        project["optional-dependencies"]["test"])
