"""Every function the traced benchmark wraps exists under its name.

``bench/spans.py`` wraps ``gpadapt`` functions by module attribute name, so
renaming one breaks ``bench/run.py --trace 1`` with an ``AttributeError``.
The ``targets`` list is read with ``ast``; the tracer is not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

from gpadapt.basis import EigenBasis

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets() -> list[tuple[str, str]]:
    tree = ast.parse(SPANS.read_text())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "targets"
                        for t in node.targets)):
            return [(elt.elts[0].id, elt.elts[1].value)
                    for elt in node.value.elts]
    raise AssertionError("no targets list in bench/spans.py")


TARGETS = _targets()


def test_targets_found():
    assert len(TARGETS) >= 10


@pytest.mark.parametrize("module, attr", TARGETS,
                         ids=[f"{m}.{a}" for m, a in TARGETS])
def test_wrapped_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"gpadapt.{module}"),
                            attr))


def test_features_method_exists():
    assert callable(EigenBasis.features)
