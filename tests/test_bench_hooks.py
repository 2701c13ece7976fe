"""The functions the traced benchmark wraps exist, and its commands call them.

``bench/spans.py`` wraps ``gpadapt`` functions by module attribute name, so
renaming one breaks ``bench/run.py --trace 1`` with an ``AttributeError``,
and a command that stops calling one leaves its metric at 0. The
``targets`` list is read with ``ast``; the tracer is not imported. The
workloads' command lines come from ``bench/workloads.py``.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from gpadapt import cli
from gpadapt.basis import EigenBasis

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


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


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _spy(monkeypatch) -> set[str]:
    """Rebind every target as ``spans.install`` does, at its module and at
    each re-export of the same object; returns the names of those called."""
    called: set[str] = set()
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "gpadapt"
                                     or name.startswith("gpadapt."))]
    for module, attr in TARGETS:
        original = getattr(importlib.import_module(f"gpadapt.{module}"),
                           attr)

        def spy(*args, _name=f"{module}.{attr}", _fn=original, **kwargs):
            called.add(_name)
            return _fn(*args, **kwargs)

        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, key, spy)
    return called


#: the targets each benchmark command calls
CALLED = {
    "grid-poly": {"basis.synth_signal", "experiments.simulate_poly",
                  "inducing.predict", "select.select_discrete",
                  "experiments.emit_report"},
    "tune-se": {"experiments.load_running_csv", "select.tune_continuous",
                "inducing.predict", "experiments.emit_report"},
    "contraction-dim": {"basis.synth_signal", "select.select_discrete"},
}


@pytest.mark.parametrize("name", sorted(CALLED))
def test_benchmark_command_calls_its_targets(name, tmp_path, monkeypatch,
                                             capsys):
    workload = _workloads()[name]
    workload.prepare(5, tmp_path)
    called = _spy(monkeypatch)
    assert cli.main(workload.argv(tmp_path / "out", 0)) == 0
    assert called == CALLED[name]
