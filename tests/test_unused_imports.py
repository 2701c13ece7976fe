"""Every imported name, private definition and parameter in the package is
used.

Standard-library ``ast`` scans. A name bound by ``import`` or
``from ... import`` in a module under ``src/gpadapt`` (``__init__.py``
aside, which exists to re-export) must appear in that module's code, in a
quoted annotation, or in its ``__all__``. A module-level private function,
class or constant must be referenced somewhere in ``src/gpadapt`` outside
its own definition. Every parameter of a function or method (``self`` and
``cls`` aside) must be read in that function's body. Every field of a
dataclass must be read as an attribute somewhere in ``src/gpadapt``,
unless the class is written out whole (``SERIALIZED_WHOLE``).
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gpadapt"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted)
                         if isinstance(n, ast.Name)}
    return used


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    keep = _used(tree) | _exported(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items()
                    if name not in keep)
    assert not unused, f"{module} imports unused names: {', '.join(unused)}"


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node: ast.AST) -> Counter:
    """Names read, attributes taken and names imported within ``node``."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def test_every_private_definition_is_referenced():
    trees = {p.name: ast.parse(p.read_text(), filename=p.name)
             for p in sorted(SRC.glob("*.py"))}
    everywhere = sum((_references(t) for t in trees.values()), Counter())
    unused = sorted(f"{module}: {name} (line {node.lineno})"
                    for module, tree in trees.items()
                    for name, node in _private_definitions(tree)
                    if everywhere[name] <= _references(node)[name])
    assert not unused, f"unreferenced private definitions: {', '.join(unused)}"


def test_scan_sees_the_package():
    assert {"exact.py", "inducing.py", "experiments.py"} <= set(MODULES)


def _parameters(fn: ast.FunctionDef | ast.AsyncFunctionDef):
    args = fn.args
    for arg in (*args.posonlyargs, *args.args, args.vararg,
                *args.kwonlyargs, args.kwarg):
        if arg is not None and arg.arg not in ("self", "cls"):
            yield arg.arg


@pytest.mark.parametrize("module", MODULES)
def test_every_parameter_is_read(module):
    """A parameter that no line of its function reads is a setting with no
    effect: every caller's value gives the same result."""
    tree = ast.parse((SRC / module).read_text(), filename=module)
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{fn.name}({name}) (line {fn.lineno})"
                   for name in _parameters(fn) if name not in read]
    assert not unread, f"{module} has unread parameters: {', '.join(unread)}"


#: dataclasses written out whole through ``dataclasses.asdict``, which
#: reads every field: ``cli`` writes a ``ContractionReport`` to
#: contraction.json, and ``experiments._row`` turns each
#: ``SelectionRecord`` into a row of report.json and selection.csv
SERIALIZED_WHOLE = {"ContractionReport", "SelectionRecord"}


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (isinstance(target, ast.Name) and target.id == "dataclass"
            or isinstance(target, ast.Attribute)
            and target.attr == "dataclass")


def _dataclass_fields(tree: ast.Module):
    for cls in ast.walk(tree):
        if (isinstance(cls, ast.ClassDef)
                and any(map(_is_dataclass, cls.decorator_list))):
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    yield cls.name, stmt.target.id, stmt.lineno


def test_every_dataclass_field_is_read():
    """A field that nothing reads is state every builder must fill and no
    result depends on."""
    trees = {p.name: ast.parse(p.read_text(), filename=p.name)
             for p in sorted(SRC.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = sorted(f"{module}: {cls}.{name} (line {line})"
                    for module, tree in trees.items()
                    for cls, name, line in _dataclass_fields(tree)
                    if cls not in SERIALIZED_WHOLE and name not in read)
    assert not unread, f"unread dataclass fields: {', '.join(unread)}"
