"""Source hygiene: every name a module under src/mlfourier imports is used,
and no public callable takes a tolerance.

An AST scan collects the names each module binds by import and the names
it reads (bare names and the roots of attribute chains, including those in
string annotations).  `__init__` re-exports its imports, so it is exempt.
"""

import ast
import inspect
from pathlib import Path

import pytest

import mlfourier
from mlfourier import special_core

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mlfourier"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotations, as `from __future__ import annotations`
            # would leave them, or forward references.
            try:
                sub = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(sub) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_public_callables_take_no_tolerances():
    # Every evaluator and engine works to a fixed target, the engines that
    # special_core keeps out of the package's exports included.
    knobs = {"cfg", "tol", "abs_tol", "rel_tol"}
    assert "QuadratureConfig" not in mlfourier.__all__
    public = {name: getattr(mlfourier, name) for name in mlfourier.__all__}
    public.update(
        (f"special_core.{name}", obj)
        for name, obj in vars(special_core).items()
        if not name.startswith("_")
        and getattr(obj, "__module__", None) == special_core.__name__
    )
    found = []
    for name, obj in public.items():
        if not callable(obj):
            continue
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        found += [f"{name}({p})" for p in params if p in knobs]
    assert not found
