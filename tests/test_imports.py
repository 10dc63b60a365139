"""Import hygiene: every name a module of the package imports is used in
the scope that imports it.  A module-level import must be used somewhere in
the module, and an import made inside a function must be used inside that
function (the CLI imports each command's modules in its runner, so a stale
local import would otherwise pass).  The package's __init__ re-exports
nothing, so it is checked like any other module.  No linter ships with the
toolchain, so the check reads the source with ast."""

import ast
from pathlib import Path

import pytest

import firstreturn

SRC = Path(firstreturn.__file__).parent
MODULES = sorted(p.name for p in SRC.glob("*.py"))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imported(scope):
    """Names imported in scope itself, not in a function nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNCTIONS):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name
        stack.extend(ast.iter_child_nodes(node))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations such as "Dist" name what they use in a string
    for ann in filter(None, _annotations(tree)):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def test_every_module_is_checked():
    assert {"__init__.py", "cli.py", "dense_builder.py", "path.py", "space.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((SRC / module).read_text())
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS)]
    unused = [(getattr(scope, "name", module), name)
              for scope in scopes for name in _imported(scope) if name not in _used(scope)]
    assert unused == []


def test_a_local_import_must_be_used_in_its_function():
    tree = ast.parse("from .space import dist\n"
                     "def f():\n    from .path import DenseSequence\n    return dist\n"
                     "def g():\n    return DenseSequence\n")
    f = tree.body[1]
    assert list(_imported(tree)) == ["dist"] and list(_imported(f)) == ["DenseSequence"]
    assert "DenseSequence" in _used(tree) and "DenseSequence" not in _used(f)
