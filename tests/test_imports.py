"""Import hygiene: every name a module of the package imports is used in
that module.  The package's __init__ re-exports names, so it is exempt.
No linter ships with the toolchain, so the check reads the source with ast."""

import ast
from pathlib import Path

import pytest

import firstreturn

SRC = Path(firstreturn.__file__).parent
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


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
    assert {"cli.py", "dense_builder.py", "path.py", "space.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((SRC / module).read_text())
    used = _used(tree)
    assert [name for name in _imported(tree) if name not in used] == []
