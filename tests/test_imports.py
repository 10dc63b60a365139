"""Import hygiene: every name a module of the package imports is used in
the scope that imports it.  A module-level import must be used somewhere in
the module, and an import made inside a function must be used inside that
function (the CLI imports each command's modules in its runner, so a stale
local import would otherwise pass).  The package's __init__ re-exports
nothing, so it is checked like any other module.  No linter ships with the
toolchain, so the check reads the source with ast.

The same reading guards against dead definitions: every module-level
function, class and constant of the package, and every method that is not a
dunder, is named somewhere in src/, tests/ or bench/ outside its own
definition; the ones that only tests name are exactly a written keep list;
and no module reads len() of a dense source.  It also holds
the package modules each module imports at import time to one table, so a
new import edge is added on purpose."""

import ast
import re
from collections import Counter
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


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_dataclasses(module):
    # `import dataclasses` loads `inspect`, and each @dataclass builds its
    # methods with exec: a CLI process pays both at every start.  Record
    # classes derive from `firstreturn.Record` instead.
    tree = ast.parse((SRC / module).read_text())
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module and not node.level}
    assert "dataclasses" not in imported


def test_a_local_import_must_be_used_in_its_function():
    tree = ast.parse("from .space import dist\n"
                     "def f():\n    from .path import DenseSequence\n    return dist\n"
                     "def g():\n    return DenseSequence\n")
    f = tree.body[1]
    assert list(_imported(tree)) == ["dist"] and list(_imported(f)) == ["DenseSequence"]
    assert "DenseSequence" in _used(tree) and "DenseSequence" not in _used(f)


# The package modules each module imports when it is imported, that is
# outside its functions; any module may also import `Record` from the
# package.  A command loads only what its runner imports and these modules
# import in turn, so an edge added here is added to every such command.
_IMPORT_GRAPH = {
    "__init__": set(),
    "space": set(),
    "path": {"space"},
    "recover": {"path", "space"},
    "dense_builder": {"path", "space"},
    "ebc1": {"recover", "space"},
    "gallery": {"path", "recover", "space"},
    "rank": set(),
    "cli": set(),
}


def _package_imports(tree):
    """The package modules the tree imports outside its functions."""
    modules = set()
    stack = list(ast.iter_child_nodes(tree))
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNCTIONS):
            continue
        if isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[1] for alias in node.names
                        if alias.name.startswith("firstreturn.")}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "firstreturn"):
            inner = (node.module or "") if node.level else node.module.partition(".")[2]
            if inner:
                modules.add(inner.split(".")[0])
            else:
                modules |= {alias.name for alias in node.names} - {"Record"}
        stack.extend(ast.iter_child_nodes(node))
    return modules


def test_import_graph_is_the_table():
    assert set(_IMPORT_GRAPH) == {m[:-3] for m in MODULES}
    found = {m[:-3]: _package_imports(ast.parse((SRC / m).read_text())) for m in MODULES}
    assert found == _IMPORT_GRAPH


def test_package_imports_skip_functions_and_record():
    tree = ast.parse("from . import Record, path\nfrom .space import dist\n"
                     "import firstreturn.rank\nfrom firstreturn.recover import x\n"
                     "import json\ndef f():\n    from . import gallery\n")
    assert _package_imports(tree) == {"path", "space", "rank", "recover"}


ROOT = Path(__file__).resolve().parent.parent
_DUNDER = re.compile(r"__\w+__")
_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _definitions(tree):
    """(name, node) of the module's functions, classes, constants and the
    methods of its classes that are not dunders."""
    for node in tree.body:
        if isinstance(node, (*_FUNCTIONS, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((n.name, n) for n in node.body
                        if isinstance(n, _FUNCTIONS) and not _DUNDER.fullmatch(n.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((n.id, node) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))


def _names(tree):
    """Every name the code refers to: loaded names, attributes, imported
    names, and the parts of strings that are dotted names, such as the
    tracer's "ClosedSet.member"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            yield from node.value.split(".")


def _dead(trees):
    """Definitions of the package that nothing outside them names."""
    named = Counter(name for tree in trees.values() for name in _names(tree))
    return [(module, name) for module, tree in trees.items() if module.startswith("src/")
            for name, node in _definitions(tree)
            if named[name] == Counter(_names(node))[name]]


def test_every_definition_is_named():
    trees = {p.relative_to(ROOT).as_posix(): ast.parse(p.read_text())
             for top in ("src", "tests", "bench") for p in sorted((ROOT / top).rglob("*.py"))}
    assert "src/firstreturn/space.py" in trees
    assert _dead(trees) == []


def test_a_definition_named_only_by_itself_is_dead():
    trees = {"src/m.py": ast.parse("K = 1\nJ = K\n"
                                   "def rec(n):\n    return rec(n - 1)\n"
                                   "class C:\n    def used(self):\n        return self.gone\n"
                                   "    def gone(self):\n        pass\n"
                                   "    def __len__(self):\n        return 0\n"),
             "bench/t.py": ast.parse("TARGETS = ('C.used',)\n")}
    assert _dead(trees) == [("src/m.py", "J"), ("src/m.py", "rec")]


# The definitions of the package that only tests name, each with the reason
# it stays in src/.  A new one fails the check below: move it to
# tests/oracles.py, give it a library reader, or add it here with a reason.
_TEST_ONLY_KEEP = {
    "approximates_check": "the builder's approximation check: path terms outside F",
    "in_closure_O": "a value's membership in the closure of O_k, of a G-delta witness",
    "gdelta_witness": "the level-k G-delta witness of a closed value set",
    "evaluation_map": "the truncated evaluation map I(f); ROADMAP item 18 gives it a CLI use",
    "psi_inv": "the inverse of the S-word enumeration psi",
    "E24_member": "membership in the product set E24",
    "E27_member": "membership in the product set E27",
    "e24_section_size": "E24's section at alpha, finite iff alpha is outside G",
    "prop12_distance": "the distances of the prop12 points on Z, decreasing to 1/2",
    "prop12_expected": "the closed form of prop12_distance",
    "rank_Lf": "the rank L(f), the sup over threshold pairs",
    "chain_from_diff": "the rank chain of a difference form",
    "index_of_word": "a word's index in the good basis; ROADMAP item 3 may read it",
}


def _test_only(trees):
    """Definitions of the package that nothing outside them and tests names."""
    return _dead({module: tree for module, tree in trees.items()
                  if not module.startswith("tests/")})


def test_only_the_keep_list_is_named_only_by_tests():
    trees = {p.relative_to(ROOT).as_posix(): ast.parse(p.read_text())
             for top in ("src", "tests", "bench") for p in sorted((ROOT / top).rglob("*.py"))}
    assert sorted(name for _, name in _test_only(trees)) == sorted(_TEST_ONLY_KEEP)


def test_a_definition_named_only_by_tests_is_found():
    trees = {"src/m.py": ast.parse("def lib():\n    return C()\n"
                                   "def checked():\n    pass\n"
                                   "class C:\n    def probe(self):\n        pass\n"),
             "tests/test_m.py": ast.parse("from m import checked, lib\n"
                                          "checked()\nlib().probe()\n"),
             "bench/b.py": ast.parse("TARGETS = ('m.lib',)\n")}
    assert _dead(trees) == []
    assert _test_only(trees) == [("src/m.py", "checked"), ("src/m.py", "probe")]


def _len_reads(tree):
    """The lines of each len() call on a name `dense`, or on a parameter
    annotated with DenseSequence in the function that reads it: an
    unbounded dense source has no length (see `path`'s contract)."""
    reads = set()
    for fn in [tree] + [n for n in ast.walk(tree) if isinstance(n, _FUNCTIONS)]:
        sources = {"dense"}
        if isinstance(fn, _FUNCTIONS):
            params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            sources |= {a.arg for a in params
                        if a.annotation is not None and "DenseSequence" in ast.unparse(a.annotation)}
        reads |= {node.lineno for node in ast.walk(fn)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "len" and len(node.args) == 1
                  and isinstance(node.args[0], ast.Name) and node.args[0].id in sources}
    return sorted(reads)


@pytest.mark.parametrize("module", MODULES)
def test_no_len_read_of_a_dense_source(module):
    assert _len_reads(ast.parse((SRC / module).read_text())) == []


def test_a_len_read_of_a_dense_source_is_found():
    tree = ast.parse("def f(seq: DenseSequence, n: int, s: 'Optional[DenseSequence]'):\n"
                     "    return len(seq) + len(n) + len(s.points)\n"
                     "def g(points):\n    return len(points)\n"
                     "def h(s: 'Optional[DenseSequence]'):\n    return len(dense) + len(s)\n")
    assert _len_reads(tree) == [2, 6]
