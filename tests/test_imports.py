"""No module of the package imports a name it never uses, and no private
helper is left unreferenced: with no linter in the toolchain, this is what
catches an import or a helper a deletion left behind."""

import ast
import importlib
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "eit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys as s\nfrom a import b, c\n"
                          "from __future__ import annotations\n"
                          "print(os.sep, c)\n") == {"s", "b"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == set()


def test_each_module_is_the_package_attribute_of_its_name():
    # a name the package root binds (say, a function re-exported from a
    # module of the same name) must not hide the module
    package = importlib.import_module("eit")
    for path in MODULES:
        importlib.import_module(f"eit.{path.stem}")
    for path in MODULES:
        assert getattr(package, path.stem) is sys.modules[f"eit.{path.stem}"]


def _references(tree) -> list[str]:
    """Every name a tree reads: bare names, attributes and imported names."""
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.alias):
            out.append(n.name)
    return out


def dead_helpers(sources: list[str]) -> set[str]:
    """Module-level ``_private`` functions and classes that no source
    references outside their own definition."""
    trees = [ast.parse(s) for s in sources]
    refs = [name for tree in trees for name in _references(tree)]
    dead = set()
    for tree in trees:
        for node in tree.body:
            name = getattr(node, "name", "")
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and name.startswith("_") and not name.startswith("__")
                    and refs.count(name) == _references(node).count(name)):
                dead.add(name)
    return dead


def test_the_scan_finds_a_dead_helper():
    assert dead_helpers([
        "def _dead(n):\n    return _dead(n - 1)\n"
        "def _used():\n    pass\n"
        "class _Gone:\n    pass\n"
        "def __getattr__(name):\n    pass\n"
        "def public():\n    _used()\n",
        "import m\nm._by_attribute\n"
        "def _by_attribute():\n    pass\n"]) == {"_dead", "_Gone"}


def test_every_private_helper_is_referenced():
    assert dead_helpers([p.read_text() for p in PACKAGE]) == set()
