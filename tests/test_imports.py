"""No module of the package imports a name it never uses, no private
module-level name goes unused, and no attribute set on self goes unread.

A stand-in for a linter's unused-import and dead-code rules, read from the
source with `ast`.  The package root is left out of the import check: its
imports are its exports.  A name counts as used where it is read in the
code or inside a string annotation.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ncaudit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """(bound name, line) of every import outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.returns]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _used(ast.parse(node.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


def test_the_check_sees_string_annotations_and_unused_names():
    tree = ast.parse("from typing import Dict, List, Tuple\n"
                     "import numpy as np\n"
                     "x: 'Dict[str, Tuple[int, int]]' = {}\n")
    assert [name for name, _ in _imported(tree) if name not in _used(tree)] == ["List", "np"]


def _private_defs(statement):
    """The private names a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = getattr(statement, "targets", None) or [statement.target]
        names = [node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _unreferenced_private_names(sources):
    """(module, name) of each private module-level name that no other
    statement of any of the sources reads."""
    statements = [(module, s) for module, text in sources.items()
                  for s in ast.parse(text).body]
    # a module may read another's private name as an attribute (field._name)
    used = [_used(s) | {node.attr for node in ast.walk(s) if isinstance(node, ast.Attribute)}
            for _, s in statements]
    return [(module, name) for i, (module, s) in enumerate(statements)
            for name in _private_defs(s)
            if not any(name in names for j, names in enumerate(used) if j != i)]


def test_every_private_module_level_name_is_referenced():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    unused = [f"{module}: {name}" for module, name in _unreferenced_private_names(sources)]
    assert not unused, f"private names nothing else in the package reads: {', '.join(unused)}"


def test_the_check_sees_unreferenced_and_self_referencing_private_names():
    sources = {"a.py": "_TABLE = {}\n_kept: int = 1\n"
                       "def _walk(n):\n    return _walk(n - 1)\n",
               "b.py": "from .a import _kept\n"
                       "class _Box:\n    pass\n"
                       "def f(x: '_Box'):\n    return _kept\n"}
    assert _unreferenced_private_names(sources) == [("a.py", "_TABLE"), ("a.py", "_walk")]


def _unread_self_attributes(sources):
    """(module, name) of each attribute that a method of the sources assigns
    on self and that no source reads, either as a load or as the target of
    an augmented assignment."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            read.add(node.target.attr)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    assigned = {(module, node.attr) for module, tree in trees.items()
                for method in ast.walk(tree)
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                and method.args.args and method.args.args[0].arg == "self"
                for node in ast.walk(method)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"}
    return sorted((module, name) for module, name in assigned if name not in read)


def test_every_instance_attribute_is_read():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    unread = [f"{module}: self.{name}" for module, name in _unread_self_attributes(sources)]
    assert not unread, f"attributes nothing in the package reads: {', '.join(unread)}"


def test_the_check_sees_unread_attributes_and_augmented_ones():
    sources = {"a.py": "class A:\n"
                       "    def __init__(self, other):\n"
                       "        self.kept, self.count, self.shared = 1, 0, 2\n"
                       "        self.unread, other.elsewhere = 3, 4\n"
                       "    def bump(self):\n"
                       "        self.count += 1\n"
                       "        return self.kept\n"
                       "def peek(box):\n"
                       "    box.lonely = 5\n",
               "b.py": "def f(a):\n    return a.shared\n"}
    assert _unread_self_attributes(sources) == [("a.py", "unread")]
