"""No module of the package writes a file except through the store's one
writer, `cli._write`, which writes beside the file and renames.

Read from the source with `ast`, in the style of test_imports.py: a call of
a `write_text` or `write_bytes` method, or of `open` with a mode that
writes, anywhere but in the writer's body fails the check.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ncaudit"
MODULES = sorted(PACKAGE.glob("*.py"))
WRITER = ("cli.py", "_write")


def _mode(call):
    """The mode an open call passes (builtin open takes it second, a
    Path's open first), or None."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    position = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[position] if len(call.args) > position else None


def _writes(tree, skip=None):
    """(call, line) of every write outside the function named skip."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == skip:
            skipped |= {id(inner) for inner in ast.walk(node)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in skipped:
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in ("write_text", "write_bytes"):
            yield name, node.lineno
        elif name == "open":
            mode = _mode(node)  # none given reads; one not spelled out may write
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and isinstance(mode.value, str)
                                         and not set(mode.value) & set("wax+")):
                yield f"open({ast.unparse(mode)})", node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_writer_writes_files(path):
    tree = ast.parse(path.read_text())
    skip = WRITER[1] if path.name == WRITER[0] else None
    stray = [f"{call} (line {line})" for call, line in _writes(tree, skip)]
    assert not stray, f"{path.name} writes outside {WRITER[1]}: {', '.join(stray)}"


def test_the_writer_renames():
    tree = ast.parse((PACKAGE / WRITER[0]).read_text())
    writer = next((node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == WRITER[1]), None)
    assert writer is not None, f"{WRITER[0]} has no {WRITER[1]}"
    calls = {ast.unparse(node.func) for node in ast.walk(writer) if isinstance(node, ast.Call)}
    assert "os.replace" in calls


def test_the_check_sees_each_kind_of_write():
    tree = ast.parse("def _write(p, d):\n    p.write_bytes(d)\n"
                     "def save(p, d):\n    p.write_text(d)\n    open(p, 'ab')\n"
                     "    p.open(mode='w')\n    open(p, m)\n"
                     "    open(p)\n    open(p, 'rb')\n    p.open()\n")
    assert [call for call, _ in _writes(tree, "_write")] == [
        "write_text", "open('ab')", "open('w')", "open(m)"]
