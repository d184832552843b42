"""Every private module-level name of the package is used in the package.

A helper or constant that a refactor leaves behind keeps its definition but
loses its last caller.  The scan reads the sources with ast: each name that
a top-level statement binds and that starts with one underscore must be
referenced by another top-level statement of src/polarpark.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "polarpark").glob("*.py"))


def defined_names(statement):
    """The names a top-level statement binds: a def, a class or assignment targets."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)}
    return set()


def used_names(statement):
    """The names a statement refers to, attribute names and imported names included."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unused_private_names(sources):
    """(module, name) for each private module-level name of (module, text) sources that no
    other top-level statement uses; a statement's use of the name it defines does not count."""
    statements = [(module, statement) for module, text in sources
                  for statement in ast.parse(text).body]
    uses = [used_names(statement) for _, statement in statements]
    return sorted(
        (module, name)
        for i, (module, statement) in enumerate(statements)
        for name in defined_names(statement)
        if name.startswith("_") and not name.endswith("__")
        and not any(name in names for j, names in enumerate(uses) if j != i))


def test_the_scan_finds_an_orphan():
    sources = [
        ("a.py", "_used = 1\n_orphan = 2\ndef _recurse(n):\n    return _recurse(n)\n"
                 "def _imported():\n    return _used\n__all__ = []\n"),
        ("b.py", "from .a import _imported\n"),
    ]
    assert unused_private_names(sources) == [("a.py", "_orphan"), ("a.py", "_recurse")]


def test_every_private_name_is_used():
    sources = [(path.name, path.read_text(encoding="utf-8")) for path in SOURCES]
    assert unused_private_names(sources) == []
