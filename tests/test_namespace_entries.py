"""Every entry of the numeric namespaces is read somewhere in the package.

FLOAT_MATH, ARRAY_MATH and COMPLEX_MATH (geometry.py) hold the math
functions that code written once over a namespace `xp` calls.  An entry that
no code reads any more is a leftover of a refactor.  The scan reads the
sources with ast: each keyword of a namespace's `_namespace(...)` call must
be read, somewhere in src/polarpark, as an attribute of `xp`, of one of the
three namespace names, or of a `math_for(...)` call.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "polarpark").glob("*.py"))
NAMESPACES = ("FLOAT_MATH", "ARRAY_MATH", "COMPLEX_MATH")


def namespace_entries(tree):
    """(namespace, entry) for each keyword of a top-level `NAMESPACE = call(...)`."""
    return [(target.id, keyword.arg)
            for statement in tree.body
            if isinstance(statement, ast.Assign) and isinstance(statement.value, ast.Call)
            for target in statement.targets
            if isinstance(target, ast.Name) and target.id in NAMESPACES
            for keyword in statement.value.keywords]


def is_namespace(node):
    """Whether an expression names a namespace: `xp`, a namespace name or `math_for(...)`."""
    if isinstance(node, ast.Call):
        node = node.func
        return isinstance(node, ast.Name) and node.id == "math_for"
    return isinstance(node, ast.Name) and node.id in ("xp", *NAMESPACES)


def unread_entries(sources):
    """(namespace, entry) for each entry of the (module, text) sources read nowhere in them."""
    trees = [ast.parse(text) for _, text in sources]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and is_namespace(node.value)}
    return sorted(entry for tree in trees for entry in namespace_entries(tree)
                  if entry[1] not in read)


def test_the_scan_finds_an_unread_entry():
    sources = [
        ("a.py", "FLOAT_MATH = _namespace('f', sin=sin, cos=cos, tan=tan, any=bool)\n"
                 "ARRAY_MATH = _namespace('a', sin=sin, all=all)\n"
                 "OTHER = _namespace('o', exp=exp)\n"
                 "def f(xp, y):\n    return xp.sin(y) + FLOAT_MATH.cos(y) + y.tan(y)\n"),
        ("b.py", "from .a import math_for\nany_ = math_for(1.0).any\n"),
    ]
    assert unread_entries(sources) == [("ARRAY_MATH", "all"), ("FLOAT_MATH", "tan")]


def test_every_namespace_entry_is_read():
    sources = [(path.name, path.read_text(encoding="utf-8")) for path in SOURCES]
    assert any(namespace_entries(ast.parse(text)) for _, text in sources)
    assert unread_entries(sources) == []
