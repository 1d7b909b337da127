"""Rules on the package source that no behavioural test would catch."""

import ast
import re
from pathlib import Path

import linkforms

SOURCES = sorted(Path(linkforms.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    """``python -O`` strips asserts, so invariants raise InvariantError."""
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_every_top_level_name_is_used():
    """Each top-level function and class is named somewhere in the package
    outside its own definition (an ``__init__`` export counts), so nothing
    outlives its last caller."""
    texts = {path: path.read_text() for path in SOURCES}
    unused = []
    for path, text in texts.items():
        lines = text.splitlines(keepends=True)
        for node in ast.parse(text, filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            rest = "".join(lines[: first - 1] + lines[node.end_lineno:])
            others = [t for p, t in texts.items() if p != path] + [rest]
            pattern = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(pattern.search(t) for t in others):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []
