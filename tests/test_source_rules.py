"""Rules on the package source that no behavioural test would catch."""

import ast
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
