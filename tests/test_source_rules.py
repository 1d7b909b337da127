"""Rules on the package source that no behavioural test would catch."""

import ast
import re
from pathlib import Path

import linkforms

SOURCES = sorted(Path(linkforms.__file__).parent.glob("*.py"))
# The benchmark reads package members too (NormalForm.block_multiset,
# LinkingForm._np_numerators), so its sources count as callers.
PERFBENCH = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))

# Members that only tests call, each with the reason it stays.
TEST_ONLY_MEMBERS = {
    "Subgroup.elements": "the enumeration oracle that image_key and complement tests compare against",
    "FlagComplex.from_edges": "a fixture constructor",
    "QZValue.zero": "a fixture constructor",
}


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


def test_no_private_attribute_is_set_from_outside():
    """Package code assigns a private attribute only on ``self`` or
    ``cls``, so a cache lives with the object that owns it."""
    found = [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and node.attr.startswith("_")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
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


def test_every_class_member_is_used():
    """Each method, property and classmethod of a package class other than
    a dunder is named outside its own body in the package or the
    benchmark: as an attribute (``.name``), or for a classmethod through
    its class (``Class.name`` or ``cls.name``).  Only the members in
    ``TEST_ONLY_MEMBERS`` are exempt, and each of them is still unused."""
    assert PERFBENCH
    texts = {path: path.read_text() for path in SOURCES + PERFBENCH}
    unused = []
    for path in SOURCES:
        text = texts[path]
        lines = text.splitlines(keepends=True)
        for cls in ast.parse(text, filename=str(path)).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                rest = "".join(lines[: first - 1] + lines[node.end_lineno:])
                others = [t for p, t in texts.items() if p != path] + [rest]
                classmethod_ = any(
                    isinstance(d, ast.Name) and d.id == "classmethod" for d in node.decorator_list
                )
                owner = rf"\b(?:{re.escape(cls.name)}|cls)" if classmethod_ else ""
                pattern = re.compile(owner + rf"\.{re.escape(node.name)}\b")
                if not any(pattern.search(t) for t in others):
                    unused.append(f"{cls.name}.{node.name}")
    assert sorted(unused) == sorted(TEST_ONLY_MEMBERS)


def test_every_import_is_used():
    """Each name a package module other than ``__init__`` imports is read
    as a name somewhere in that module, so an import does not outlive its
    last use."""
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []
