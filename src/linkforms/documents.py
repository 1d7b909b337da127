"""JSON document formats: linking forms and 1-dimensional two-sided
manifold descriptions.

Forms travel as {"orders": [...], "gram": [["a/b", ...], ...]} with
fractions serialized canonically (b > 0, 0 <= a < b) plus an optional
name and a sign-convention tag; manifolds as flat count dictionaries.
All diagnostics carry enough position information to locate the bad
entry.
"""

from __future__ import annotations

import json

from .bordism import KKManifold1
from .errors import InputError
from .forms import LinkingForm
from .groups import FinAbGroup
from .qz import QZValue

SIGN_CONVENTION = "sec3"

FORM_DOCUMENT_SCHEMA = {
    "type": "object",
    "required": ["orders", "gram"],
    "properties": {
        "orders": {"type": "array", "items": {"type": "integer", "minimum": 2}},
        "gram": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "string"}},
        },
        "name": {"type": "string"},
        "sign_convention": {"const": SIGN_CONVENTION},
    },
    "additionalProperties": False,
}

KK_MANIFOLD_SCHEMA = {
    "type": "object",
    "required": ["k", "plus", "minus"],
    "properties": {
        "k": {"type": "integer", "minimum": 2},
        "plus": {"type": "integer", "minimum": 0},
        "minus": {"type": "integer", "minimum": 0},
        "circles": {"type": "integer", "minimum": 0},
        "null_b1": {"type": "integer", "minimum": 0},
        "null_b2": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 at byte {exc.start}") from None


def _load_json(text: str, source: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise InputError(f"{source}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError(f"{source}: expected a JSON object")
    return doc


def form_from_document(doc: dict, source: str = "<input>") -> LinkingForm:
    if not isinstance(doc, dict):
        raise InputError(f"{source}: expected a JSON object")
    unknown = set(doc) - {"orders", "gram", "name", "sign_convention"}
    if unknown:
        raise InputError(f"{source}: unknown keys {sorted(unknown)}")
    if "orders" not in doc or "gram" not in doc:
        raise InputError(f"{source}: 'orders' and 'gram' are required")
    orders = doc["orders"]
    if not isinstance(orders, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) for d in orders
    ):
        raise InputError(f"{source}: 'orders' must be a list of integers")
    tag = doc.get("sign_convention", SIGN_CONVENTION)
    if tag != SIGN_CONVENTION:
        raise InputError(
            f"{source}: unsupported sign_convention {tag!r} (expected {SIGN_CONVENTION!r})"
        )
    gram_doc = doc["gram"]
    n = len(orders)
    if not isinstance(gram_doc, list) or len(gram_doc) != n or any(
        not isinstance(row, list) or len(row) != n for row in gram_doc
    ):
        raise InputError(f"{source}: 'gram' must be a {n}x{n} table")
    gram = []
    for i, row in enumerate(gram_doc):
        out_row = []
        for j, cell in enumerate(row):
            if not isinstance(cell, str):
                raise InputError(f"{source}: gram[{i}][{j}] must be a fraction string")
            try:
                out_row.append(QZValue.parse(cell))
            except InputError as exc:
                raise InputError(f"{source}: gram[{i}][{j}]: {exc}") from None
        gram.append(out_row)
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise InputError(f"{source}: 'name' must be a string")
    try:
        group = FinAbGroup.of(*orders)
        return LinkingForm(group, gram, name=name)
    except InputError as exc:
        raise InputError(f"{source}: {exc}") from None


def form_to_document(form: LinkingForm) -> dict:
    doc = {
        "orders": list(form.group.orders),
        "gram": [[str(v) for v in row] for row in form.gram],
        "sign_convention": SIGN_CONVENTION,
    }
    if form.name:
        doc["name"] = form.name
    return doc


def parse_form(text: str, source: str = "<input>") -> LinkingForm:
    return form_from_document(_load_json(text, source), source)


def load_form(path: str) -> LinkingForm:
    return parse_form(_read(path), source=path)


def manifold_from_document(doc: dict, source: str = "<input>") -> KKManifold1:
    if not isinstance(doc, dict):
        raise InputError(f"{source}: expected a JSON object")
    unknown = set(doc) - {"k", "plus", "minus", "circles", "null_b1", "null_b2"}
    if unknown:
        raise InputError(f"{source}: unknown keys {sorted(unknown)}")
    for key in ("k", "plus", "minus"):
        if key not in doc:
            raise InputError(f"{source}: missing required key {key!r}")
    vals = {}
    for key in ("k", "plus", "minus", "circles", "null_b1", "null_b2"):
        v = doc.get(key, 0)
        if not isinstance(v, int) or isinstance(v, bool):
            raise InputError(f"{source}: {key!r} must be an integer")
        vals[key] = v
    try:
        return KKManifold1(**vals)
    except InputError as exc:
        raise InputError(f"{source}: {exc}") from None


def manifold_to_document(N: KKManifold1) -> dict:
    return {
        "k": N.k,
        "plus": N.plus,
        "minus": N.minus,
        "circles": N.circles,
        "null_b1": N.null_b1,
        "null_b2": N.null_b2,
    }


def parse_manifold(text: str, source: str = "<input>") -> KKManifold1:
    return manifold_from_document(_load_json(text, source), source)


def load_manifold(path: str) -> KKManifold1:
    return parse_manifold(_read(path), source=path)
