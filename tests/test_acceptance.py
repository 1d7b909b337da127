"""Acceptance gate: every deliverable property, one test per criterion.

Each test runs the corresponding verification suite (the same code path
as ``linkforms verify <name>``), prints its one-line verdict, enforces the
wall-clock limit, and compares what the suite found with a frozen digest.
Run with ``pytest -s`` to see the lines.
"""

import hashlib
import json

import pytest

from linkforms import verify

CRITERIA = [
    ("split-injectivity", 5),
    ("classification", 60),
    ("aut-orbit", 30),
    ("rank-reduction", 60),
    ("stable-rank-reduction", 120),
    ("base-case", 600),
    ("link-iso", 300),
    ("transitivity", 120),
    ("cancellation", 60),
    ("bordism-tables", 1),
    ("ak-calculus", 1),
    ("homology-engine", 60),
    ("harnesses", 300),
]


# sha256 of (name, detail, stats) at DEFAULT_SEED; none of them carries a
# timing.  A suite can pass with different answers, so a refactor that
# promises unchanged answers must leave every digest as it is.
FROZEN_DIGESTS = {
    "split-injectivity": "37538fe459f2700a",
    "classification": "2ad3b49ed26a62f6",
    "aut-orbit": "94908540ec41e34f",
    "rank-reduction": "15c043dcc2cae0d1",
    "stable-rank-reduction": "cad99447a9cb4e89",
    "base-case": "36626d68c5eae0a5",
    "link-iso": "a4838827f65ff8a1",
    "transitivity": "58b0f47d066c675a",
    "cancellation": "8e5fff528a08b149",
    "bordism-tables": "cdf9dad7d936a9dd",
    "ak-calculus": "a79142bf8c2654b8",
    "homology-engine": "89f4b3ede797106b",
    "harnesses": "bdd975d801b4806b",
}


def answer_digest(result) -> str:
    blob = json.dumps([result.name, result.detail, result.stats], sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name,limit", CRITERIA, ids=[n for n, _ in CRITERIA])
def test_criterion(name, limit):
    result = verify.run_suite(name)
    assert result.passed, f"{name} failed: {result.detail} | {result.stats}"
    assert result.seconds < limit, (
        f"{name} took {result.seconds:.1f}s, over the {limit}s limit"
    )
    assert answer_digest(result) == FROZEN_DIGESTS[name], (
        f"{name} answers changed: {result.detail} | {result.stats}"
    )


def test_gate_covers_every_suite():
    assert [n for n, _ in CRITERIA] == list(verify.SUITES) == list(FROZEN_DIGESTS)
