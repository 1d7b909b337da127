"""The benchmark's checksums at seed 5, through its own round runner.

``perfbench/run.py`` digests the checked results of a workload's first
``trace_rounds`` rounds (ranks, classifications, path vertices, witnesses).
Any change to what the library computes on those inputs changes the digest,
so these values are frozen; a speed-up must leave them as they are.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``run`` and ``workloads`` modules, imported unchanged."""
    sys.path.insert(0, str(PERFBENCH))  # run.py imports ``workloads`` by name
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        import workloads

        yield run, workloads
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize(
    "name,checksum",
    [("algebra-batch", "0ed5b48d5b797799"), ("lazy-queries", "709e35abba3ea9a6")],
)
def test_checksum_is_frozen(perfbench, name, checksum):
    run, workloads = perfbench
    workload = workloads.WORKLOADS[name](5)
    digests = {}
    phase = run.run_rounds(workload, digests, count=workload.trace_rounds)
    assert phase.failed == 0, phase.errors
    checked = [
        digests[(r, i)]
        for r in range(workload.trace_rounds)
        for i in range(len(workload.rounds[r]))
    ]
    assert hashlib.sha256("\n".join(map(str, checked)).encode()).hexdigest()[:16] == checksum
