"""linkforms benchmark: one closed-loop client, three exact-arithmetic workloads.

    python3 perfbench/run.py --workload algebra-batch --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; linkforms is imported from
``src/`` of that checkout and nowhere else.  The workload's inputs are
generated from ``--seed``.  Its fixed list of rounds is run in order, one
operation at a time, until ``--seconds`` have elapsed at a round boundary;
each operation is timed alone and checked outside its timer.  The last line
of standard output is one JSON object:

* ``--trace 0``: the end-to-end metrics, measured with no instrumentation;
* ``--trace 1``: the same untraced rounds, then the workload's first
  ``trace_rounds`` again with every layer wrapped (see ``layers.py``),
  reporting the per-layer metrics.

The line before it is a JSON summary with the machine descriptor, the
checksum of the first ``trace_rounds`` rounds' outputs, the failure counts,
the tail percentile and its sample count, and the path decisions with their
bases.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
TAIL_MIN_ABOVE = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("algebra-batch", "complex-materialize", "lazy-queries"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time import plus input generation in this interpreter and print it")
    return p.parse_args(argv)


def load_workloads():
    """Import linkforms from this checkout's src/ (and the workloads that use it)."""
    if not (SRC / "linkforms" / "__init__.py").is_file():
        raise SystemExit(f"error: no linkforms sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import linkforms

    if Path(linkforms.__file__).resolve().parent != (SRC / "linkforms").resolve():
        raise SystemExit(f"error: imported linkforms from {linkforms.__file__}, not {SRC}")
    import workloads

    return workloads


def timed_setup(args):
    t0 = time.perf_counter()
    workloads = load_workloads()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    return time.perf_counter() - t0, workload


def fresh_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Phase:
    """Latencies, failures and path decisions of consecutive rounds."""

    def __init__(self):
        self.latencies: list[float] = []
        self.round_ends: list[int] = []  # len(latencies) after each round
        self.failed = 0
        self.decisions: list[dict] = []
        self.errors: list[str] = []

    @property
    def rounds(self) -> int:
        return len(self.round_ends)

    @property
    def ok_ops(self) -> int:
        return len(self.latencies) - self.failed

    def busy(self, rounds=None) -> float:
        """Time spent inside operations, over the first ``rounds`` rounds."""
        end = self.round_ends[rounds - 1] if rounds else len(self.latencies)
        return sum(self.latencies[:end])


def run_rounds(workload, digests: dict, seconds=None, count=None, tracer=None) -> Phase:
    """Run rounds in order, wrapping around, until ``count`` rounds are done
    or ``seconds`` have passed (and at least ``trace_rounds`` are done).
    Every result is checked, and compared with the first result of the same
    operation."""
    phase = Phase()
    rounds = workload.rounds
    start = time.perf_counter()
    while True:
        r = phase.rounds % len(rounds)
        for idx, op in enumerate(rounds[r]):
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a failed operation is counted, never fatal
                result, error = None, exc
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            phase.latencies.append(dt)
            ok, digest, decisions = False, None, {}
            if error is None:
                try:
                    ok, digest, decisions = op.check(result)
                except Exception as exc:
                    error = exc
            del result
            if digests.setdefault((r, idx), digest) != digest:
                ok = False
                error = error or RuntimeError("result differs from the first run of this operation")
            if not ok:
                phase.failed += 1
                if len(phase.errors) < 5:
                    phase.errors.append(f"round {r} {op.kind}#{idx}: {error!r}" if error
                                        else f"round {r} {op.kind}#{idx}: check failed")
            phase.decisions.append(decisions)
        phase.round_ends.append(len(phase.latencies))
        if count is not None and phase.rounds >= count:
            return phase
        if (seconds is not None and phase.rounds >= workload.trace_rounds
                and time.perf_counter() - start >= seconds):
            return phase


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and its value:
    the 11th largest sample (the largest when there are fewer)."""
    ordered = sorted(latencies, reverse=True)
    n = len(ordered)
    if n <= TAIL_MIN_ABOVE:
        return 100.0, ordered[0]
    return 100.0 * (n - TAIL_MIN_ABOVE) / n, ordered[TAIL_MIN_ABOVE]


def share(decisions: list[dict], key: str, value=True) -> tuple[float | None, int]:
    """Share of the operations that recorded ``key`` where it equals
    ``value``, and that base; the share is None when no operation recorded it."""
    seen = [d[key] for d in decisions if key in d]
    return (sum(1 for v in seen if v == value) / len(seen) if seen else None), len(seen)


def path_metrics(decisions: list[dict]) -> dict:
    """Which path each operation took, as shares with their bases: int64 or
    exact form, materialized or lazy complex, rank certified by bounds or by
    search, path shortcut."""
    out = {}
    for key in ("int64", "materialized", "rank_bounds"):
        out[f"path.{key}_share"], out[f"path.{key}_base"] = share(decisions, key)
    for value in ("equal", "adjacent", "hub"):
        out[f"path.shortcut_{value}_share"], out["path.shortcut_base"] = share(decisions, "shortcut", value)
    return out


# Per-layer path metrics: operations per outcome of each decision.  Only the
# int64 decision is taken by an operation of every workload, so it alone is
# also reported as a share; the others would have a base of 0 somewhere.
PATH_OUTCOMES = {
    "int64_ops": ("int64", True), "exact_ops": ("int64", False),
    "materialized_ops": ("materialized", True), "lazy_ops": ("materialized", False),
    "rank_bounds_ops": ("rank_bounds", True), "rank_search_ops": ("rank_bounds", False),
    "shortcut_equal_ops": ("shortcut", "equal"), "shortcut_adjacent_ops": ("shortcut", "adjacent"),
    "shortcut_hub_ops": ("shortcut", "hub"),
}


def path_layer_metrics(decisions: list[dict]) -> dict:
    out = {f"path.{name}": sum(1 for d in decisions if key in d and d[key] == value)
           for name, (key, value) in PATH_OUTCOMES.items()}
    out["path.int64_share"], _ = share(decisions, "int64")
    return out


def machine() -> dict:
    import numpy
    from linkforms import _kernels

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "using_numba": _kernels.USING_NUMBA,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


KERNELS = ("orth_adjacency", "pairs_hitting", "first_pair", "pair_table", "row_values")
# Functions reported on their own, by wrapped key; a method is named
# ``<layer>.<method>`` in the metrics.
FUNCTIONS = {
    "snf.smith_normal_form": ("calls", "self_s"),
    "snf.column_lattice_index": ("calls", "self_s", "incl_s"),
    "forms.w_morphism_by_index": ("calls", "self_s"),
    "forms.morphisms_from_w": ("self_s", "incl_s"),
    "forms.normal_form": ("self_s", "incl_s"),
    "forms.LinkingForm.evaluate": ("calls",),
    "rank.k_rank": ("calls", "incl_s"),
    "complexes.homology": ("calls", "self_s", "incl_s"),
    "lcomplex.build_l_complex": ("self_s", "incl_s"),
    "lcomplex.find_short_path": ("self_s", "incl_s"),
    "lcomplex.transitivity_witness": ("self_s", "incl_s"),
    "lcomplex.verify_link_iso": ("self_s", "incl_s"),
}


def layer_metrics(tracer, traced: Phase, untraced: Phase) -> dict:
    """Per-layer metrics of the traced rounds, grouped by layer; the
    overhead ratio compares them with the same rounds untraced."""
    import layers

    st, c = tracer.stat, tracer.counters
    m = {}
    for layer in layers.LAYERS:
        name = layer.lstrip("_")  # metric names start with a letter
        m[f"{name}.self_s"] = metric(tracer.layer_self(layer), "s")
        for key, fields in FUNCTIONS.items():
            if key.startswith(layer + "."):
                stat = st(key)
                prefix = f"{layer}.{key.rsplit('.', 1)[1]}"
                for f in fields:
                    value = stat.calls if f == "calls" else stat.self_s if f == "self_s" else stat.incl
                    m[f"{prefix}.{f}"] = metric(value, "count" if f == "calls" else "s")
        if layer == "qz":
            m["qz.QZValue.count"] = metric(st("qz.QZValue.__init__").calls, "count")
        elif layer == "snf":
            m["snf.smith_normal_form.cells"] = metric(c.get("snf.cells", 0), "count")
        elif layer == "groups":
            m["groups.Subgroup.count"] = metric(st("groups.Subgroup.__init__").calls, "count")
        elif layer == "_kernels":
            for fn in KERNELS:
                m[f"kernels.{fn}.calls"] = metric(st(f"_kernels.{fn}").calls, "count")
            m["kernels.int64_ops_computed"] = metric(c.get("kernels.int64_ops", 0), "count")
            m["kernels.bytes_computed"] = metric(c.get("kernels.bytes", 0), "bytes")
        elif layer == "rank":
            m["rank.nodes"] = metric(c.get("rank.nodes", 0), "count")
            m["rank.bounds_certified"] = metric(c.get("rank.bounds_certified", 0), "count")
        elif layer == "complexes":
            m["complexes.homology.faces"] = metric(c.get("complexes.faces", 0), "count")
    m["outside.self_s"] = metric(traced.busy() - sum(s.self_s for s in tracer.stats.values()), "s")
    for name, value in path_layer_metrics(traced.decisions).items():
        m[name] = metric(value, "ratio" if name.endswith("_share") else "count")
    m["trace.spans"] = metric(tracer.total_calls(), "count")
    m["trace.overhead_ratio"] = metric(traced.busy() / untraced.busy(traced.rounds), "ratio")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_main, workload = timed_setup(args)
    if args.setup_only:
        print(f"{setup_main!r}")
        return 0
    digests: dict = {}
    untraced = run_rounds(workload, digests, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_samples = [setup_main]
    if not args.trace:
        setup_samples += [fresh_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]

    attempted = len(untraced.latencies)
    failed = untraced.failed
    percentile, tail_s = tail(untraced.latencies)
    checked = [digests[(r, i)] for r in range(workload.trace_rounds) for i in range(len(workload.rounds[r]))]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine(),
        "rounds": untraced.rounds,
        "samples": attempted,
        "tail_percentile": percentile,
        "fail_ratio": failed / attempted,
        "failed": failed,
        "attempted": attempted,
        "errors": untraced.errors,
        "checksum": hashlib.sha256("\n".join(map(str, checked)).encode()).hexdigest()[:16],
        "setup_samples_s": setup_samples,
        "paths": path_metrics(untraced.decisions),
    }
    if args.trace:
        import layers

        tracer = layers.Tracer()
        summary["wrapped_functions"] = layers.install(tracer)
        traced = run_rounds(workload, digests, count=workload.trace_rounds, tracer=tracer)
        summary["traced_errors"] = traced.errors
        attempted += len(traced.latencies)
        failed += traced.failed
        metrics = layer_metrics(tracer, traced, untraced)
    else:
        metrics = {
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "ops_per_s": metric(untraced.ok_ops / untraced.busy(), "1/s"),
            "latency_p50_ms": metric(statistics.median(untraced.latencies) * 1000.0, "ms"),
            "latency_tail_ms": metric(tail_s * 1000.0, "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
