"""Per-layer spans for linkforms, recorded from outside the package.

``install`` wraps every function, method and property defined in the layer
modules, and rebinds each wrapped name wherever linkforms holds it: module
namespaces (internal callers use ``from .snf import smith_normal_form``, so
wrapping ``snf`` alone would only see external calls) and class
attributes.  Each wrapped call is a span; a span's self time is its
duration minus the time covered by wrapped calls nested inside it.
Spans are aggregated in memory per function (calls, inclusive seconds, self
seconds) and read out once the traced pass ends.

Nothing under ``src/`` changes: an uninstrumented interpreter runs the
original functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# The package modules that count as layers.  ``corpus`` only generates
# inputs (set-up), ``verify`` and ``cli`` are front ends, ``errors`` holds
# exception types.
LAYERS = (
    "qz", "snf", "groups", "_kernels", "forms", "rank",
    "complexes", "lcomplex", "bordism", "documents", "reporting",
)

# Called from dict and set internals at a rate where a span would cost
# more than the work it measures; their time stays with the caller.
_SKIP = frozenset({"__eq__", "__hash__", "__repr__", "__str__"})


class Stat:
    __slots__ = ("calls", "incl", "self_s", "active")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.active = 0  # open activations, so recursion is counted once in incl


class Tracer:
    """Span aggregates per wrapped function, plus counters fed by hooks."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.layer_of: dict[str, str] = {}
        self.counters: dict[str, float] = {}
        self.enabled = False  # spans are recorded only while set
        self._child = [0.0]  # time covered by nested spans, one slot per open span

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def stat(self, key: str) -> Stat:
        return self.stats.get(key) or Stat()

    def layer_self(self, layer: str) -> float:
        return sum(s.self_s for k, s in self.stats.items() if self.layer_of[k] == layer)

    def total_calls(self) -> int:
        return sum(s.calls for s in self.stats.values())

    # -- wrappers ------------------------------------------------------------

    def _register(self, layer: str, key: str) -> Stat:
        st = self.stats.setdefault(key, Stat())
        self.layer_of[key] = layer
        return st

    def wrap(self, layer: str, key: str, func, hook=None):
        st = self._register(layer, key)
        child = self._child
        clock = time.perf_counter

        if inspect.isgeneratorfunction(func):
            # A generator's work happens on each resume, not at the call.
            def resumes(gen):
                st.calls += 1
                while True:
                    child.append(0.0)
                    t0 = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = clock() - t0
                        inner = child.pop()
                        child[-1] += dt
                        st.incl += dt
                        st.self_s += dt - inner
                    yield item

            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                gen = func(*args, **kwargs)
                return resumes(gen) if self.enabled else gen

            return gen_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            child.append(0.0)
            st.active += 1
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                child[-1] += dt
                st.active -= 1
                st.calls += 1
                st.self_s += dt - inner
                if not st.active:
                    st.incl += dt
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# Counters computed from arguments and results
# ---------------------------------------------------------------------------


def _snf_cells(tr, args, result):
    A = args[0]
    tr.add("snf.cells", len(A) * (len(A[0]) if A else 0))


def _kernel_work(tr, ops: int, nbytes: int) -> None:
    """int64 operations (multiply, add, reduce, compare) and bytes of the
    input arrays read plus output written, computed from array shapes."""
    tr.add("kernels.int64_ops", ops)
    tr.add("kernels.bytes", nbytes)


def _pair_table(tr, args, result):
    X, Y = args[0], args[2]
    m, r = X.shape
    n = Y.shape[0]
    _kernel_work(tr, 2 * m * r * r + m * r + 2 * m * n * r + m * n,
                 8 * (m * r + r * r + n * r + m * n))


def _pairs_hitting(tr, args, result):
    m, r = args[0].shape
    pairs, _ = result
    _kernel_work(tr, 2 * m * r * r + m * r + 2 * m * m * r + 2 * m * m,
                 8 * (m * r + r * r) + 16 * len(pairs))


def _first_pair(tr, args, result):
    m, r = args[0].shape
    i = int(result[0])
    rows = i + 1 if i >= 0 else m  # rows scanned up to the first hit
    _kernel_work(tr, 2 * m * r * r + m * r + rows * (2 * m * r + 2 * m),
                 8 * (m * r + r * r) + 16)


def _orth_adjacency(tr, args, result):
    V, r = args[0].shape
    _kernel_work(tr, 2 * (2 * V * r * r + V * r) + 4 * (2 * V * V * r + 2 * V * V),
                 8 * (2 * V * r + r * r) + V * V)


def _row_values(tr, args, result):
    r = len(args[0])
    n = args[2].shape[0]
    _kernel_work(tr, 2 * r * r + r + 2 * n * r + n, 8 * (r + r * r + n * r + n))


def _k_rank(tr, args, result):
    tr.add("rank.nodes", result.nodes)
    if result.certified and result.nodes == 0:
        tr.add("rank.bounds_certified")


def _homology(tr, args, result):
    tr.add("complexes.faces", sum(result.face_counts.values()))


HOOKS = {
    "snf.smith_normal_form": _snf_cells,
    "_kernels.pair_table": _pair_table,
    "_kernels.pairs_hitting": _pairs_hitting,
    "_kernels.first_pair": _first_pair,
    "_kernels.orth_adjacency": _orth_adjacency,
    "_kernels.row_values": _row_values,
    "rank.k_rank": _k_rank,
    "complexes.homology": _homology,
}


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def _defined_here(func, module) -> bool:
    """True for functions whose source is the module's file; this excludes
    imported names and dataclass-generated methods."""
    code = getattr(func, "__code__", None)
    return code is not None and code.co_filename == module.__file__


def install(tracer: Tracer) -> int:
    """Wrap the layer modules and rebind every reference linkforms holds.

    Returns the number of wrapped functions.
    """
    replaced: dict[int, object] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"linkforms.{layer}")
        names_by_obj: dict[int, list[str]] = {}
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and _defined_here(obj, module):
                names_by_obj.setdefault(id(obj), []).append(name)
        for names in names_by_obj.values():
            func = vars(module)[names[0]]
            public = [n for n in names if not n.startswith("_")]
            key = f"{layer}.{(public or names)[0]}"
            replaced[id(func)] = tracer.wrap(layer, key, func, HOOKS.get(key))
        for cls in [o for o in vars(module).values() if inspect.isclass(o)]:
            if cls.__module__ != module.__name__:
                continue
            for attr, val in list(vars(cls).items()):
                if attr in _SKIP:
                    continue
                key = f"{layer}.{cls.__name__}.{attr}"
                wrapped = _wrap_attribute(tracer, layer, key, val, module)
                if wrapped is not None:
                    setattr(cls, attr, wrapped)
    for modname, module in list(sys.modules.items()):
        if modname != "linkforms" and not modname.startswith("linkforms."):
            continue
        for name, obj in list(vars(module).items()):
            wrapper = replaced.get(id(obj))
            if wrapper is not None:
                setattr(module, name, wrapper)
    return len(tracer.stats)


def _wrap_attribute(tracer, layer, key, val, module):
    if inspect.isfunction(val):
        if not _defined_here(val, module):
            return None
        return tracer.wrap(layer, key, val)
    if isinstance(val, functools.cached_property):
        new = functools.cached_property(tracer.wrap(layer, key, val.func))
        new.__set_name__(None, val.attrname)
        return new
    if isinstance(val, property) and val.fget is not None:
        return property(tracer.wrap(layer, key, val.fget), val.fset, val.fdel, val.__doc__)
    if isinstance(val, classmethod):
        return classmethod(tracer.wrap(layer, key, val.__func__))
    if isinstance(val, staticmethod):
        return staticmethod(tracer.wrap(layer, key, val.__func__))
    return None
