"""Hot integer kernels for pairing evaluation over element arrays.

Every linking-form value on the k-torsion of a group with common Gram
denominator D is an integer numerator mod D, so bulk pairing evaluation,
morphism enumeration and orthogonality tests reduce to int64 matrix work.
Two interchangeable implementations are provided:

* a numba-accelerated path (default when numba imports cleanly), and
* a pure-numpy path, selected by setting ``LINKFORMS_PURE_NUMPY=1``.

Both produce identical results; ``benchmarks/bench_kernels.py`` compares
their speed.  Callers must gate inputs with :func:`fits_int64` first; the
exact big-integer paths elsewhere in the package remain pure Python and do
not run through here.
"""

from __future__ import annotations

import os

import numpy as np

ENV_FLAG = "LINKFORMS_PURE_NUMPY"

# Largest modulus/order/rank for which x * N * y sums stay well inside
# int64: r * dmax * dmax * D <= 2**62 with the margins below.
_MOD_LIMIT = 1 << 20
_RANK_LIMIT = 64
# Cells (rows x columns) of one int64 block of a pairing table; bounds the
# transient memory of the numpy pair searches.
_BLOCK_CELLS = 1 << 18


def pure_numpy_requested() -> bool:
    return os.environ.get(ENV_FLAG, "").strip() not in ("", "0")


def fits_int64(D: int, dmax: int, rank: int) -> bool:
    return D <= _MOD_LIMIT and dmax <= _MOD_LIMIT and rank <= _RANK_LIMIT


# ---------------------------------------------------------------------------
# Loop implementations (numba-compilable; also runnable, slowly, as Python)
# ---------------------------------------------------------------------------


def _pair_table_loop(X, N, Y, D):
    m = X.shape[0]
    n = Y.shape[0]
    r = X.shape[1]
    out = np.empty((m, n), np.int64)
    v = np.empty(r, np.int64)
    for i in range(m):
        for j in range(r):
            acc = 0
            for t in range(r):
                acc += X[i, t] * N[t, j]
            v[j] = acc % D
        for j2 in range(n):
            acc2 = 0
            for t in range(r):
                acc2 += v[t] * Y[j2, t]
            out[i, j2] = acc2 % D
    return out


def _pairs_hitting_loop(X, N, D, target, offset, limit):
    """Row-major (i, j) with value(X_i, X_j) == target.

    Skips the first ``offset`` hits, collects at most ``limit`` (limit < 0
    means unbounded), and always returns the total hit count.
    """
    m = X.shape[0]
    r = X.shape[1]
    cap = limit if limit >= 0 else m * m
    out = np.empty((cap, 2), np.int64)
    kept = 0
    total = 0
    v = np.empty(r, np.int64)
    for i in range(m):
        for j in range(r):
            acc = 0
            for t in range(r):
                acc += X[i, t] * N[t, j]
            v[j] = acc % D
        for j2 in range(m):
            acc2 = 0
            for t in range(r):
                acc2 += v[t] * X[j2, t]
            if acc2 % D == target:
                if total >= offset and kept < cap:
                    out[kept, 0] = i
                    out[kept, 1] = j2
                    kept += 1
                total += 1
    return out[:kept], total


def _first_pair_loop(X, N, D, target):
    m = X.shape[0]
    r = X.shape[1]
    v = np.empty(r, np.int64)
    for i in range(m):
        for j in range(r):
            acc = 0
            for t in range(r):
                acc += X[i, t] * N[t, j]
            v[j] = acc % D
        for j2 in range(m):
            acc2 = 0
            for t in range(r):
                acc2 += v[t] * X[j2, t]
            if acc2 % D == target:
                return i, j2
    return -1, -1


def _orth_adjacency_loop(X, Y, N, D):
    """Boolean V x V matrix: both images mutually orthogonal.

    Vertex i is the morphism with generator images (X_i, Y_i); adjacency
    needs all four cross pairings to vanish mod D.
    """
    V = X.shape[0]
    r = X.shape[1]
    XN = np.empty((V, r), np.int64)
    YN = np.empty((V, r), np.int64)
    for i in range(V):
        for j in range(r):
            a = 0
            b = 0
            for t in range(r):
                a += X[i, t] * N[t, j]
                b += Y[i, t] * N[t, j]
            XN[i, j] = a % D
            YN[i, j] = b % D
    out = np.zeros((V, V), np.bool_)
    for i in range(V):
        for j2 in range(V):
            ok = True
            s = 0
            for t in range(r):
                s += XN[i, t] * X[j2, t]
            if s % D != 0:
                ok = False
            if ok:
                s = 0
                for t in range(r):
                    s += XN[i, t] * Y[j2, t]
                if s % D != 0:
                    ok = False
            if ok:
                s = 0
                for t in range(r):
                    s += YN[i, t] * X[j2, t]
                if s % D != 0:
                    ok = False
            if ok:
                s = 0
                for t in range(r):
                    s += YN[i, t] * Y[j2, t]
                if s % D != 0:
                    ok = False
            out[i, j2] = ok
    return out


# ---------------------------------------------------------------------------
# numpy implementations
# ---------------------------------------------------------------------------


def _pair_table_numpy(X, N, Y, D):
    XN = (X @ N) % D
    return (XN @ Y.T) % D


def _row_blocks(m, first):
    """Row ranges covering range(m) for an m-column table: ``first`` rows,
    then doubling, each block at most _BLOCK_CELLS cells (and one row)."""
    cap = max(1, _BLOCK_CELLS // max(m, 1))
    rows = min(first, cap)
    start = 0
    while start < m:
        yield start, min(start + rows, m)
        start += rows
        rows = min(2 * rows, cap)


def _pairs_hitting_numpy(X, N, D, target, offset, limit):
    m = X.shape[0]
    XN = (X @ N) % D
    chunks = []
    total = 0
    cap = limit if limit >= 0 else m * m
    kept = 0
    for start, stop in _row_blocks(m, m):
        vals = (XN[start:stop] @ X.T) % D
        ii, jj = np.nonzero(vals == target)
        c = ii.shape[0]
        if c and kept < cap:
            pos = total
            pairs = np.stack([ii + start, jj], axis=1)
            lo = max(0, offset - pos)
            hi = min(c, lo + (cap - kept))
            if hi > lo:
                chunks.append(pairs[lo:hi])
                kept += hi - lo
        total += c
    if chunks:
        out = np.concatenate(chunks, axis=0)
    else:
        out = np.empty((0, 2), np.int64)
    return out, total


def _first_pair_numpy(X, N, D, target):
    # The first hit is usually in the first rows, so blocks grow from one row.
    m = X.shape[0]
    XN = (X @ N) % D
    for start, stop in _row_blocks(m, 1):
        vals = (XN[start:stop] @ X.T) % D
        ii, jj = np.nonzero(vals == target)
        if ii.shape[0]:
            return int(ii[0]) + start, int(jj[0])
    return -1, -1


def _orth_adjacency_numpy(X, Y, N, D):
    XN = (X @ N) % D
    YN = (Y @ N) % D
    out = ((XN @ X.T) % D == 0)
    out &= (XN @ Y.T) % D == 0
    out &= (YN @ X.T) % D == 0
    out &= (YN @ Y.T) % D == 0
    return out


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

USING_NUMBA = False
if not pure_numpy_requested():
    try:
        from numba import njit

        _pair_table_nb = njit(cache=True, nogil=True)(_pair_table_loop)
        _pairs_hitting_nb = njit(cache=True, nogil=True)(_pairs_hitting_loop)
        _first_pair_nb = njit(cache=True, nogil=True)(_first_pair_loop)
        _orth_adjacency_nb = njit(cache=True, nogil=True)(_orth_adjacency_loop)
        USING_NUMBA = True
    except ImportError:  # pragma: no cover - numba is an optional extra
        USING_NUMBA = False

if USING_NUMBA:
    pair_table = _pair_table_nb
    pairs_hitting = _pairs_hitting_nb
    first_pair = _first_pair_nb
    orth_adjacency = _orth_adjacency_nb
else:
    pair_table = _pair_table_numpy
    pairs_hitting = _pairs_hitting_numpy
    first_pair = _first_pair_numpy
    orth_adjacency = _orth_adjacency_numpy


def row_values(xrow, N, Y, D):
    """Pairing numerators of one element against many: (x N) . Y_j mod D."""
    v = (xrow @ N) % D
    return (Y @ v) % D
