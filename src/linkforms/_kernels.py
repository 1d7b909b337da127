"""Pairing kernels: one linking form evaluated over arrays of elements.

Every linking-form value on the k-torsion of a group with common Gram
denominator D is an integer numerator mod D, so bulk pairing evaluation,
morphism enumeration and orthogonality tests reduce to integer matrix work.
Each kernel is one numpy expression that reduces mod D after every matrix
product, and it runs unchanged on any integer dtype: int64 arrays where
:func:`fits_int64` proves that every intermediate fits, and ``dtype=object``
arrays of Python ints, exact at any size, everywhere else.  The caller
chooses the dtype (``LinkingForm._w_rows``); the kernels never branch on it.
A single morphism W_k -> M, first or index-th, needs no kernel: its
partner is counted out exactly (``forms._partner``).
"""

from __future__ import annotations

import numpy as np

# The machine descriptor of the benchmark (perfbench/run.py) reads this flag.
USING_NUMBA = False

# Largest modulus/order/rank for which x * N * y sums stay well inside
# int64: r * dmax * dmax * D <= 2**62 with the margins below.
_MOD_LIMIT = 1 << 20
_RANK_LIMIT = 64
# Cells (rows x columns) of one block of a pairing table; bounds the
# transient memory of the pair searches.
_BLOCK_CELLS = 1 << 18


def fits_int64(D: int, dmax: int, rank: int) -> bool:
    return D <= _MOD_LIMIT and dmax <= _MOD_LIMIT and rank <= _RANK_LIMIT


def pairs_hitting(X, N, D, target, limit):
    """Row-major pairs (i, j) with X_i N X_j == target mod D.

    Returns at most ``limit`` pairs (all of them when limit < 0) and the
    total number of hits.
    """
    m = X.shape[0]
    cap = limit if limit >= 0 else m * m
    XN = (X @ N) % D
    rows = max(1, _BLOCK_CELLS // max(m, 1))
    chunks = []
    total = 0
    for start in range(0, m, rows):
        ii, jj = np.nonzero((XN[start:start + rows] @ X.T) % D == target)
        if total < cap:
            chunks.append(np.stack([ii + start, jj], axis=1)[: cap - total])
        total += ii.shape[0]
    out = np.concatenate(chunks) if chunks else np.empty((0, 2), np.int64)
    return out, total


def orth_adjacency(X, Y, N, D):
    """Boolean V x V matrix: both images mutually orthogonal.

    Vertex i is the morphism with generator images (X_i, Y_i); adjacency
    needs all four cross pairings to vanish mod D.
    """
    XN = (X @ N) % D
    YN = (Y @ N) % D
    out = (XN @ X.T) % D == 0
    out &= (XN @ Y.T) % D == 0
    out &= (YN @ X.T) % D == 0
    out &= (YN @ Y.T) % D == 0
    return out


def row_values(xrow, N, Y, D):
    """Pairing numerators of one element against many: (x N) . Y_j mod D."""
    v = (xrow @ N) % D
    return (Y @ v) % D
