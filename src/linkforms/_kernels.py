"""Pairing kernels: one linking form evaluated over arrays of elements.

Every linking-form value on the k-torsion of a group with common Gram
denominator D is an integer numerator mod D, so bulk pairing evaluation,
morphism enumeration and orthogonality tests reduce to integer matrix work.
Each kernel reduces mod D after every matrix product, and it runs
unchanged on any integer dtype: int64 arrays where :func:`fits_int64`
proves that every intermediate fits, ``dtype=object`` arrays of Python ints
everywhere else.  The form picks one dtype for all its arrays
(``LinkingForm._numerator_array``); the kernels never branch on it.
A single morphism W_k -> M, first or index-th, needs no kernel: its
partner is counted out exactly (``forms._partner``).

Tables larger than one block of ``_BLOCK_CELLS`` cells are computed block
by block.  The orthogonality adjacency of V vertices pairs only the u
distinct images (u x u cells, far fewer than V x V for a block-morphism
complex), so its transient memory is that table and fixed-size blocks, and
the V x V boolean result is the only array that grows with V^2.
"""

from __future__ import annotations

import numpy as np

# The machine descriptor of the benchmark (perfbench/run.py) reads this flag.
USING_NUMBA = False

# Cells (rows x columns) of one block of a pairing table or adjacency;
# bounds the transient memory of the pair searches, the orthogonality
# adjacency, and the flag-complex symmetry check and bit packing.
_BLOCK_CELLS = 1 << 18


def fits_int64(D: int, dmax: int, rank: int) -> bool:
    """Whether int64 is exact: rank * dmax * D < 2**63, dmax the largest
    group order.  Every entry is a coefficient or step at most dmax or a
    numerator below D, and each product is reduced mod D before the next,
    so every intermediate is a sum of at most ``rank`` products below
    dmax * D, and a step of dmax itself fits.  The call sites:
    ``LinkingForm._np_numerators``, ``_numerator_array``, ``_torsion_rows``
    and ``_row_gcds`` (X @ N mod D is scaled by the steps),
    ``lcomplex._orthogonality`` and ``_orthogonal_rows``, and
    ``pairs_hitting``, ``orth_adjacency`` and ``row_values`` here."""
    return rank * dmax * D < 1 << 63


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


def orth_adjacency(U, xi, yi, N, D):
    """Boolean V x V matrix: both images mutually orthogonal.

    U lists distinct elements; vertex i is the morphism with generator
    images (U[xi[i]], U[yi[i]]), and adjacency needs all four cross
    pairings to vanish mod D.  Each pairing is computed once per pair of
    elements, as the u x u table Z = (U N U^T mod D == 0), in row blocks.
    Column j of W = Z[:, xi] & Z[:, yi] marks the elements orthogonal to
    both images of vertex j, so column j of the result is W[xi, j] & W[yi, j].
    The result is filled in column blocks: each block of W is built, and
    its rows are gathered by xi and by yi (whole-row copies, which is why
    the blocks are columns).  Every transient array has at most
    ``_BLOCK_CELLS`` cells, apart from the u x u table.
    """
    u, V = U.shape[0], len(xi)
    UN = (U @ N) % D
    Z = np.empty((u, u), dtype=bool)
    rows = max(1, _BLOCK_CELLS // max(u, 1))
    for start in range(0, u, rows):
        Z[start:start + rows] = (UN[start:start + rows] @ U.T) % D == 0
    out = np.empty((V, V), dtype=bool)
    cols = max(1, _BLOCK_CELLS // max(V, u, 1))
    for start in range(0, V, cols):
        stop = start + cols
        W = Z.take(xi[start:stop], axis=1) & Z.take(yi[start:stop], axis=1)
        np.logical_and(W.take(xi, axis=0), W.take(yi, axis=0), out=out[:, start:stop])
    return out


def row_values(xrow, N, Y, D):
    """Pairing numerators of one element against many: (x N) . Y_j mod D."""
    v = (xrow @ N) % D
    return (Y @ v) % D
