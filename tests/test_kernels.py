"""The array kernels against a Python-int reference.

Each kernel runs on int64 arrays inside the ``fits_int64`` gate and on
``dtype=object`` arrays of Python ints outside it; both are checked against
the same exact reference, including at the edge of the gate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkforms import _kernels
from linkforms._kernels import (
    fits_int64,
    orth_adjacency,
    pairs_hitting,
    row_values,
)


def reference_pair_table(X, N, Y, D):
    """Pairing numerators X_i N Y_j mod D in Python ints (object array)."""
    m, r = X.shape
    n = Y.shape[0]
    out = np.zeros((m, n), dtype=object)
    for i in range(m):
        for j in range(n):
            acc = 0
            for a in range(r):
                for b in range(r):
                    acc += int(X[i, a]) * int(N[a, b]) * int(Y[j, b])
            out[i, j] = acc % D
    return out


def reference_adjacency(X, Y, N, D):
    zero = [reference_pair_table(A, N, B, D) == 0 for A in (X, Y) for B in (X, Y)]
    return np.logical_and.reduce(zero)


def small_instance(seed=0, m=7, n=6, r=3, D=9):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, D, size=(m, r)).astype(np.int64)
    Y = rng.integers(0, D, size=(n, r)).astype(np.int64)
    N = rng.integers(0, D, size=(r, r)).astype(np.int64)
    return X, N, Y, D


def test_row_values_matches_table():
    X, N, Y, D = small_instance(seed=1)
    table = reference_pair_table(X, N, Y, D)
    for i in range(X.shape[0]):
        assert np.array_equal(np.asarray(row_values(X[i], N, Y, D)), table[i])


def test_pairs_hitting_matches_reference():
    X, N, _, D = small_instance(seed=2, m=9, n=9)
    target = 3
    table = reference_pair_table(X, N, X, D)
    want = [(i, j) for i in range(9) for j in range(9) if table[i, j] == target]
    pairs, total = pairs_hitting(X, N, np.int64(D), np.int64(target), 10**6)
    assert total == len(want)
    assert [tuple(p) for p in np.asarray(pairs).tolist()] == want
    # a limit keeps the first hits and still counts all of them
    pairs, total = pairs_hitting(X, N, np.int64(D), np.int64(target), 3)
    assert total == len(want)
    assert [tuple(p) for p in np.asarray(pairs).tolist()] == want[:3]


@pytest.mark.parametrize("cells", [_kernels._BLOCK_CELLS, 64])
@pytest.mark.parametrize("case", ["random", "late", "none"])
def test_pair_searches_match_argwhere(monkeypatch, cells, case):
    """The pair search against np.argwhere over the full table, with the
    default block budget and with one small enough for one-row blocks."""
    monkeypatch.setattr(_kernels, "_BLOCK_CELLS", cells)
    X, N, _, D = small_instance(seed=6, m=40, n=40, r=3)
    target = 4
    if case == "late":
        X[:23] = 0  # zero rows pair to 0: with one-row blocks, 23 blocks without a hit
    elif case == "none":
        X[:] = 0
    want = np.argwhere(reference_pair_table(X, N, X, D) == target)
    if case == "late":
        assert want[0][0] >= 23
    if case == "none":
        assert len(want) == 0
    pairs, total = pairs_hitting(X, N, np.int64(D), np.int64(target), -1)
    assert total == len(want)
    assert np.array_equal(np.asarray(pairs).reshape(-1, 2), want)


def four_products(X, Y, N, D):
    """The adjacency as four V x V pairing products, one per image pair."""
    XN = (X @ N) % D
    YN = (Y @ N) % D
    out = (XN @ X.T) % D == 0
    out &= (XN @ Y.T) % D == 0
    out &= (YN @ X.T) % D == 0
    out &= (YN @ Y.T) % D == 0
    return out


def test_orth_adjacency_matches_reference():
    rng = np.random.default_rng(4)
    D = 9
    u, n, r = 8, 11, 4
    U = rng.integers(0, D, size=(u, r)).astype(np.int64)
    U[5] = U[2]  # one element listed twice
    N = rng.integers(0, D, size=(r, r)).astype(np.int64)
    xi = rng.integers(0, u, size=n)
    yi = rng.integers(0, u, size=n)
    yi[3] = xi[3]  # one vertex with equal images
    got = np.asarray(orth_adjacency(U, xi, yi, N, D))
    assert got.shape == (n, n)
    for i in range(n):
        for j in range(n):
            vals = [
                reference_pair_table(A[None, :], N, B[None, :], D)[0, 0]
                for A in (U[xi[i]], U[yi[i]])
                for B in (U[xi[j]], U[yi[j]])
            ]
            assert got[i, j] == all(v == 0 for v in vals)


@st.composite
def adjacency_instances(draw):
    """(U, xi, yi, N, D) as Python-int object arrays.  U repeats rows of a
    small pool and the index arrays repeat indices, so the distinct-element
    table is read through repeated elements and repeated images."""
    D = draw(st.one_of(st.integers(2, 30), st.integers((1 << 20) + 1, 1 << 70)))
    r = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(0, 2), st.integers(0, D - 1))
    row = st.lists(entry, min_size=r, max_size=r)
    pool = draw(st.lists(row, min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    U = np.array([pool[p] for p in picks], dtype=object).reshape(len(picks), r)
    N = np.array(draw(st.lists(row, min_size=r, max_size=r)), dtype=object).reshape(r, r)
    V = draw(st.integers(0, 40))
    index = st.lists(st.integers(0, len(picks) - 1), min_size=V, max_size=V)
    xi = np.array(draw(index), dtype=np.intp)
    yi = np.array(draw(index), dtype=np.intp)
    return U, xi, yi, N, D


@pytest.mark.parametrize("cells", [_kernels._BLOCK_CELLS, 64])
@settings(max_examples=60, deadline=None)
@given(adjacency_instances())
def test_orth_adjacency_matches_four_products(cells, instance):
    """The distinct-element kernel against the four-product expression on
    the vertices' images, on int64 arrays inside the gate and on Python-int
    arrays always, with the default block budget and with one of 64 cells,
    which splits the larger instances into blocks of a few columns."""
    U, xi, yi, N, D = instance
    copies = [U]
    if fits_int64(D, D, U.shape[1]):
        copies.append(U.astype(np.int64))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_BLOCK_CELLS", cells)
        for A in copies:
            M = N.astype(A.dtype)
            got = orth_adjacency(A, xi, yi, M, D)
            assert got.dtype == bool and got.flags.c_contiguous
            assert np.array_equal(got, four_products(A[xi], A[yi], M, D))


def test_fits_int64_bounds():
    """The gate is rank * dmax * D < 2**63: D up to about 2**30.5 at rank
    4 when dmax = D, and never an order of 2**63, which is no int64."""
    assert fits_int64(9, 9, 8)
    assert fits_int64(1518500249, 1518500249, 4)
    assert not fits_int64(1518500251, 1518500251, 4)
    assert fits_int64(1, (1 << 63) - 1, 1)
    assert not fits_int64(1, 1 << 63, 1)
    assert not fits_int64(1 << 31, 1 << 31, 2)
    assert fits_int64(1, 1, 0)  # the rank-0 form


def check_kernels(X, Y, N, D, cell, zero_rows):
    """All three kernels on (X, Y, N, D) against the Python-int reference.

    The pair-search target is the value of table cell ``cell``, so it has
    at least one hit; rows listed in ``zero_rows`` are zeroed in X and Y so
    that some vertices are adjacent.
    """
    X[zero_rows] = 0
    Y[zero_rows] = 0
    table = reference_pair_table(X, N, X, D)
    target = table[cell]
    want = np.argwhere(table == target)
    pairs, total = pairs_hitting(X, N, D, target, -1)
    assert total == len(want)
    assert np.array_equal(np.asarray(pairs).reshape(-1, 2), want)
    m = len(X)
    adj = orth_adjacency(np.concatenate([X, Y]), np.arange(m), np.arange(m, 2 * m), N, D)
    assert np.array_equal(adj, reference_adjacency(X, Y, N, D))
    cross = reference_pair_table(X, N, Y, D)
    for i in range(len(X)):
        assert np.array_equal(row_values(X[i], N, Y, D), cross[i])


def near(D, shape):
    """Integers in [D - 64, D), the largest values a modulus D admits."""
    return st.lists(
        st.integers(max(0, D - 64), D - 1), min_size=int(np.prod(shape)),
        max_size=int(np.prod(shape)),
    ).map(lambda v: np.array(v, dtype=object).reshape(shape))


def largest_odd(limit, multiple=1):
    """The largest odd multiple of ``multiple`` (itself odd) up to limit."""
    return limit - (limit - multiple) % (2 * multiple)


def largest_odd_order(D, r):
    """The largest odd dmax with r * dmax * D < 2**63."""
    return largest_odd(((1 << 63) - 1) // (r * D))


def largest_odd_modulus(r, multiple=1):
    """The largest odd multiple D of ``multiple`` with r * D * D < 2**63."""
    return largest_odd(math.isqrt(((1 << 63) - 1) // r), multiple)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_kernels_at_int64_gate_edge(data):
    """Odd D and odd largest order dmax with r * dmax * D just under 2**63,
    rank 1 to 12, coefficients next to dmax and numerators next to D: the
    gate gives int64, and the int64 and object copies agree with the
    Python-int reference.  With the next odd order, r * dmax * D is past
    2**63: the gate gives dtype=object, and that copy agrees too.  A
    modulus past 2**63, with entries next to it, runs on the object path
    only."""
    r = data.draw(st.integers(1, 12))
    odd = st.integers(1, 1 << 40).map(lambda n: 2 * n + 1)
    D = data.draw(st.one_of(st.just(largest_odd_modulus(r)), odd))
    dmax = largest_odd_order(D, r)
    m = data.draw(st.integers(1, 8))
    cell = (data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1)))
    zero_rows = data.draw(st.lists(st.integers(0, m - 1), max_size=m))
    N = data.draw(near(D, (r, r)))
    for order, want in ((dmax, np.int64), (dmax + 2, object)):
        assert (np.int64 if fits_int64(D, order, r) else object) is want
        X, Y = data.draw(near(order, (m, r))), data.draw(near(order, (m, r)))
        check_kernels(X.astype(want), Y.astype(want), N.astype(want), D, cell, zero_rows)
        if want is np.int64:
            check_kernels(X, Y, N, D, cell, zero_rows)

    big = data.draw(st.integers(1 << 63, 1 << 80))
    assert not fits_int64(big, big, r)
    X, Y = data.draw(near(big, (m, r))), data.draw(near(big, (m, r)))
    N = data.draw(near(big, (r, r)))
    check_kernels(X, Y, N, big, cell, zero_rows)
