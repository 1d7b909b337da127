"""The array kernels against a Python-int reference.

Each kernel runs on int64 arrays inside the ``fits_int64`` gate and on
``dtype=object`` arrays of Python ints outside it; both are checked against
the same exact reference, including at the edge of the gate.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkforms import _kernels
from linkforms._kernels import (
    first_pair,
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


def test_first_pair_matches_reference():
    X, N, _, D = small_instance(seed=3, m=9, n=9)
    table = reference_pair_table(X, N, X, D)
    for target in range(D):
        want = next(
            ((i, j) for i in range(9) for j in range(9) if table[i, j] == target),
            (-1, -1),
        )
        assert tuple(first_pair(X, N, np.int64(D), np.int64(target))) == want


@pytest.mark.parametrize("cells", [_kernels._BLOCK_CELLS, 64])
@pytest.mark.parametrize("case", ["random", "late", "none"])
def test_pair_searches_match_argwhere(monkeypatch, cells, case):
    """Both searches against np.argwhere over the full table, with the
    default block budget and with one small enough for many blocks."""
    monkeypatch.setattr(_kernels, "_BLOCK_CELLS", cells)
    X, N, _, D = small_instance(seed=6, m=40, n=40, r=3)
    target = 4
    if case == "late":
        X[:23] = 0  # zero rows pair to 0: no hit in the blocks of 1, 2, 4, 8 rows
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
    first = tuple(want[0]) if len(want) else (-1, -1)
    assert tuple(first_pair(X, N, np.int64(D), np.int64(target))) == first


def test_orth_adjacency_matches_reference():
    rng = np.random.default_rng(4)
    D = 9
    n, r = 11, 4
    X = rng.integers(0, D, size=(n, r)).astype(np.int64)
    Y = rng.integers(0, D, size=(n, r)).astype(np.int64)
    N = rng.integers(0, D, size=(r, r)).astype(np.int64)
    got = np.asarray(orth_adjacency(X, Y, N, D))
    assert got.shape == (n, n)
    for i in range(n):
        for j in range(n):
            vals = [
                reference_pair_table(A[None, :], N, B[None, :], D)[0, 0]
                for A in (X[i], Y[i])
                for B in (X[j], Y[j])
            ]
            assert got[i, j] == all(v == 0 for v in vals)


def test_fits_int64_bounds():
    assert fits_int64(9, 9, 8)
    assert not fits_int64(2**40, 2**40, 64)


def check_kernels(X, Y, N, D, cell, zero_rows):
    """All four kernels on (X, Y, N, D) against the Python-int reference.

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
    assert first_pair(X, N, D, target) == tuple(want[0])
    assert np.array_equal(orth_adjacency(X, Y, N, D), reference_adjacency(X, Y, N, D))
    cross = reference_pair_table(X, N, Y, D)
    for i in range(len(X)):
        assert np.array_equal(row_values(X[i], N, Y, D), cross[i])


def near(D, shape):
    """Integers in [D - 64, D), the largest values a modulus D admits."""
    return st.lists(
        st.integers(max(0, D - 64), D - 1), min_size=int(np.prod(shape)),
        max_size=int(np.prod(shape)),
    ).map(lambda v: np.array(v, dtype=object).reshape(shape))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_kernels_at_int64_gate_edge(data):
    """Moduli next to 2**20 (odd ones included), rank up to 12, entries next
    to D: the int64 and the object copies of the same arrays agree with the
    reference.  One modulus above the gate runs on the object path only."""
    D = data.draw(st.one_of(st.just((1 << 20) - 1), st.integers((1 << 20) - 64, 1 << 20)))
    r = data.draw(st.integers(1, 12))
    m = data.draw(st.integers(1, 8))
    assert fits_int64(D, D, r)
    X, Y = data.draw(near(D, (m, r))), data.draw(near(D, (m, r)))
    N = data.draw(near(D, (r, r)))
    cell = (data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1)))
    zero_rows = data.draw(st.lists(st.integers(0, m - 1), max_size=m))
    check_kernels(X.astype(np.int64), Y.astype(np.int64), N.astype(np.int64), D, cell, zero_rows)
    check_kernels(X, Y, N, D, cell, zero_rows)

    big = data.draw(st.integers((1 << 20) + 1, 1 << 80))
    assert not fits_int64(big, big, r)
    X, Y = data.draw(near(big, (m, r))), data.draw(near(big, (m, r)))
    N = data.draw(near(big, (r, r)))
    check_kernels(X, Y, N, big, cell, zero_rows)
