"""Backend equivalence for the array kernels.

Both the numba-compiled loops and the numpy fallback must produce
identical results; the fallback is selected by setting LINKFORMS_PURE_NUMPY
before import, so cross-backend comparison runs in a subprocess.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from linkforms import _kernels
from linkforms._kernels import (
    ENV_FLAG,
    first_pair,
    fits_int64,
    orth_adjacency,
    pair_table,
    pairs_hitting,
    row_values,
)


def reference_pair_table(X, N, Y, D):
    m, r = X.shape
    n = Y.shape[0]
    out = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        for j in range(n):
            acc = 0
            for a in range(r):
                for b in range(r):
                    acc += int(X[i, a]) * int(N[a, b]) * int(Y[j, b])
            out[i, j] = acc % D
    return out


def small_instance(seed=0, m=7, n=6, r=3, D=9):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, D, size=(m, r)).astype(np.int64)
    Y = rng.integers(0, D, size=(n, r)).astype(np.int64)
    N = rng.integers(0, D, size=(r, r)).astype(np.int64)
    return X, N, Y, D


def test_pair_table_matches_reference():
    X, N, Y, D = small_instance()
    got = np.asarray(pair_table(X, N, Y, D))
    assert np.array_equal(got, reference_pair_table(X, N, Y, D))


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
    pairs, total = pairs_hitting(X, N, np.int64(D), np.int64(target), 0, 10**6)
    assert total == len(want)
    assert [tuple(p) for p in np.asarray(pairs).tolist()] == want
    # offset/limit paging returns the same sequence in slices
    paged = []
    offset = 0
    while True:
        chunk, _ = pairs_hitting(X, N, np.int64(D), np.int64(target), offset, 3)
        chunk = np.asarray(chunk)
        if chunk.shape[0] == 0:
            break
        paged.extend(tuple(p) for p in chunk.tolist())
        offset += chunk.shape[0]
    assert paged == want


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
    pairs, total = pairs_hitting(X, N, np.int64(D), np.int64(target), 0, -1)
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


@pytest.mark.skipif(not _kernels.USING_NUMBA, reason="numba backend not active")
def test_numpy_fallback_agrees_with_numba():
    """Run the same computation under LINKFORMS_PURE_NUMPY=1 in a child
    process and compare against the in-process numba results."""
    X, N, Y, D = small_instance(seed=5, m=8, n=8)
    table = np.asarray(pair_table(X, N, Y, D))
    pairs, total = pairs_hitting(X, N, np.int64(D), np.int64(1), 0, 10**6)
    script = (
        "import numpy as np\n"
        "from linkforms import _kernels\n"
        "assert not _kernels.USING_NUMBA\n"
        "rng = np.random.default_rng(5)\n"
        "X = rng.integers(0, 9, size=(8, 3)).astype(np.int64)\n"
        "Y = rng.integers(0, 9, size=(8, 3)).astype(np.int64)\n"
        "N = rng.integers(0, 9, size=(3, 3)).astype(np.int64)\n"
        "table = np.asarray(_kernels.pair_table(X, N, Y, 9))\n"
        "pairs, total = _kernels.pairs_hitting(X, N, np.int64(9), np.int64(1), 0, 10**6)\n"
        "print(table.tolist())\n"
        "print(np.asarray(pairs).tolist(), int(total))\n"
    )
    env = dict(os.environ, **{ENV_FLAG: "1"})
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert lines[0] == str(table.tolist())
    assert lines[1] == f"{np.asarray(pairs).tolist()} {int(total)}"


def test_env_flag_disables_numba():
    script = (
        "from linkforms import _kernels\n"
        "print(_kernels.USING_NUMBA)\n"
    )
    env = dict(os.environ, **{ENV_FLAG: "1"})
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_library_results_identical_across_backends():
    """End-to-end: morphism counts and adjacency built on each backend
    agree on a nontrivial form."""
    script = (
        "from linkforms import w_power, count_w_morphisms, build_l_complex\n"
        "L = build_l_complex(w_power(3, 2), 3)\n"
        "print(L.vertex_count, L.edge_count(), len(L.components()))\n"
    )
    results = []
    for flag in ("0", "1"):
        env = dict(os.environ, **{ENV_FLAG: flag})
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        results.append(out.stdout.strip())
    assert results[0] == results[1] == "2160 25920 45"
