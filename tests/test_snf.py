"""Smith normal form against gcd-of-minors and determinant oracles.

The k-th determinantal divisor (gcd of all k x k minors) is invariant
under unimodular row/column operations, and the SNF diagonal must satisfy
d_1 * ... * d_k = D_k.  Together with a fraction-free determinant check on
the transform matrices this pins the answer down completely.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from linkforms import column_lattice_index, integer_kernel_basis, smith_normal_form
from linkforms.snf import _eliminate, prime_factorization


def bareiss_det(A):
    """Fraction-free determinant (exact, no floats)."""
    n = len(A)
    if n == 0:
        return 1
    M = [list(row) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def minor_gcds(A):
    m, n = len(A), len(A[0])
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[A[i][j] for j in cols] for i in rows]
                g = math.gcd(g, bareiss_det(sub))
        out.append(g)
    return out


def matmul(A, B):
    """Exact integer matrix product."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def check_snf(A):
    res = smith_normal_form(A)
    m, n = len(A), len(A[0]) if A else 0
    assert abs(bareiss_det(res.left)) == 1
    assert abs(bareiss_det(res.right)) == 1
    D = matmul(matmul(res.left, A), res.right)
    assert D == [[res.diag[i] if i == j else 0 for j in range(n)] for i in range(m)]
    for a, b in zip(res.diag, res.diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0
    gcds = minor_gcds(A)
    prod = 1
    for k, d in enumerate(res.diag):
        prod *= d
        assert prod == gcds[k]
    assert res.rank == sum(1 for d in res.diag if d)
    return res


KNOWN = [
    [[2, 4], [6, 8]],
    [[1, 0], [0, 1]],
    [[0, 0], [0, 0]],
    [[6]],
    [[2, 4, 4]],
    [[2], [4], [4]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    [[-3, 1], [1, -3]],
    [[2, 0, 0], [0, 3, 0]],
]


@pytest.mark.parametrize("A", KNOWN)
def test_known_matrices(A):
    check_snf(A)


def test_divisibility_example():
    res = smith_normal_form([[2, 4], [6, 8]])
    assert res.diag == [2, 4]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_random_matrices(m, n, data):
    A = [
        [data.draw(st.integers(-30, 30)) for _ in range(n)]
        for _ in range(m)
    ]
    check_snf(A)


def test_kernel_basis():
    A = [[2, 4, 6], [1, 2, 3]]
    basis = integer_kernel_basis(A)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(row[j] * v[j] for j in range(3)) == 0 for row in A)
    # the basis spans the full kernel lattice: every small kernel vector
    # must be an integer combination of the basis columns
    B = [[basis[i][j] for i in range(len(basis))] for j in range(3)]
    for v in itertools.product(range(-3, 4), repeat=3):
        if all(sum(row[j] * v[j] for j in range(3)) == 0 for row in A):
            assert smith_normal_form(B).solve(list(v)) is not None


def test_solve_integer_linear():
    rng = random.Random(5)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        x = [rng.randint(-5, 5) for _ in range(n)]
        b = [sum(A[i][j] * x[j] for j in range(n)) for i in range(m)]
        sol = smith_normal_form(A).solve(b)
        assert sol is not None
        assert [sum(A[i][j] * sol[j] for j in range(n)) for i in range(m)] == b
    assert smith_normal_form([[2]]).solve([1]) is None
    assert smith_normal_form([[2, 0], [0, 3]]).solve([4, 5]) is None


def test_column_lattice_index():
    assert column_lattice_index([[2, 0], [0, 3]]) == 6
    assert column_lattice_index([[1, 0], [0, 1]]) == 1
    assert column_lattice_index([[2, 0], [0, 0]]) == 0
    assert column_lattice_index([[2, 2], [0, 4]]) == 8
    assert column_lattice_index([[2], [3]]) == 0  # fewer columns than rows


def test_prime_factorization_brute_force():
    primes = [p for p in range(2, 2001) if all(p % d for d in range(2, p))]
    for n in range(-3, 2001):
        want = []
        for p in primes:
            e = 0
            while n > 0 and n % p ** (e + 1) == 0:
                e += 1
            if e:
                want.append((p, e))
        assert prime_factorization(n) == want, n
    assert all(1048583 % d for d in range(2, 1025))  # 1025**2 > 1048583
    assert prime_factorization(1048583) == [(1048583, 1)]
    assert prime_factorization(2 * 1048583) == [(2, 1), (1048583, 1)]
    assert prime_factorization(2**20 - 1) == [(3, 1), (5, 2), (11, 1), (31, 1), (41, 1)]


entries = st.one_of(
    st.integers(-30, 30),
    st.integers(2**64, 2**70),
    st.integers(-(2**70), -(2**64)),
)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.booleans(), st.data())
def test_diagonal_only_elimination(m, n, zero, data):
    """Each transform mode of the elimination gives the diagonal of the
    full SNF, and exactly the transforms it asks for, equal to the full
    SNF's: on empty, single-row, single-column and zero matrices and on
    entries past 2^64."""
    A = [[0 if zero else data.draw(entries) for _ in range(n)] for _ in range(m)]
    full = check_snf(A) if m and n else smith_normal_form(A)
    assert _eliminate(A, False) == (full.diag, None, None)
    for want_left, want_right in itertools.product((False, True), repeat=2):
        diag, left, right = _eliminate(A, want_left=want_left, want_right=want_right)
        assert diag == full.diag
        assert left == (full.left if want_left else None)
        assert right == (full.right if want_right else None)
