"""Smith normal form, integer linear algebra and factorization over Z.

Everything here runs on Python's arbitrary-precision integers.  Fixed-width
integer SNF is a classic overflow trap (transform entries can blow up far
past the input magnitude), so no numpy dtype is ever used for these
computations.  An optional magnitude cap lets callers bound memory; by
default precision is unbounded.

Pivoting is deterministic: the pivot is the entry of smallest nonzero
absolute value in the remaining submatrix, ties broken in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PrecisionOverflow

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul_int(A: Matrix, B: Matrix) -> Matrix:
    """Exact integer matrix product (no numpy: entries may be huge)."""
    if not A:
        return []
    inner = len(B)
    assert all(len(row) == inner for row in A)
    cols = len(B[0]) if B else 0
    out = [[0] * cols for _ in range(len(A))]
    for i, arow in enumerate(A):
        orow = out[i]
        for t, a in enumerate(arow):
            if a == 0:
                continue
            brow = B[t]
            for j in range(cols):
                orow[j] += a * brow[j]
    return out


@dataclass(frozen=True)
class SNFResult:
    """left @ A @ right is diagonal with the entries in ``diag``.

    ``left`` is square of A's row count, ``right`` square of its column
    count, both with determinant +-1.  ``diag`` has length min(rows, cols);
    entries are nonnegative and each nonzero entry divides the next.
    ``rank`` counts the nonzero entries.
    """

    left: Matrix
    diag: list[int]
    right: Matrix
    rank: int

    def diagonal_matrix(self, rows: int, cols: int) -> Matrix:
        D = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(self.diag):
            D[i][i] = d
        return D

    def solve(self, b: list[int]) -> list[int] | None:
        """One integer solution of A @ x = b for the A this SNF came from,
        or None when none exists."""
        m, n = len(self.left), len(self.right)
        lb = [sum(self.left[i][t] * b[t] for t in range(m)) for i in range(m)]
        y = [0] * n
        for i in range(min(m, n)):
            d = self.diag[i]
            if d != 0:
                if lb[i] % d != 0:
                    return None
                y[i] = lb[i] // d
            elif lb[i] != 0:
                return None
        for i in range(min(m, n), m):
            if lb[i] != 0:
                return None
        return [sum(self.right[i][t] * y[t] for t in range(n)) for i in range(n)]


def smith_normal_form(A: Matrix, cap: int | None = None) -> SNFResult:
    m = len(A)
    n = len(A[0]) if m else 0
    work = [list(row) for row in A]
    for row in work:
        if len(row) != n:
            raise ValueError("ragged matrix")
    left = identity_matrix(m)
    right = identity_matrix(n)

    def check(value: int) -> int:
        if cap is not None and abs(value) > cap:
            raise PrecisionOverflow(f"intermediate entry exceeds cap {cap}")
        return value

    def swap_rows(a: int, b: int) -> None:
        work[a], work[b] = work[b], work[a]
        left[a], left[b] = left[b], left[a]

    def swap_cols(a: int, b: int) -> None:
        for row in work:
            row[a], row[b] = row[b], row[a]
        for row in right:
            row[a], row[b] = row[b], row[a]

    def add_row(dst: int, src: int, factor: int) -> None:
        wd, ws = work[dst], work[src]
        for j in range(n):
            wd[j] = check(wd[j] + factor * ws[j])
        ld, ls = left[dst], left[src]
        for j in range(m):
            ld[j] = check(ld[j] + factor * ls[j])

    def add_col(dst: int, src: int, factor: int) -> None:
        for row in work:
            row[dst] = check(row[dst] + factor * row[src])
        for row in right:
            row[dst] = check(row[dst] + factor * row[src])

    def negate_row(i: int) -> None:
        work[i] = [-v for v in work[i]]
        left[i] = [-v for v in left[i]]

    t = 0
    limit = min(m, n)
    while t < limit:
        # Deterministic pivot: smallest |value|, first in row-major order.
        best = None
        best_abs = 0
        for i in range(t, m):
            row = work[i]
            for j in range(t, n):
                v = row[j]
                if v != 0 and (best is None or abs(v) < best_abs):
                    best = (i, j)
                    best_abs = abs(v)
                    if best_abs == 1:
                        break
            if best_abs == 1:
                break
        if best is None:
            break  # remaining submatrix is zero
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])
        if work[t][t] < 0:
            negate_row(t)

        while True:
            p = work[t][t]
            restart = False
            for i in range(t + 1, m):
                v = work[i][t]
                if v == 0:
                    continue
                q, r = divmod(v, p)
                add_row(i, t, -q)
                if r != 0:
                    # Remainder is a strictly smaller positive pivot.
                    swap_rows(i, t)
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, n):
                v = work[t][j]
                if v == 0:
                    continue
                q, r = divmod(v, p)
                add_col(j, t, -q)
                if r != 0:
                    swap_cols(j, t)
                    restart = True
                    break
            if restart:
                continue
            # Row and column t are clear; force p to divide the rest of the
            # submatrix so the diagonal comes out as a divisibility chain.
            offender = None
            for i in range(t + 1, m):
                row = work[i]
                for j in range(t + 1, n):
                    if row[j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1

    diag = [work[i][i] for i in range(limit)]
    rank = sum(1 for d in diag if d != 0)
    return SNFResult(left=left, diag=diag, right=right, rank=rank)


def integer_kernel_basis(A: Matrix) -> list[list[int]]:
    """Basis (as column vectors) of {v : A @ v = 0} over Z."""
    m = len(A)
    n = len(A[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    res = smith_normal_form(A)
    # A v = 0 iff the first `rank` coordinates of right^-1 v vanish, so the
    # kernel is spanned by the trailing columns of `right`.
    basis = []
    for j in range(res.rank, n):
        basis.append([res.right[i][j] for i in range(n)])
    return basis


def solve_integer_linear(A: Matrix, b: list[int]) -> list[int] | None:
    """One integer solution of A @ x = b, or None when none exists."""
    return smith_normal_form(A).solve(b)


def invert_unimodular(A: Matrix) -> Matrix:
    """Inverse of an integer matrix with determinant +-1.

    From left @ A @ right = I it follows that A^-1 = right @ left.
    """
    n = len(A)
    if n == 0:
        return []
    res = smith_normal_form(A)
    if any(d != 1 for d in res.diag) or len(A[0]) != n:
        raise ValueError("matrix is not unimodular")
    return matmul_int(res.right, res.left)


def column_lattice_index(A: Matrix) -> int:
    """Index [Z^m : L] of the lattice L spanned by A's columns.

    Returns 0 when the lattice has rank below m (infinite index).
    """
    m = len(A)
    if m == 0:
        return 1
    res = smith_normal_form(A)
    if res.rank < m:
        return 0
    index = 1
    for d in res.diag[:m]:
        index *= d
    return index


def prime_factorization(n: int) -> list[tuple[int, int]]:
    """Pairs (p, e) with p**e exactly dividing n, by ascending prime p.

    Trial division; empty for n < 2.
    """
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out
