"""Smith normal form, integer linear algebra and factorization over Z.

Everything here runs on Python's arbitrary-precision integers.  Fixed-width
integer SNF is a classic overflow trap (transform entries can blow up far
past the input magnitude), so no numpy dtype is ever used for these
computations.

Pivoting is deterministic: the pivot is the entry of smallest nonzero
absolute value in the remaining submatrix, ties broken in row-major order.

One elimination loop, ``_eliminate``, serves every caller.  It accumulates
each unimodular transform only when its caller reads it:

* ``smith_normal_form`` builds both.  Its last caller is homology
  (``complexes._assemble``), which reads only ``diag`` and ``rank``.  The
  transforms stay for now: a diagonal-only homology elimination runs a
  W_3^2 homology about four times faster, which changes what the
  benchmark's tail latency reads (a homology operation rather than a
  small one), so it waits for a benchmark that reports the two apart;
* ``Subgroup._decomposition`` builds ``left`` only for its lattice, whose
  diagonal and ``left`` give the relation matrix, and ``right`` only for
  that relation matrix, whose ``right`` gives the generators;
* ``integer_kernel_basis`` builds ``right`` only, whose trailing columns
  span the kernel, and only the leading rows its caller reads
  (``Subgroup.intersection`` and ``solve_congruence_system`` read the
  coordinates of the group, not those of the relations);
* ``column_lattice_index`` (subgroup orders) builds neither.

The diagonal and every transform that is built are the same in every
mode, because the operations on the work matrix are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

Matrix = list[list[int]]


def identity_matrix(n: int, rows: int | None = None) -> Matrix:
    """The n x n identity, or its first ``rows`` rows."""
    return [[1 if i == j else 0 for j in range(n)] for i in range(n if rows is None else rows)]


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


def _eliminate(
    A: Matrix, want_left: bool = False, want_right: bool = False, right_rows: int | None = None
):
    """Diagonalize A by unimodular row and column operations.

    Returns ``(diag, left, right)`` with ``left @ A @ right`` diagonal.
    ``left`` is accumulated only when ``want_left`` is set and ``right``
    only when ``want_right`` is, each None otherwise; ``diag`` and the
    operation sequence are the same in every mode.  A column operation
    acts on each row of ``right`` alone, so with ``right_rows`` only the
    first ``right_rows`` rows are accumulated, and they are those rows of
    the full ``right``.  Once pivot ``t`` is placed, rows and columns
    before ``t`` are zero off the diagonal, so a row operation touches
    columns ``t..`` only, and a column operation made after column ``t``
    is clear below the pivot changes row ``t`` only.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    work = [list(row) for row in A]
    for row in work:
        if len(row) != n:
            raise ValueError("ragged matrix")
    left = identity_matrix(m) if want_left else None
    right = identity_matrix(n, right_rows) if want_right else None

    def swap_rows(a: int, b: int) -> None:
        work[a], work[b] = work[b], work[a]
        if want_left:
            left[a], left[b] = left[b], left[a]

    def swap_cols(a: int, b: int) -> None:
        for row in work:
            row[a], row[b] = row[b], row[a]
        if want_right:
            for row in right:
                row[a], row[b] = row[b], row[a]

    def add_row(dst: int, src: int, factor: int, t: int) -> None:
        wd, ws = work[dst], work[src]
        wd[t:] = [a + factor * b for a, b in zip(wd[t:], ws[t:])]
        if want_left:
            ld = left[dst]
            ld[:] = [a + factor * b for a, b in zip(ld, left[src])]

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
            work[t] = [-v for v in work[t]]
            if want_left:
                left[t] = [-v for v in left[t]]

        while True:
            p = work[t][t]
            restart = False
            for i in range(t + 1, m):
                v = work[i][t]
                if v == 0:
                    continue
                q, r = divmod(v, p)
                add_row(i, t, -q, t)
                if r != 0:
                    # Remainder is a strictly smaller positive pivot.
                    swap_rows(i, t)
                    restart = True
                    break
            if restart:
                continue
            # Column t is now clear below the pivot (and above it, by the
            # earlier pivots), so adding -q times column t to column j only
            # changes row t, where it leaves the remainder.
            row_t = work[t]
            for j in range(t + 1, n):
                v = row_t[j]
                if v == 0:
                    continue
                q, r = divmod(v, p)
                row_t[j] = r
                if want_right:
                    for row in right:
                        row[j] -= q * row[t]
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
            add_row(t, offender, 1, t)
        t += 1

    return [work[i][i] for i in range(limit)], left, right


def smith_normal_form(A: Matrix) -> SNFResult:
    """SNF of A with both transforms."""
    diag, left, right = _eliminate(A, want_left=True, want_right=True)
    return SNFResult(left=left, diag=diag, right=right, rank=sum(1 for d in diag if d))


def integer_kernel_basis(A: Matrix, rows: int | None = None) -> list[list[int]]:
    """Basis (as column vectors) of {v : A @ v = 0} over Z; with ``rows``,
    each vector cut to its first ``rows`` coordinates, which is all that is
    accumulated."""
    m = len(A)
    n = len(A[0]) if m else 0
    if n == 0:
        return []
    diag, _, right = _eliminate(A, want_right=True, right_rows=rows)
    rank = sum(1 for d in diag if d)
    # A v = 0 iff the first `rank` coordinates of right^-1 v vanish, so the
    # kernel is spanned by the trailing columns of `right`.
    return [[row[j] for row in right] for j in range(rank, n)]


def column_lattice_index(A: Matrix) -> int:
    """Index [Z^m : L] of the lattice L spanned by A's columns.

    Returns 0 when the lattice has rank below m (infinite index).
    """
    m = len(A)
    if m == 0:
        return 1
    diag, _, _ = _eliminate(A)
    # A zero on the diagonal, or fewer columns than rows, means rank < m.
    return math.prod(diag) if len(diag) == m else 0


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
