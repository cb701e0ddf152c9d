"""Exact linear algebra over the integers: integers in, integers out.

No float or Fraction ever enters. There is one elimination, fraction-free
(Bareiss) and without row swaps, grown one bordered row at a time, and
one border: `extend_factor` adds a row and column to a symmetric matrix's
factor in O(k^2), and `negative_definite_factor` is its fold over the
rows, O(n^3).
The factor is both the Sylvester test and an LU factorization;
`solve_exact` replays it on an integer right-hand side and back-substitutes,
O(n^2), returning the solution as integer numerators over det(A) (Cramer's
rule). Every exact division, forward and backward, is checked.
"""

from __future__ import annotations


def extend_factor(factor: list[list[int]], border: list[int]) -> list[list[int]] | None:
    """The factor of the symmetric matrix A bordered by one row, given
    factor = negative_definite_factor(A) and the new row `border`: its
    entries against A's rows in A's order, then the new diagonal entry.

    The new column is replayed through the elimination exactly as
    `solve_exact` replays a right-hand side, so entry j is the minor
    m[j][n] of the bordered matrix; by symmetry it is also the multiplier
    m[n][j] of the new row, and the new diagonal entry follows in the same
    pass. The old entries are minors of A and do not move. Returns None if
    the new pivot, det of the whole bordered matrix, fails the Sylvester
    sign test; `factor` is never written.
    """
    n = len(factor)
    if len(border) != n + 1:
        raise ValueError("extend_factor needs one border entry per row of the factor, plus the diagonal")
    c = list(border)
    rows = factor + [c]  # the new row's multiplier at step k is c[k], by symmetry
    prev = 1
    for k in range(n):
        pivot = factor[k][k]
        ck = c[k]
        for i in range(k + 1, n + 1):
            c[i], rem = divmod(c[i] * pivot - rows[i][k] * ck, prev)
            if rem:
                raise ValueError("inexact Bareiss division; not an integer matrix")
        prev = pivot
    pivot = c[n]
    if pivot == 0 or (pivot > 0) != (n % 2 == 1):
        return None
    return [row + [ck] for row, ck in zip(factor, c)] + [c]


def negative_definite_factor(matrix: list[list[int]]) -> list[list[int]] | None:
    """Sylvester test: (-1)^k det(leading k x k minor) > 0 for every k.

    The Bareiss elimination of a symmetric matrix without row swaps, built
    by bordering one row at a time: pivot m[k][k] is the determinant of the
    leading (k+1) x (k+1) minor, so every sign comes out of a single pass. A
    zero pivot is a zero minor, which fails the test, so no row swap is ever
    needed. Returns None at the first bad pivot; otherwise the eliminated
    matrix: U on and above the diagonal and, below it, the multiplier each
    row was eliminated with. The empty matrix is vacuously negative definite.
    """
    factor: list[list[int]] | None = []
    for k, row in enumerate(matrix):
        factor = extend_factor(factor, row[: k + 1])
        if factor is None:
            return None
    return factor


def solve_exact(factor: list[list[int]], rhs: list[int]) -> tuple[list[int], int]:
    """(y, det) with A y = det b, given factor = negative_definite_factor(A)
    and an integer right-hand side b; det = det(A), and x = y / det.

    Replays the elimination on b (exact: each entry is a minor of [A | b]),
    then back-substitutes: y = det(A) x is integral by Cramer's rule, so
    every step stays in integers, with every division checked, forward and
    backward. det has the sign (-1)^n of a negative definite A; callers
    that want a positive denominator negate both. `factor` is never
    written.
    """
    n = len(factor)
    if len(rhs) != n:
        raise ValueError("solve_exact needs one right-hand side per row of the factor")
    c = list(rhs)
    det = 1  # the last pivot so far; after the loop, det(A)
    for k in range(n):
        pivot = factor[k][k]
        ck = c[k]
        for i in range(k + 1, n):
            c[i], rem = divmod(c[i] * pivot - factor[i][k] * ck, det)
            if rem:
                raise ValueError("inexact Bareiss division; not an integer matrix")
        det = pivot
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = factor[i]
        num = det * c[i] - sum(row[j] * y[j] for j in range(i + 1, n))
        if num % row[i]:
            raise ValueError("inexact back-substitution; not a Bareiss factor")
        y[i] = num // row[i]
    return y, det
