"""Exact linear algebra over the integers and rationals.

No floats ever enter. There is one elimination: `negative_definite_factor`
runs a fraction-free (Bareiss) pass, O(n^3), that is both the Sylvester
test and an LU factorization; `solve_exact` replays it on a right-hand side
and back-substitutes in integers, O(n^2). Every exact division is checked.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def negative_definite_factor(matrix: list[list[int]]) -> list[list[int]] | None:
    """Sylvester test: (-1)^k det(leading k x k minor) > 0 for every k.

    One Bareiss elimination without row swaps: after step k the pivot
    m[k][k] is the determinant of the leading (k+1) x (k+1) minor, so every
    sign comes out of a single pass. A zero pivot is a zero minor, which
    fails the test, so no row swap is ever needed. Returns None at the first
    bad pivot; otherwise the eliminated matrix: U on and above the diagonal
    and, below it, the multiplier each row was eliminated with (step k never
    writes column k). The empty matrix is vacuously negative definite.
    """
    n = len(matrix)
    m = [list(row) for row in matrix]
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        if pivot == 0 or (pivot > 0) != (k % 2 == 1):
            return None
        top = m[k]
        for i in range(k + 1, n):
            row = m[i]
            lead = row[k]
            for j in range(k + 1, n):
                num = row[j] * pivot - lead * top[j]
                if num % prev:
                    raise ValueError("inexact Bareiss division; not an integer matrix")
                row[j] = num // prev
        prev = pivot
    return m


def is_negative_definite_matrix(matrix: list[list[int]]) -> bool:
    """The Sylvester test alone, for callers that solve nothing."""
    return negative_definite_factor(matrix) is not None


def solve_exact(factor: list[list[int]], rhs: list[Fraction | int]) -> list[Fraction]:
    """Solve A x = rhs exactly, given factor = negative_definite_factor(A).

    Scales the rhs to integers and replays the elimination on it (exact:
    each entry is a minor of [A | rhs]). Then y = det(A) x is integral by
    Cramer's rule, so the back-substitution runs in integers with checked
    exact divisions; only x = y / (det(A) scale) makes Fractions. `factor`
    is never written.
    """
    n = len(factor)
    if len(rhs) != n:
        raise ValueError("solve_exact needs one right-hand side per row of the factor")
    scale = lcm(*(b.denominator for b in rhs))
    c = [b.numerator * (scale // b.denominator) for b in rhs]
    det = 1  # the last pivot so far; after the loop, det(A)
    for k in range(n):
        pivot = factor[k][k]
        ck = c[k]
        for i in range(k + 1, n):
            c[i] = (c[i] * pivot - factor[i][k] * ck) // det
        det = pivot
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = factor[i]
        num = det * c[i] - sum(row[j] * y[j] for j in range(i + 1, n))
        if num % row[i]:
            raise ValueError("inexact back-substitution; not a Bareiss factor")
        y[i] = num // row[i]
    return [Fraction(yi, det * scale) for yi in y]
