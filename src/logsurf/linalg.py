"""Exact linear algebra over the integers and rationals.

Everything here is fraction-free or Fraction-based; no floats ever enter.
Both routines are one fraction-free (Bareiss) elimination, O(n^3), with
every exact division checked: the matrices are small (rank <= a few dozen),
but every model a run builds goes through them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def is_negative_definite_matrix(matrix: list[list[int]]) -> bool:
    """Sylvester test: (-1)^k det(leading k x k minor) > 0 for every k.

    One Bareiss elimination without row swaps: after step k the pivot
    m[k][k] is the determinant of the leading (k+1) x (k+1) minor, so every
    sign comes out of a single pass. A zero pivot is a zero minor, which
    fails the test, so no row swap is ever needed. The empty matrix is
    vacuously negative definite.
    """
    n = len(matrix)
    m = [list(row) for row in matrix]
    prev = 1
    for k in range(n):
        pivot = m[k][k]
        if pivot == 0 or (pivot > 0) != (k % 2 == 1):
            return False
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
    return True


def solve_exact(
    matrix: list[list[int]], rhs: list[Fraction | int]
) -> list[Fraction]:
    """Solve an integer linear system with a rational right-hand side, exactly.

    Scales the rhs to integers, runs fraction-free forward elimination with
    partial (first-nonzero) pivoting, then back-substitutes in Fractions.
    Raises ValueError on a singular system.
    """
    n = len(matrix)
    if n == 0:
        return []
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve_exact needs an n x n matrix and n right-hand sides")
    scale = lcm(*(Fraction(b).denominator for b in rhs))
    aug = [
        [int(x) for x in row] + [int(Fraction(rhs[i]) * scale)]
        for i, row in enumerate(matrix)
    ]
    prev = 1
    for k in range(n):
        if aug[k][k] == 0:
            for r in range(k + 1, n):
                if aug[r][k] != 0:
                    aug[k], aug[r] = aug[r], aug[k]
                    break
            else:
                raise ValueError("singular system")
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                num = aug[i][j] * aug[k][k] - aug[i][k] * aug[k][j]
                if num % prev:
                    raise ValueError("inexact Bareiss division; not an integer matrix")
                aug[i][j] = num // prev
            aug[i][k] = 0
        prev = aug[k][k]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(aug[i][n])
        for j in range(i + 1, n):
            acc -= aug[i][j] * x[j]
        if aug[i][i] == 0:
            raise ValueError("singular system")
        x[i] = acc / aug[i][i]
    return [xi / scale for xi in x]

