"""Exact linear algebra over the integers and rationals.

Everything here is fraction-free or Fraction-based; no floats ever enter.
The matrices involved are small (rank <= a few dozen), so clarity beats
asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def det_bareiss(matrix: list[list[int]]) -> int:
    """Exact determinant of an integer matrix via fraction-free elimination.

    Bareiss' algorithm: every intermediate entry stays an integer because
    each 2x2 cross-multiplication is exactly divisible by the previous
    pivot. Row swaps flip the sign.
    """
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    assert all(len(row) == n for row in m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                assert num % prev == 0
                m[i][j] = num // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_negative_definite_matrix(matrix: list[list[int]]) -> bool:
    """Sylvester test: (-1)^k det(leading k x k minor) > 0 for every k.

    The empty matrix is vacuously negative definite.
    """
    n = len(matrix)
    for k in range(1, n + 1):
        minor = [row[:k] for row in matrix[:k]]
        if det_bareiss(minor) * (-1) ** k <= 0:
            return False
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
    assert all(len(row) == n for row in matrix)
    assert len(rhs) == n
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
                assert num % prev == 0
                aug[i][j] = num // prev
            aug[i][k] = 0
        prev = aug[k][k]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(aug[i][n])
        for j in range(i + 1, n):
            acc -= aug[i][j] * x[j]
        assert aug[i][i] != 0
        x[i] = acc / aug[i][i]
    return [xi / scale for xi in x]

