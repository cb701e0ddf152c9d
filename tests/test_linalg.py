import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logsurf.linalg import extend_factor, negative_definite_factor, solve_exact
from oracles import cofactor_det, charpoly_negdef, det_bareiss, gauss_solve, minor_signs_negdef, pairing


def square(draw_entries, n):
    return st.lists(st.lists(draw_entries, min_size=n, max_size=n), min_size=n, max_size=n)


small_int = st.integers(min_value=-9, max_value=9)


def symmetric(n, diagonal, off_diagonal):
    """Symmetric n x n integer matrices with the given entry strategies."""
    pairs = n * (n - 1) // 2

    def build(parts):
        diag, off = parts
        m = [[0] * n for _ in range(n)]
        it = iter(off)
        for i in range(n):
            m[i][i] = diag[i]
            for j in range(i + 1, n):
                m[i][j] = m[j][i] = next(it)
        return m

    return st.tuples(
        st.lists(diagonal, min_size=n, max_size=n),
        st.lists(off_diagonal, min_size=pairs, max_size=pairs),
    ).map(build)


entry = st.integers(min_value=-6, max_value=3)
# general matrices mostly fail at an early pivot; near-diagonal ones with a
# negative diagonal reach deep pivots and are often negative definite
SYMMETRIC = st.integers(1, 12).flatmap(
    lambda n: st.one_of(
        symmetric(n, entry, entry),
        symmetric(n, st.integers(-6, -1), st.integers(0, 1)),
    )
)


@st.composite
def zero_leading_minor(draw):
    """A symmetric matrix whose leading (k+1) x (k+1) block has two equal
    rows (k-1 and k), while every later row and column stays free: that
    minor is 0, and a determinant of any larger leading minor must swap
    rows at step k."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n - 1))
    m = draw(symmetric(n, st.integers(-6, -1), entry))
    d = m[k - 1][k - 1]
    m[k][k] = m[k][k - 1] = m[k - 1][k] = d
    for j in range(k - 1):
        m[k][j] = m[j][k] = m[k - 1][j]
    return m


class TestPairing:
    def test_signature(self):
        # diagonal (+1, -1, ..., -1)
        assert pairing((1, 0, 0), (1, 0, 0)) == 1
        assert pairing((0, 1, 0), (0, 1, 0)) == -1
        assert pairing((0, 1, 0), (0, 0, 1)) == 0
        assert pairing((1, 0), (0, 1)) == 0

    def test_bilinear(self):
        u, v, w = (1, 2, 3), (0, 1, -1), (2, -2, 5)
        left = pairing(tuple(a + b for a, b in zip(u, v)), w)
        assert left == pairing(u, w) + pairing(v, w)

    def test_length_mismatch(self):
        with pytest.raises(AssertionError):
            pairing((1, 0), (1, 0, 0))


class TestDeterminant:
    def test_trivial(self):
        assert det_bareiss([]) == 1
        assert det_bareiss([[7]]) == 7
        assert det_bareiss([[1, 2], [3, 4]]) == -2
        assert det_bareiss([[1, 2], [2, 4]]) == 0

    @given(square(small_int, 3))
    def test_matches_cofactor_3x3(self, m):
        assert det_bareiss(m) == cofactor_det(m)

    @given(square(small_int, 4))
    def test_matches_cofactor_4x4(self, m):
        assert det_bareiss(m) == cofactor_det(m)

    def test_matches_cofactor_5x5_seeded(self):
        rng = random.Random(20240817)
        for _ in range(60):
            m = [[rng.randint(-6, 6) for _ in range(5)] for _ in range(5)]
            assert det_bareiss(m) == cofactor_det(m)

    def test_row_swap_sign(self):
        # leading zero forces a pivot swap
        m = [[0, 1], [1, 0]]
        assert det_bareiss(m) == -1


def solution(matrix, rhs):
    """x = y / det from solve_exact on an integer rhs, after checking
    A y = det b straight against the inputs and det against the oracle."""
    y, det = solve_exact(negative_definite_factor(matrix), rhs)
    assert all(type(v) is int for v in y + [det])
    assert det == det_bareiss(matrix)
    for row, b in zip(matrix, rhs):
        assert sum(a * yi for a, yi in zip(row, y)) == det * b
    return [Fraction(yi, det) for yi in y]


def integral(rhs):
    """A rational rhs scaled by the lcm of its denominators."""
    scale = lcm(*(b.denominator for b in rhs))
    return [int(b * scale) for b in rhs]


class TestSolveExact:
    def test_known_system(self):
        # -2x + y = -3, x - 2y = 0
        assert solve_exact(negative_definite_factor([[-2, 1], [1, -2]]), [-3, 0]) == ([6, 3], 3)
        assert solution([[-2, 1], [1, -2]], [-3, 0]) == [Fraction(2), Fraction(1)]

    def test_singular_and_indefinite_have_no_factor(self):
        assert negative_definite_factor([[-1, 1], [1, -1]]) is None  # det 0
        assert negative_definite_factor([[-1, 2], [2, -1]]) is None  # det -3

    def test_fractional_rhs(self):
        # (1/3, 1/2) scaled by 6: the solution scales with it
        assert integral([Fraction(1, 3), Fraction(1, 2)]) == [2, 3]
        x = solution([[-2, 0], [0, -3]], [2, 3])
        assert x == [6 * Fraction(-1, 6), 6 * Fraction(-1, 6)]
        assert solution([[-2, 0], [0, -3]], [1, 1]) == [Fraction(-1, 2), Fraction(-1, 3)]

    def test_odd_size_has_negative_det(self):
        # det of a negative definite k x k block has the sign of (-1)^k
        assert solve_exact(negative_definite_factor([[-2]]), [1]) == ([1], -2)
        assert solve_exact(negative_definite_factor([[-2, 1, 0], [1, -2, 1], [0, 1, -2]]), [0, 0, 1])[1] == -4

    def test_empty(self):
        assert solve_exact([], []) == ([], 1)

    def test_against_gauss_seeded(self):
        rng = random.Random(515)
        solved = 0
        for _ in range(120):
            n = rng.randint(1, 5)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                m[i][i] = rng.randint(-7, -1)
                for j in range(i + 1, n):
                    m[i][j] = m[j][i] = rng.randint(-2, 2)
            rhs = integral([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)])
            factor = negative_definite_factor(m)
            if not minor_signs_negdef(m):
                assert factor is None
                continue
            assert solution(m, rhs) == gauss_solve(m, rhs)
            solved += 1
        assert solved > 60  # the loop must mostly exercise the solvable path

    def test_inexact_back_substitution_raises(self):
        # no integer matrix eliminates to this: det 1, but x_0 = 1/2
        with pytest.raises(ValueError, match="back-substitution"):
            solve_exact([[2, 1], [0, 1]], [1, 0])

    def test_inexact_forward_division_raises(self):
        # not a Bareiss factor: the second forward step divides 23 by 4
        with pytest.raises(ValueError, match="inexact Bareiss division"):
            solve_exact([[4, 3, -1], [5, 1, 1], [5, -1, -3]], [3, -5, 2])

    @settings(max_examples=300)
    @given(SYMMETRIC, st.data())
    def test_factor_solves_like_gauss(self, m, data):
        factor = negative_definite_factor(m)
        assert (factor is None) == (not minor_signs_negdef(m))
        if factor is None:
            return
        kept = [list(row) for row in factor]
        rational = st.fractions(min_value=-20, max_value=20, max_denominator=12)
        rhs = integral(data.draw(st.lists(rational, min_size=len(m), max_size=len(m))))
        assert solution(m, rhs) == gauss_solve(m, rhs)
        assert factor == kept


class TestExtendFactor:
    """`extend_factor` borders a factor by one row: the only way a factor
    grows, in `negative_definite_factor`'s fold and in each declaration."""

    def test_one_by_one(self):
        # the empty factor: nothing to replay, and the pivot is c itself
        assert extend_factor([], [-3]) == [[-3]]
        assert extend_factor([], [0]) is None
        assert extend_factor([], [2]) is None
        with pytest.raises(ValueError, match="one border entry per row"):
            extend_factor([[-2]], [1])

    @settings(max_examples=300)
    @given(SYMMETRIC)
    @example([[-2, 1], [1, 3]])
    def test_borders_the_leading_factor_without_writing_it(self, m):
        lead = negative_definite_factor([row[:-1] for row in m[:-1]])
        if lead is None:
            return
        kept = [row[:] for row in lead]
        assert extend_factor(lead, m[-1]) == negative_definite_factor(m)
        assert lead == kept


class TestNegativeDefinite:
    def test_base_cases(self):
        assert negative_definite_factor([]) is not None
        assert negative_definite_factor([[-1]]) is not None
        assert negative_definite_factor([[0]]) is None
        assert negative_definite_factor([[1]]) is None

    def test_two_by_two(self):
        assert negative_definite_factor([[-2, 1], [1, -2]]) is not None
        assert negative_definite_factor([[-1, 1], [1, -1]]) is None  # det 0
        assert negative_definite_factor([[-1, 2], [2, -1]]) is None

    def test_an_chain(self):
        # chain of (-2)-curves: classical negative definite lattice
        for n in range(1, 7):
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                m[i][i] = -2
                if i + 1 < n:
                    m[i][i + 1] = m[i + 1][i] = 1
            assert negative_definite_factor(m) is not None

    @settings(max_examples=400)
    @given(SYMMETRIC)
    @example([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    def test_one_pass_matches_per_minor_determinants(self, m):
        assert (negative_definite_factor(m) is not None) == minor_signs_negdef(m)

    @settings(max_examples=300)
    @given(SYMMETRIC)
    @example([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    @example([[-3, 1, 1, 0], [1, -2, 0, 1], [1, 0, -4, 1], [0, 1, 1, -5]])
    def test_factor_entries_are_leading_minors(self, m):
        # F[i][j], i <= j, is the minor of rows 0..i on columns 0..i-1 and j,
        # and the multiplier F[j][i] below the diagonal mirrors it
        factor = negative_definite_factor(m)
        if factor is None:
            return
        n = len(m)
        assert all(factor[i][j] == factor[j][i] for i in range(n) for j in range(i))
        for i in range(n):
            for j in range(i, n):
                cols = [*range(i), j]
                assert factor[i][j] == det_bareiss([[m[r][c] for c in cols] for r in range(i + 1)]), (i, j)

    @settings(max_examples=200)
    @given(zero_leading_minor())
    @example([[-1, 1, 2], [1, -1, 3], [2, 3, -6]])
    def test_zero_leading_minor_is_rejected_like_the_per_minor_test(self, m):
        assert minor_signs_negdef(m) is False
        assert negative_definite_factor(m) is None

    def test_inexact_division_raises(self):
        # a non-integer entry breaks Bareiss divisibility; it must not pass silently
        with pytest.raises(ValueError):
            negative_definite_factor([[-2, 1, 1], [1, -2, 1], [1, 1, -2.5]]) is not None

    def test_matches_charpoly_oracle_seeded(self):
        rng = random.Random(90125)
        agree_true = agree_false = 0
        for _ in range(250):
            n = rng.randint(1, 5)
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                m[i][i] = rng.randint(-6, 2)
                for j in range(i + 1, n):
                    m[i][j] = m[j][i] = rng.randint(-2, 2)
            got = negative_definite_factor(m) is not None
            assert got == charpoly_negdef(m)
            agree_true += got
            agree_false += not got
        assert agree_true > 10 and agree_false > 10
