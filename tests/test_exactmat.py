from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rationals
from morseforge.exactmat import det, leading_principal_minors


def naive_det(m):
    """Fraction Gaussian elimination with row pivoting."""
    a = [list(row) for row in m]
    n, result = len(a), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return result


@st.composite
def matrices(draw, max_n=6):
    """Square rational matrices, sparse enough that zero pivots (row swaps)
    and singular matrices are common."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    entry = st.one_of(st.just(Fraction(0)), rationals(50))
    m = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        m[-1] = [2 * v for v in m[0]]
    return m


class TestDet:
    @given(matrices())
    @settings(max_examples=300, deadline=None)
    def test_bareiss_matches_fraction_elimination(self, m):
        value = det(m)
        assert type(value) is Fraction
        assert value == naive_det(m)

    def test_row_swap_flips_sign(self):
        assert det([[0, 1], [1, 0]]) == -1
        assert det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
        assert det([[Fraction(1, 2), 0], [0, Fraction(2, 3)]]) == Fraction(1, 3)

    def test_singular(self):
        assert det([[1, 2], [2, 4]]) == 0
        assert det([[0, 0], [0, 1]]) == 0

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_leading_minors(self, m):
        expected = [naive_det([row[: k + 1] for row in m[: k + 1]]) for k in range(len(m))]
        assert leading_principal_minors(m) == expected
