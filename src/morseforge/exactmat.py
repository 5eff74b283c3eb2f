"""Small exact linear algebra over rationals.

Matrices are lists of row lists of rationals.  Sizes here are tiny (n <= 6).
The determinant uses Bareiss fraction-free elimination on integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import List

from ._rat import Rat, rat

Matrix = List[List[Rat]]


def det(m: Matrix) -> Rat:
    """Determinant by Bareiss fraction-free elimination with row pivoting.

    The matrix is scaled to integers by the lcm L of its denominators; every
    division in the elimination is exact, and det(m) = det(L m) / L^n."""
    n = len(m)
    rows = [[rat(x) for x in row] for row in m]
    den = lcm(*[x.denominator for row in rows for x in row])
    a = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
    sign, prev = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return rat(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        p, top = a[col][col], a[col]
        for row in a[col + 1 :]:
            lead = row[col]
            for c in range(col + 1, n):
                row[c] = (row[c] * p - lead * top[c]) // prev
        prev = p
    return Fraction(sign * prev, den**n)


def leading_principal_minors(m: Matrix) -> List[Rat]:
    """Determinants of the top-left 1x1, 2x2, ..., nxn submatrices."""
    n = len(m)
    return [det([row[: k + 1] for row in m[: k + 1]]) for k in range(n)]
