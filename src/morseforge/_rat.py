"""Exact rational coefficient type.

Coefficients are fractions.Fraction: arbitrary precision, always reduced,
hashable, and interoperable with plain ints.  The exact kernel in poly.py
does its multiply-adds on integer numerators over one common denominator
and builds a Fraction only once per result term, so no faster rational
type is needed.

The two errors raised where exact input exceeds what the float commands
can take live here too, in a module without numpy, so that the CLI maps
them to exit 4 without importing the float layers.
"""

from __future__ import annotations

from fractions import Fraction

Rat = Fraction


def rat(a, b=None):
    """Coerce to the exact rational type.

    Accepts ints, strings like "3/4", floats (converted exactly), Fractions
    and other rationals.  With two arguments, returns a/b.
    """
    if b is not None:
        return Fraction(a) / Fraction(b)
    return Fraction(a)


def rat_str(r) -> str:
    """Canonical decimal-string form "num/den" (or "num" when den == 1)."""
    num, den = r.numerator, r.denominator
    if den == 1:
        return str(num)
    return f"{num}/{den}"


class CoefficientTooLarge(ValueError):
    """A coefficient or a point coordinate whose magnitude does not fit in a
    double."""


class GridTooLarge(ValueError):
    """A grid request of more than verify.MAX_GRID_POINTS rows."""
