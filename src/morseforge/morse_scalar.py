"""Scalar Morse construction on the plane.

From a univariate polynomial a(x) with only simple zeroes, build the
bivariate polynomial

    f(x, y) = (a(x) - b(x)^2 y)^2 - int a(x) b(x) dx,    b = a - a'

whose critical points are exactly the pairs (root of a, 0), each a strict
local minimum.  f is quadratic in y, so it is assembled from univariate
products as a^2 - int a b at y^0, -2 a b^2 at y^1 and b^4 at y^2; nothing
is squared in two variables.  The anti-derivative constant is fixed to 0 so
the output is canonical; the constant does not move the critical set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ._rat import Rat, rat
from .poly import MultiPoly


@dataclass(frozen=True)
class AlphaSpec:
    """A strictly increasing tuple of distinct rational roots.

    The constructor sorts; duplicates are rejected.  The induced
    a(x) = prod (x - r_i) automatically has simple zeroes.
    """

    roots: Tuple[Rat, ...]

    def __init__(self, roots: Sequence):
        rs = sorted(rat(r) for r in roots)
        if not rs:
            raise ValueError("need at least one root")
        for lo, hi in zip(rs, rs[1:]):
            if lo == hi:
                raise ValueError(f"repeated root {lo}")
        object.__setattr__(self, "roots", tuple(rs))

    def __len__(self):
        return len(self.roots)


@dataclass(frozen=True)
class MorsePair:
    """alpha, beta = alpha - alpha', and the plane polynomial f built from
    them."""

    alpha: MultiPoly
    beta: MultiPoly
    f: MultiPoly


def build_alpha(spec: AlphaSpec) -> MultiPoly:
    """Monic univariate polynomial vanishing exactly on spec.roots."""
    x = MultiPoly.variable(1, 0)
    out = MultiPoly.constant(1, 1)
    for r in spec.roots:
        out = out * (x - MultiPoly.constant(1, r))
    return out


def _uni_coeffs(p: MultiPoly) -> List[Rat]:
    """Coefficient list of a univariate polynomial, low degree first."""
    if p.dim != 1:
        raise ValueError("univariate polynomial expected")
    deg = p.total_degree()
    out = [rat(0)] * (deg + 1)
    for (e,), c in p.terms.items():
        out[e] = c
    return out


def _strip(cs: List[Rat]) -> List[Rat]:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _rem(a: List[Rat], b: List[Rat]) -> List[Rat]:
    a = list(a)
    while len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] = a[shift + i] - q * bc
        _strip(a)
        if not a:
            break
    return a


def gcd_degree(p: MultiPoly, q: MultiPoly) -> int:
    """Degree of gcd(p, q) for univariate p, q via the Euclidean algorithm."""
    a = _strip(_uni_coeffs(p))
    b = _strip(_uni_coeffs(q))
    while b:
        a, b = b, _rem(a, b)
    return len(a) - 1


def has_simple_zeroes(alpha: MultiPoly) -> bool:
    """True iff alpha shares no root with its derivative."""
    return gcd_degree(alpha, alpha.partial(0)) == 0


def build_f(alpha: MultiPoly) -> MorsePair:
    """Build the plane Morse polynomial for a given univariate alpha.

    alpha must be nonconstant with simple zeroes; the simple-zero hypothesis
    is machine-checked via gcd(alpha, alpha') having degree 0.
    """
    if alpha.dim != 1:
        raise ValueError("alpha must be univariate")
    if alpha.total_degree() < 1:
        raise ValueError("alpha must be nonconstant")
    if not has_simple_zeroes(alpha):
        raise ValueError("alpha has a repeated root; all zeroes must be simple")
    beta = alpha - alpha.partial(0)
    ab = alpha * beta
    b2 = beta * beta
    f = _in_y([alpha * alpha - ab.antiderivative(0), ab * beta * -2, b2 * b2])
    return MorsePair(alpha=alpha, beta=beta, f=f)


def _in_y(blocks: Sequence[MultiPoly]) -> MultiPoly:
    """The plane polynomial sum_j blocks[j](x) y^j of univariate blocks."""
    terms = {}
    for j, block in enumerate(blocks):
        for (e,), c in block.terms.items():
            terms[(e, j)] = c
    return MultiPoly._raw(2, terms)


def build_pair(spec: AlphaSpec) -> MorsePair:
    return build_f(build_alpha(spec))
