"""Top-level constructions.

synthesize: given a finite point set X in R^n, produce a polynomial P whose
critical points are exactly X, all strict local minima, by pulling the plane
Morse polynomial back through the coordinate change:

    Q(x) = f(x1, x2) + 1/2 sum_{i>2} x_i^2,     P = Q o F.

hessian_at: the exact Hessian of P at a point, from P's own terms
(MultiPoly.hessian_at); synthesize builds no symbolic Hessian.

descent_field: the descent field -grad P, derived from P alone.  Every
command that needs the field calls it; a bundle's stored grad_field is a
claim that only verify compares with it.

build_saddle_field: the companion vector field with stable equilibria at the
axis images, saddles at interleaved midpoints, and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ._rat import Rat, rat
from .coord_change import CoordChange, PointSet, build_coord_change, linear_inverse
from .morse_scalar import AlphaSpec, MorsePair, build_alpha, build_pair
from .poly import MultiPoly, PolyMap


@dataclass(frozen=True)
class SynthesisResult:
    """The synthesized polynomial with every intermediate object for audit."""

    input: PointSet
    change: CoordChange
    morse: MorsePair
    q: MultiPoly
    p_poly: MultiPoly
    grad_field: PolyMap

    @property
    def dimension(self) -> int:
        return self.input.dimension

    def degree_audit(self) -> dict:
        return {
            "deg_f": self.morse.f.total_degree(),
            "deg_forward": [c.total_degree() for c in self.change.forward.components],
            "deg_p": self.p_poly.total_degree(),
            "terms_p": self.p_poly.num_terms(),
        }


def build_q(axis_images, n: int) -> Tuple[MorsePair, MultiPoly]:
    """The Morse pair on the axis images and Q = f(x1, x2) + 1/2 sum_{i>2}
    x_i^2 in n variables: the one path from the axis images to Q."""
    morse = build_pair(AlphaSpec(axis_images))
    q = morse.f.embed(n, (0, 1))
    half = rat(1, 2)
    for i in range(2, n):
        q = q + MultiPoly.variable(n, i) ** 2 * half
    return morse, q


def descent_field(p: MultiPoly) -> PolyMap:
    """The descent field -grad P: the one path from P to the field that
    synthesize records, certify checks and the flows integrate."""
    return PolyMap([-p.partial(i) for i in range(p.dim)], p.dim)


def synthesize(xs: PointSet) -> SynthesisResult:
    change = build_coord_change(xs)
    morse, q = build_q(change.axis_images, xs.dimension)
    p_poly = q.compose(change.forward)
    return SynthesisResult(
        input=xs,
        change=change,
        morse=morse,
        q=q,
        p_poly=p_poly,
        grad_field=descent_field(p_poly),
    )


def hessian_at(result: SynthesisResult, x) -> List[List[Rat]]:
    """Exact Hessian of P at a rational point, from P's own terms
    (MultiPoly.hessian_at); no symbolic second partial is formed.

    The pullback identity J^T H_Q J is deliberately not used here; it serves
    as an independent oracle in the tests."""
    return result.p_poly.hessian_at(x)


@dataclass(frozen=True)
class SaddleField:
    """Vector field (gamma(x1), -x2, ..., -xn) in the transformed frame.

    stable_set holds the axis images (attractors), saddle_set the strictly
    interleaved midpoints.  pullback is the same field conjugated back to the
    original coordinates through the coordinate change."""

    gamma: MultiPoly
    field: PolyMap
    stable_set: Tuple[Rat, ...]
    saddle_set: Tuple[Rat, ...]
    change: CoordChange
    pullback: PolyMap


def build_saddle_field(xs: PointSet) -> SaddleField:
    change = build_coord_change(xs)
    n = xs.dimension
    stable = tuple(sorted(change.axis_images))
    saddles = tuple(
        (a + b) / 2 for a, b in zip(stable, stable[1:])
    )

    gamma = -build_alpha(AlphaSpec(stable + saddles))

    comps = [gamma.embed(n, (0,))]
    for j in range(1, n):
        comps.append(-MultiPoly.variable(n, j))
    fld = PolyMap(comps, n)

    # conjugate back: h(x) = J_{F^-1}(F(x)) g(F(x)); J_{F^-1} = T^-1 (I + E),
    # E zero but for p_j'(z_1) in rows j > 1 of its first column
    fwd = change.forward.components
    cache: dict = {}
    g_at_f = [c.compose(fwd, cache) for c in fld.components]
    u = [g_at_f[0]] + [g + pj.partial(0).embed(n, (0,)).compose(fwd, cache) * g_at_f[0]
                       for g, pj in zip(g_at_f[1:], change.interpolants)]
    pullback = PolyMap([sum((uk * c for uk, c in zip(u, row) if c), MultiPoly.zero(n))
                        for row in linear_inverse(change.direction, n)], n)

    return SaddleField(
        gamma=gamma,
        field=fld,
        stable_set=stable,
        saddle_set=saddles,
        change=change,
        pullback=pullback,
    )
