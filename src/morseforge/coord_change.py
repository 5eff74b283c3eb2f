"""Polynomial automorphisms moving a finite point set onto the first axis.

Given k distinct points in R^n (n >= 2), produce F = Pi o T where T is an
invertible linear map whose first row separates the points, and Pi is a
triangular shear z_j -> z_j - p_j(z_1) built from Lagrange interpolants.
F maps every input point to (z_1, 0, ..., 0) exactly and has the polynomial
inverse T^{-1} o Pi^{-1} (shear with "+ p_j(z_1)").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from . import exactmat
from ._rat import Rat, rat
from .poly import MultiPoly, PolyMap


class PointSetError(ValueError):
    """The input violates the standing hypotheses (n >= 2, distinct points)."""


@dataclass(frozen=True)
class PointSet:
    """k >= 1 pairwise distinct points with exact rational coordinates."""

    dimension: int
    points: Tuple[Tuple[Rat, ...], ...]

    def __init__(self, dimension: int, points: Sequence[Sequence]):
        n = int(dimension)
        if n < 2:
            raise PointSetError(
                f"ambient dimension must be >= 2 (got n={n}); "
                "the construction assumes a multi-dimensional domain"
            )
        pts = []
        for p in points:
            p = tuple(rat(c) for c in p)
            if len(p) != n:
                raise PointSetError(f"point {p} has length {len(p)}, expected {n}")
            pts.append(p)
        if not pts:
            raise PointSetError("need at least one point")
        if len(set(pts)) != len(pts):
            raise PointSetError("points must be pairwise distinct")
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "points", tuple(pts))

    def __len__(self):
        return len(self.points)

    def to_obj(self) -> dict:
        from ._rat import rat_str

        return {
            "dimension": self.dimension,
            "points": [[rat_str(c) for c in p] for p in self.points],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "PointSet":
        return cls(int(obj["dimension"]), [list(p) for p in obj["points"]])


@dataclass(frozen=True)
class CoordChange:
    """The automorphism F with its inverse and construction witnesses."""

    forward: PolyMap
    inverse: PolyMap
    direction: Tuple[Rat, ...]
    linear_part: List[List[Rat]]
    interpolants: Tuple[MultiPoly, ...]
    axis_images: Tuple[Rat, ...]


def choose_direction(xs: PointSet) -> Tuple[Rat, ...]:
    """First direction p(t) = (1, t, t^2, ..., t^{n-1}), t = 0, 1, 2, ...
    separating all point pairs; the sweep is deterministic and always
    terminates since each pair rules out at most n-1 values of t."""
    n = xs.dimension
    diffs = []
    for i in range(len(xs.points)):
        for j in range(i + 1, len(xs.points)):
            diffs.append(
                tuple(a - b for a, b in zip(xs.points[i], xs.points[j]))
            )
    t = 0
    while True:
        tv = rat(t)
        p = [rat(1)]
        for _ in range(n - 1):
            p.append(p[-1] * tv)
        if all(
            sum((pc * dc for pc, dc in zip(p, d)), rat(0)) != 0 for d in diffs
        ):
            return tuple(p)
        t += 1


def build_linear(p: Sequence, n: int) -> List[List[Rat]]:
    """T with rows [p; e_2; ...; e_n]; det T = p_1 = 1."""
    p = [rat(c) for c in p]
    if len(p) != n:
        raise ValueError(f"direction has length {len(p)}, expected {n}")
    if p[0] != 1:
        raise ValueError("first entry of the direction must be 1")
    rows = [list(p)]
    for i in range(1, n):
        rows.append([rat(1) if j == i else rat(0) for j in range(n)])
    return rows


def build_interpolants(z_points: Sequence[Sequence]) -> List[MultiPoly]:
    """For j = 2..n, the unique degree <= k-1 polynomial through the nodes
    (z_1^(i), z_j^(i)), classical Lagrange basis in exact arithmetic."""
    zps = [tuple(rat(c) for c in z) for z in z_points]
    n = len(zps[0])
    nodes = [z[0] for z in zps]
    if len(set(nodes)) != len(nodes):
        raise ValueError(
            "duplicate first coordinates after the linear change; "
            "the chosen direction failed to separate the points"
        )
    x = MultiPoly.variable(1, 0)
    basis = []
    for i, ni in enumerate(nodes):
        num = MultiPoly.constant(1, 1)
        den = rat(1)
        for m, nm in enumerate(nodes):
            if m != i:
                num = num * (x - MultiPoly.constant(1, nm))
                den = den * (ni - nm)
        basis.append(num * (rat(1) / den))
    out = []
    for j in range(1, n):
        pj = MultiPoly.zero(1)
        for i, z in enumerate(zps):
            pj = pj + basis[i] * z[j]
        out.append(pj)
    return out


def _linear_map(rows: List[List[Rat]]) -> PolyMap:
    n = len(rows)
    return PolyMap(
        [
            MultiPoly(
                n,
                [
                    (tuple(1 if c == j else 0 for c in range(n)), rows[i][j])
                    for j in range(n)
                ],
            )
            for i in range(n)
        ],
        n,
    )


def _shear_map(n: int, interpolants: Sequence[MultiPoly], sign: int) -> PolyMap:
    comps = [MultiPoly.variable(n, 0)]
    for j in range(1, n):
        pj = interpolants[j - 1].embed(n, (0,))
        comps.append(MultiPoly.variable(n, j) + pj * sign)
    return PolyMap(comps, n)


def build_coord_change(xs: PointSet) -> CoordChange:
    n = xs.dimension
    p = choose_direction(xs)
    t_rows = build_linear(p, n)
    # T = [p; e_2; ...; e_n] with p_1 = 1 has inverse [1, -p_2, ..., -p_n; e_2; ...]
    t_inv_rows = build_linear([1, *(-c for c in t_rows[0][1:])], n)
    z_points = [exactmat.mat_vec(t_rows, pt) for pt in xs.points]
    interpolants = build_interpolants(z_points)

    t_map = _linear_map(t_rows)
    t_inv_map = _linear_map(t_inv_rows)
    pi = _shear_map(n, interpolants, -1)
    pi_inv = _shear_map(n, interpolants, +1)

    forward = pi.compose(t_map)
    inverse = t_inv_map.compose(pi_inv)
    axis_images = tuple(z[0] for z in z_points)
    # the direction choice guarantees distinct first coordinates
    assert len(set(axis_images)) == len(axis_images)
    return CoordChange(
        forward=forward,
        inverse=inverse,
        direction=p,
        linear_part=t_rows,
        interpolants=tuple(interpolants),
        axis_images=axis_images,
    )
