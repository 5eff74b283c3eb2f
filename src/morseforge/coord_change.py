"""Polynomial automorphisms moving a finite point set onto the first axis.

Given k distinct points in R^n (n >= 2), produce F = Pi o T where T is a
unimodular linear map whose first row p separates the points, and Pi is a
triangular shear z_j -> z_j - p_j(z_1) whose interpolants p_j come from
Newton divided differences, O(k^2) rational operations each.
F maps every input point to (z_1, 0, ..., 0) exactly and has the polynomial
inverse T^{-1} o Pi^{-1} (shear with "+ p_j(z_1)").

The direction p is as sparse as the point set allows: P = Q o F has degree
4k in z_1 = p.x, so every variable in the support of p enters every
monomial of that degree.  Supports of size 1, 2, 3 and then all n are tried
in turn, so a set with distinct x_1 keeps p = e_1 and T = I.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Sequence, Tuple

from ._rat import Rat, rat
from .poly import MultiPoly, PolyMap, json_int, json_row


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
        return cls(json_int(obj["dimension"]), [json_row(p) for p in obj["points"]])


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
    """The first separating direction among supports of increasing size.

    Supports S (0-based variable indices) are tried by size 1, 2, 3 and
    then the full support, each size in lexicographic order.  S is skipped
    unless the points' projections onto S are distinct.  On the first S
    kept, the moment curve p_S(t) = (1, t, t^2, ...) on S (zero elsewhere)
    is swept over t = 1, 2, ...; this terminates since each pair of points
    rules out at most |S| - 1 values of t.  S = {0} gives e_1, and the full
    support is the dense sweep (1, t, ..., t^{n-1})."""
    n = xs.dimension
    pts = xs.points
    for size in [s for s in (1, 2, 3) if s < n] + [n]:
        for support in combinations(range(n), size):
            if len({tuple(pt[m] for m in support) for pt in pts}) == len(pts):
                return _sweep(pts, support, n)
    raise AssertionError("distinct points have distinct full projections")


def _sweep(pts, support: Tuple[int, ...], n: int) -> Tuple[Rat, ...]:
    diffs = [tuple(a[m] - b[m] for m in support) for a, b in combinations(pts, 2)]
    t = 1
    while True:
        curve = [rat(t) ** j for j in range(len(support))]
        if all(sum(c * d for c, d in zip(curve, diff)) != 0 for diff in diffs):
            p = [rat(0)] * n
            for m, c in zip(support, curve):
                p[m] = c
            return tuple(p)
        t += 1


def _frame(p: Sequence, n: int):
    """p as rationals, its pivot i (first nonzero entry, which must be 1)
    and the unit rows of T = [p; e_m for m != i] as (m, sign) pairs.

    Moving row p down to row i takes i row swaps and leaves a triangular
    matrix with unit diagonal, so det T = (-1)^i; for odd i the first unit
    row is negated, which makes det T = 1 for every pivot."""
    p = [rat(c) for c in p]
    if len(p) != n:
        raise ValueError(f"direction has length {len(p)}, expected {n}")
    i = next((m for m, c in enumerate(p) if c != 0), None)
    if i is None or p[i] != 1:
        raise ValueError("first nonzero entry of the direction must be 1")
    units = [(m, rat(1)) for m in range(n) if m != i]
    if i % 2:
        units[0] = (units[0][0], rat(-1))
    return p, i, units


def build_linear(p: Sequence, n: int) -> List[List[Rat]]:
    """T with rows [p; e_m for m != i], i the pivot of p; det T = 1."""
    p, _, units = _frame(p, n)
    rows = [p]
    for m, sign in units:
        rows.append([sign if j == m else rat(0) for j in range(n)])
    return rows


def linear_inverse(p: Sequence, n: int) -> List[List[Rat]]:
    """T^{-1} in closed form: z_r = s_r x_m for the unit rows gives
    x_m = s_r z_r, and x_i = z_1 - sum_{m != i} p_m x_m."""
    p, i, units = _frame(p, n)
    rows = [[rat(0)] * n for _ in range(n)]
    rows[i][0] = rat(1)
    for r, (m, sign) in enumerate(units, start=1):
        rows[m][r] = sign
        rows[i][r] = -p[m] * sign
    return rows


def build_interpolants(z_points: Sequence[Sequence]) -> List[MultiPoly]:
    """For j = 2..n, the unique degree <= k-1 polynomial through the nodes
    (z_1^(i), z_j^(i)), in exact arithmetic by Newton divided differences."""
    zps = [tuple(rat(c) for c in z) for z in z_points]
    n = len(zps[0])
    nodes = [z[0] for z in zps]
    if len(set(nodes)) != len(nodes):
        raise ValueError(
            "duplicate first coordinates after the linear change; "
            "the chosen direction failed to separate the points"
        )
    return [_newton_interpolant(nodes, [z[j] for z in zps]) for j in range(1, n)]


def _newton_interpolant(nodes: Sequence[Rat], values: Sequence[Rat]) -> MultiPoly:
    """The interpolant through (nodes[i], values[i]) in O(k^2) rational
    operations: the divided differences c_i = [t_0, ..., t_i], then the
    nested form c_0 + (x - t_0)(c_1 + (x - t_1)(c_2 + ...)) expanded into
    monomial coefficients from the inside out."""
    k = len(nodes)
    c = list(values)
    for level in range(1, k):
        for i in range(k - 1, level - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (nodes[i] - nodes[i - level])
    coeffs = [c[-1]]  # low degree first
    for i in range(k - 2, -1, -1):
        t = nodes[i]
        # coeffs * (x - t) + c_i
        coeffs = (
            [c[i] - t * coeffs[0]]
            + [coeffs[m - 1] - t * coeffs[m] for m in range(1, len(coeffs))]
            + [coeffs[-1]]
        )
    return MultiPoly._raw(1, {(e,): v for e, v in enumerate(coeffs) if v})


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
    t_inv_rows = linear_inverse(p, n)
    t_map = _linear_map(t_rows)
    t_inv_map = _linear_map(t_inv_rows)
    z_points = [t_map.eval_rational(pt) for pt in xs.points]
    interpolants = build_interpolants(z_points)

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
