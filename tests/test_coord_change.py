from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rationals
from morseforge._rat import rat
from morseforge.coord_change import (
    PointSet,
    PointSetError,
    build_coord_change,
    build_interpolants,
    build_linear,
    choose_direction,
    linear_inverse,
)
from morseforge.exactmat import det
from morseforge.poly import MultiPoly
from oracles import lagrange_interpolants, mat_mul, poly_det


@st.composite
def point_sets(draw, max_dim=4, max_points=5, height=12):
    n = draw(st.integers(min_value=2, max_value=max_dim))
    k = draw(st.integers(min_value=1, max_value=max_points))
    pts = set()
    while len(pts) < k:
        pts.add(
            tuple(
                rat(
                    draw(st.integers(min_value=-height, max_value=height)),
                    draw(st.integers(min_value=1, max_value=height)),
                )
                for _ in range(n)
            )
        )
    return PointSet(n, sorted(pts))


@st.composite
def sheared_sets(draw, max_dim=4, max_points=5):
    """Point sets on x1 = 0 with small integer coordinates, so that many
    coordinates and coordinate pairs repeat and the separating direction
    needs a support other than {x1}."""
    n = draw(st.integers(min_value=2, max_value=max_dim))
    k = draw(st.integers(min_value=2, max_value=min(max_points, 3 ** (n - 1))))
    pts = draw(
        st.sets(
            st.tuples(*[st.integers(min_value=-1, max_value=1)] * (n - 1)),
            min_size=k,
            max_size=k,
        )
    )
    return PointSet(n, sorted((0, *p) for p in pts))


def support(p):
    return tuple(m for m, c in enumerate(p) if c != 0)


def distinct_on(xs, s):
    return len({tuple(pt[m] for m in s) for pt in xs.points}) == len(xs)


def pivot_sets():
    """(n, points) whose direction has each pivot i at n = 2..4: the points
    agree before coordinate i and differ in it."""
    cases = []
    for n in (2, 3, 4):
        for i in range(n):
            cases.append((n, [[1] * i + [j] + [j * j - 1] * (n - i - 1) for j in range(3)]))
    return cases


class TestPointSet:
    def test_accepts_string_rationals(self):
        xs = PointSet(2, [["1/2", "-3"], [0, 1]])
        assert xs.points[0] == (rat(1, 2), rat(-3))

    def test_rejects_dimension_one(self):
        with pytest.raises(PointSetError):
            PointSet(1, [[0]])

    def test_rejects_duplicates(self):
        with pytest.raises(PointSetError):
            PointSet(2, [[0, 1], ["0/5", "2/2"]])

    def test_rejects_length_mismatch(self):
        with pytest.raises(PointSetError):
            PointSet(3, [[0, 1]])

    def test_rejects_empty(self):
        with pytest.raises(PointSetError):
            PointSet(2, [])

    def test_round_trip(self):
        xs = PointSet(3, [["1/2", 0, -1], [2, "5/3", 4]])
        assert PointSet.from_obj(xs.to_obj()) == xs


class TestDirection:
    def test_generic_pair_takes_t_zero(self):
        xs = PointSet(2, [[0, 0], [1, 0]])
        assert choose_direction(xs) == (rat(1), rat(0))

    def test_vertical_pair_needs_t_one(self):
        # x2 alone separates the pair, so the direction is e2 and not the
        # dense (1, 1) of the full-support sweep
        xs = PointSet(2, [[0, 0], [0, 1]])
        assert choose_direction(xs) == (rat(0), rat(1))

    def test_full_support_is_the_last_resort(self):
        # neither coordinate separates, so the full sweep runs from t = 1
        xs = PointSet(2, [[0, 0], [0, 1], [1, 0]])
        assert choose_direction(xs) == (rat(1), rat(2))

    @given(st.one_of(point_sets(), sheared_sets()))
    @settings(max_examples=80, deadline=None)
    def test_direction_is_sparsest(self, xs):
        p = choose_direction(xs)
        imgs = [sum((pc * c for pc, c in zip(p, pt)), rat(0)) for pt in xs.points]
        assert len(set(imgs)) == len(imgs)
        s = support(p)
        assert p[s[0]] == 1
        assert distinct_on(xs, s)
        n = xs.dimension
        # no smaller support, and no earlier one of the same size, has
        # distinct projections (sizes 4 .. n-1 are not searched)
        for size in range(1, min(len(s), 4)):
            assert not any(distinct_on(xs, c) for c in combinations(range(n), size))
        earlier = [c for c in combinations(range(n), len(s)) if c < s]
        assert not any(distinct_on(xs, c) for c in earlier)

    @given(point_sets())
    @settings(max_examples=40, deadline=None)
    def test_direction_separates(self, xs):
        p = choose_direction(xs)
        imgs = [sum((pc * c for pc, c in zip(p, pt)), rat(0)) for pt in xs.points]
        assert len(set(imgs)) == len(imgs)


class TestLinearPart:
    def test_shape_and_inverse(self):
        assert build_linear([1, 1], 2) == [[1, 1], [0, 1]]
        # T = [p; e_2; ...; e_n] has the inverse [1, -p_2, ..., -p_n; e_2; ...]
        for p in ([1, 1], [1, 0, "-2/3"], [1, 5, 25, "7/4"]):
            n = len(p)
            rows = build_linear(p, n)
            inv = build_linear([1, *(-rat(c) for c in p[1:])], n)
            identity = [[int(i == j) for j in range(n)] for i in range(n)]
            assert mat_mul(rows, inv) == identity
            assert mat_mul(inv, rows) == identity

    def test_unit_first_entry_required(self):
        with pytest.raises(ValueError):
            build_linear([2, 0], 2)

    def test_unit_pivot_required(self):
        for p in ([0, 2], [0, 0, "1/2"], [0, 0]):
            with pytest.raises(ValueError):
                build_linear(p, len(p))
            with pytest.raises(ValueError):
                linear_inverse(p, len(p))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_pivot_is_unimodular(self, n):
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        tail = [rat(5), rat(-2, 3), rat(7, 4)]
        for i in range(n):
            p = [0] * i + [1] + tail[: n - i - 1]
            rows = build_linear(p, n)
            inv = linear_inverse(p, n)
            assert rows[0] == [rat(c) for c in p]
            assert det(rows) == 1
            assert mat_mul(rows, inv) == identity
            assert mat_mul(inv, rows) == identity

    def test_det_is_one(self):
        assert det(build_linear([1, 5, 25], 3)) == 1


class TestInterpolants:
    def test_three_nodes(self):
        # nodes (0,1), (1,0), (2,3) give 2z^2 - 3z + 1
        [p] = build_interpolants([[0, 1], [1, 0], [2, 3]])
        z = MultiPoly.variable(1, 0)
        assert p == 2 * z ** 2 - 3 * z + 1

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            build_interpolants([[0, 1], [0, 2]])

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_lagrange_basis(self, k, columns, data):
        nodes = data.draw(st.lists(rationals(height=12), min_size=k, max_size=k, unique=True))
        zps = [[t] + data.draw(st.lists(rationals(height=12), min_size=columns, max_size=columns))
               for t in nodes]
        assert build_interpolants(zps) == lagrange_interpolants(zps)

    def test_non_integer_nodes_and_constant_column(self):
        zps = [[rat(-5, 2), rat(1, 3), 4], [rat(-1, 3), rat(1, 3), 0], [rat(7, 4), rat(1, 3), -1],
               [rat(4), rat(1, 3), rat(2, 9)]]
        constant, cubic = build_interpolants(zps)
        assert constant == MultiPoly.constant(1, rat(1, 3))
        assert cubic.total_degree() == 3
        assert [constant, cubic] == lagrange_interpolants(zps)

    def test_passes_through_nodes(self):
        zps = [[rat(-1), rat(2), rat(5)], [rat(0), rat(0), rat(1)], [rat(3), rat(-1), rat(0)]]
        ps = build_interpolants(zps)
        for z in zps:
            for j, p in enumerate(ps, start=1):
                assert p.eval_rational([z[0]]) == z[j]


class TestAutomorphism:
    def test_axis_aligned_pair_gives_identity(self):
        cc = build_coord_change(PointSet(2, [[0, 0], [1, 0]]))
        assert cc.forward.is_identity()
        assert cc.inverse.is_identity()

    def test_vertical_pair(self):
        cc = build_coord_change(PointSet(2, [[0, 0], [0, 1]]))
        assert cc.forward.eval_rational((rat(0), rat(1))) == (rat(1), rat(0))
        assert cc.forward.eval_rational((rat(0), rat(0))) == (rat(0), rat(0))

    @given(point_sets())
    @settings(max_examples=40, deadline=None)
    def test_inverse_is_exact(self, xs):
        cc = build_coord_change(xs)
        assert cc.forward.compose(cc.inverse).is_identity()
        assert cc.inverse.compose(cc.forward).is_identity()

    @given(point_sets())
    @settings(max_examples=40, deadline=None)
    def test_points_land_on_first_axis(self, xs):
        cc = build_coord_change(xs)
        images = [cc.forward.eval_rational(pt) for pt in xs.points]
        for img in images:
            assert all(c == 0 for c in img[1:])
        firsts = [img[0] for img in images]
        assert len(set(firsts)) == len(firsts)
        assert tuple(firsts) == cc.axis_images

    @given(point_sets())
    @settings(max_examples=40, deadline=None)
    def test_degree_bound(self, xs):
        # each component has degree <= max(1, k - 1)
        cc = build_coord_change(xs)
        bound = max(1, len(xs) - 1)
        for comp in cc.forward.components:
            assert comp.total_degree() <= bound
        for comp in cc.inverse.components:
            assert comp.total_degree() <= bound

    @given(point_sets(max_dim=3, max_points=4), st.data())
    @settings(max_examples=25, deadline=None)
    def test_jacobian_det_is_constant_one(self, xs, data):
        cc = build_coord_change(xs)
        jac = cc.forward.jacobian()
        for _ in range(3):
            pt = [
                rat(
                    data.draw(st.integers(min_value=-9, max_value=9)),
                    data.draw(st.integers(min_value=1, max_value=9)),
                )
                for _ in range(xs.dimension)
            ]
            rows = [[e.eval_rational(pt) for e in row] for row in jac]
            assert det(rows) == 1

    def test_direction_is_stable(self):
        # regression pin: the deterministic search must not change; no single
        # coordinate and neither {x1, x2} nor {x1, x3} separates, and on
        # {x2, x3} t = 1 maps (0, 1, 0) and (0, 0, 1) together
        xs = PointSet(3, [[0, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        assert choose_direction(xs) == (rat(0), rat(1), rat(2))

    @pytest.mark.parametrize("n, points", pivot_sets())
    def test_every_pivot_gives_an_exact_automorphism(self, n, points):
        xs = PointSet(n, points)
        cc = build_coord_change(xs)
        assert support(cc.direction)[0] == next(
            i for i in range(n) if len({pt[i] for pt in xs.points}) > 1
        )
        self._check_automorphism(xs, cc)

    @given(sheared_sets())
    @settings(max_examples=30, deadline=None)
    def test_sheared_sets_give_exact_automorphisms(self, xs):
        self._check_automorphism(xs, build_coord_change(xs))

    @staticmethod
    def _check_automorphism(xs, cc):
        n = xs.dimension
        assert cc.forward.compose(cc.inverse).is_identity()
        assert cc.inverse.compose(cc.forward).is_identity()
        assert poly_det(cc.forward.jacobian()) == MultiPoly.constant(n, 1)
        assert cc.linear_part == build_linear(cc.direction, n)
        for pt, r in zip(xs.points, cc.axis_images):
            assert cc.forward.eval_rational(pt) == (r, *[rat(0)] * (n - 1))
