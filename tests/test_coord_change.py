import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseforge._rat import rat
from morseforge.coord_change import (
    PointSet,
    PointSetError,
    build_coord_change,
    build_interpolants,
    build_linear,
    choose_direction,
)
from morseforge.exactmat import det
from morseforge.poly import MultiPoly
from oracles import mat_mul


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
        xs = PointSet(2, [[0, 0], [0, 1]])
        assert choose_direction(xs) == (rat(1), rat(1))

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
        # regression pin: the deterministic sweep must not change
        xs = PointSet(3, [[0, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        assert choose_direction(xs) == (rat(1), rat(2), rat(4))
