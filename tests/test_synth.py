import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseforge._rat import rat
from morseforge.coord_change import PointSet
from morseforge.exactmat import leading_principal_minors
from morseforge.morse_scalar import AlphaSpec, build_pair
from morseforge.poly import MultiPoly
from morseforge.serialize import bundle_obj
from morseforge.synth import build_q, build_saddle_field, hessian_at, synthesize
from oracles import fd_gradient_check_batch, saddle_jacobian_at, transported_hessian
from test_coord_change import point_sets, sheared_sets
from test_golden import AXIS_N3_K3, TWO_POINT


class TestSynthesize:
    def test_single_axis_point_reduces_to_plane_case(self):
        res = synthesize(PointSet(2, [[0, 0]]))
        pair = build_pair(AlphaSpec([0]))
        assert res.p_poly == pair.f

    def test_extra_dimensions_append_quadratic(self):
        res = synthesize(PointSet(3, [[0, 0, 0]]))
        pair = build_pair(AlphaSpec([0]))
        x2 = MultiPoly.variable(3, 2)
        assert res.p_poly == pair.f.embed(3, (0, 1)) + x2 ** 2 * rat(1, 2)

    def test_two_point_gradient_vanishes(self):
        res = synthesize(PointSet(2, [["-1/2", 0], ["1/2", "1/4"]]))
        g = res.grad_field
        for pt in res.input.points:
            assert all(v == 0 for v in g.eval_rational(pt))

    @given(point_sets(max_dim=3, max_points=4, height=6))
    @settings(max_examples=20, deadline=None)
    def test_gradient_vanishes_exactly_on_input(self, xs):
        res = synthesize(xs)
        for pt in xs.points:
            assert all(v == 0 for v in res.grad_field.eval_rational(pt))

    @given(point_sets(max_dim=3, max_points=3, height=6))
    @settings(max_examples=15, deadline=None)
    def test_hessian_positive_definite_on_input(self, xs):
        res = synthesize(xs)
        for pt in xs.points:
            assert all(m > 0 for m in leading_principal_minors(hessian_at(res, pt)))

    @given(point_sets(max_dim=3, max_points=3, height=6))
    @settings(max_examples=10, deadline=None)
    def test_pullback_identity_for_hessian(self, xs):
        # symbolic second partials of P must equal J^T H_Q J at the minima
        res = synthesize(xs)
        for pt in xs.points:
            assert hessian_at(res, pt) == transported_hessian(res, pt)

    @given(sheared_sets(max_points=4))
    @settings(max_examples=15, deadline=None)
    def test_sheared_sets_are_exact_minima(self, xs):
        res = synthesize(xs)
        for pt in xs.points:
            assert all(v == 0 for v in res.grad_field.eval_rational(pt))
            assert all(m > 0 for m in leading_principal_minors(hessian_at(res, pt)))

    def test_sparse_direction_bounds_terms(self):
        # every point on x1 = 0: a dense direction makes z1 = p.x involve
        # all five variables, and f (degree 4k in z1) then expands into
        # every monomial; the first set needs the 3-sparse (0, 1, t, t^2, 0)
        # (575,751 terms with the dense direction), the second a single
        # coordinate
        rng = random.Random(5)
        random_set = set()
        while len(random_set) < 6:
            random_set.add((0, *(rat(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))))
        for pts in (
            [[0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
             [0, 1, 1, 0, 0], [0, 0, 0, 1, 1], [0, 1, 0, 1, 1]],
            sorted(random_set),
        ):
            res = synthesize(PointSet(5, pts))
            assert res.p_poly.num_terms() < 10_000

    def test_numeric_gradient_cross_check(self):
        res = synthesize(PointSet(2, [[-1, 0], [0, "1/4"], [1, "-1/4"]]))
        rng = random.Random(4)
        pts = [[rng.uniform(-2, 2), rng.uniform(-1, 1)] for _ in range(20)]
        assert fd_gradient_check_batch(res.p_poly, pts, 1e-6).max() <= 1e-5

    # the golden sets are axis-aligned; [[0, 0], [0, 1]] needs a shear
    @pytest.mark.parametrize("points", [TWO_POINT, AXIS_N3_K3, [[0, 0], [0, 1]]])
    def test_build_q_rebuilds_the_bundle(self, points):
        obj = bundle_obj(synthesize(PointSet(len(points[0]), points)))
        images = [rat(a) for a in obj["coord_change"]["axis_images"]]
        morse, q = build_q(images, len(points[0]))
        assert morse.alpha == MultiPoly.from_obj(obj["alpha"])
        assert morse.beta == MultiPoly.from_obj(obj["beta"])
        assert morse.f == MultiPoly.from_obj(obj["f"])
        assert q == MultiPoly.from_obj(obj["q"])

    def test_degree_audit_fields(self):
        res = synthesize(PointSet(2, [[0, 0], [0, 1]]))
        audit = res.degree_audit()
        assert audit["deg_p"] >= audit["deg_f"]
        assert audit["terms_p"] == res.p_poly.num_terms()


class TestSaddleField:
    def test_two_attractors(self):
        # stable set {-1, 1}, saddle at the midpoint 0: gamma = x - x^3
        sf = build_saddle_field(PointSet(2, [[-1, 0], [1, 0]]))
        x = MultiPoly.variable(1, 0)
        assert sf.gamma == x - x ** 3
        assert sf.stable_set == (rat(-1), rat(1))
        assert sf.saddle_set == (rat(0),)
        dg = sf.gamma.partial(0)
        assert dg.eval_rational([rat(0)]) == 1
        assert dg.eval_rational([rat(1)]) == -2
        assert dg.eval_rational([rat(-1)]) == -2

    def test_single_point_has_no_saddles(self):
        sf = build_saddle_field(PointSet(2, [[0, 0]]))
        assert sf.saddle_set == ()
        assert sf.gamma == -MultiPoly.variable(1, 0)

    def test_jacobian_is_diagonal(self):
        sf = build_saddle_field(PointSet(2, [[-1, 0], [1, 0]]))
        jac = saddle_jacobian_at(sf, 0)
        assert jac == [[1, 0], [0, -1]]
        assert saddle_jacobian_at(sf, 1) == [[-2, 0], [0, -1]]

    @given(point_sets(max_dim=3, max_points=4, height=6))
    @settings(max_examples=15, deadline=None)
    def test_equilibria_and_signs(self, xs):
        sf = build_saddle_field(xs)
        dg = sf.gamma.partial(0)
        n = xs.dimension
        for r in sf.stable_set:
            pt = tuple([r] + [rat(0)] * (n - 1))
            assert all(v == 0 for v in sf.field.eval_rational(pt))
            assert dg.eval_rational([r]) < 0
        for b in sf.saddle_set:
            pt = tuple([b] + [rat(0)] * (n - 1))
            assert all(v == 0 for v in sf.field.eval_rational(pt))
            assert dg.eval_rational([b]) > 0

    @given(point_sets(max_dim=3, max_points=3, height=6))
    @settings(max_examples=10, deadline=None)
    def test_pullback_vanishes_exactly_on_input(self, xs):
        sf = build_saddle_field(xs)
        for pt in xs.points:
            assert all(v == 0 for v in sf.pullback.eval_rational(pt))

    def test_gamma_degree(self):
        sf = build_saddle_field(PointSet(2, [[-1, 0], [0, 0], [1, 0]]))
        # k roots and k - 1 midpoints
        assert sf.gamma.total_degree() == 5
