import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import polys, rationals
from morseforge._rat import rat
from morseforge.numeric import CompiledPoly
from morseforge.poly import DimensionMismatch, MultiPoly, PolyMap


def x(dim=1, i=0):
    return MultiPoly.variable(dim, i)


class TestArithmetic:
    def test_additive_inverse(self):
        assert (x() + (-x())).is_zero()

    def test_constant_cancellation(self):
        p = x() ** 2 - 1
        assert p + MultiPoly.constant(1, 1) == x() ** 2

    def test_rational_coefficients_exact(self):
        p = x() ** 3 * rat(1, 3) - x() ** 2 * rat(1, 2)
        assert p + x() ** 2 * rat(1, 2) == x() ** 3 * rat(1, 3)

    def test_difference_of_squares(self):
        assert (x() - 1) * (x() + 1) == x() ** 2 - 1

    def test_mul_by_zero(self):
        assert (x() * MultiPoly.zero(1)).is_zero()

    def test_expand_root_product(self):
        p = (x() - 0) * (x() - 1) * (x() - 2)
        assert p == x() ** 3 - 3 * x() ** 2 + 2 * x()

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            x(1) + x(2)
        with pytest.raises(DimensionMismatch):
            x(1) * x(2)

    @given(polys(dim=2), polys(dim=2), polys(dim=2))
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


class TestCalculus:
    def test_partial_simple(self):
        assert (x() ** 2 - 1).partial(0) == 2 * x()

    def test_partial_other_var(self):
        p = x(2, 0) ** 2 * x(2, 1)
        assert p.partial(1) == x(2, 0) ** 2

    def test_partial_index_out_of_range(self):
        with pytest.raises(IndexError):
            x().partial(1)

    def test_antiderivative_simple(self):
        assert x().antiderivative(0) == x() ** 2 * rat(1, 2)

    def test_antiderivative_two_terms(self):
        p = x() ** 2 - x()
        assert p.antiderivative(0) == x() ** 3 * rat(1, 3) - x() ** 2 * rat(1, 2)

    @given(polys(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_partial_inverts_antiderivative(self, p, data):
        v = data.draw(st.integers(min_value=0, max_value=p.dim - 1))
        assert p.antiderivative(v).partial(v) == p

    @given(polys(dim=3, max_exp=3))
    @settings(max_examples=25, deadline=None)
    def test_hessian_is_symmetric_second_partials(self, p):
        h = p.hessian()
        for i in range(3):
            for j in range(3):
                assert h[i][j] == p.partial(i).partial(j) == p.partial(j).partial(i)


class TestCompose:
    def test_shift(self):
        m = PolyMap([x() + 1])
        assert (x() ** 2).compose(m) == x() ** 2 + 2 * x() + 1

    @given(polys(dim=2))
    @settings(max_examples=50, deadline=None)
    def test_identity_fixes_everything(self, p):
        assert p.compose(PolyMap.identity(2)) == p

    def test_arity_mismatch(self):
        with pytest.raises(DimensionMismatch):
            x(2, 0).compose(PolyMap([x(1, 0)]))

    def test_compose_map_identity(self):
        t = PolyMap([x(2, 0) + x(2, 1), x(2, 1)])
        assert PolyMap.identity(2).compose(t) == t

    @given(polys(dim=2, max_exp=2, max_terms=4, height=5), st.data())
    @settings(max_examples=25, deadline=None)
    def test_compose_associativity(self, p, data):
        small = polys(dim=2, max_exp=2, max_terms=3, height=5)
        f = PolyMap([data.draw(small), data.draw(small)])
        g = PolyMap([data.draw(small), data.draw(small)])
        assert p.compose(f.compose(g)) == p.compose(f).compose(g)


class TestEvaluation:
    def test_eval_rational(self):
        p = x() ** 2 - 1
        assert p.eval_rational([1]) == 0
        assert p.eval_rational([rat(1, 2)]) == rat(-3, 4)

    def test_compiled_eval(self):
        assert CompiledPoly(x() ** 2 - 1)(np.array([[2.0]])).tolist() == [3.0]
        zero = CompiledPoly(MultiPoly.zero(3))
        assert zero(np.array([[1.0, 2.0, 3.0]])).tolist() == [0.0]

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            x().eval_rational([1, 2])

    # dim 2 takes the dense polyval2d branch, dims 1 and 3 the sparse one
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_float_agrees_with_exact(self, dim, data):
        p = data.draw(polys(dim=dim, height=1000, max_exp=6))
        pt = [data.draw(rationals(1000)) for _ in range(dim)]
        exact = float(p.eval_rational(pt))
        approx = float(CompiledPoly(p)(np.array([[float(c) for c in pt]]))[0])
        assert abs(approx - exact) <= 1e-12 * max(1.0, abs(exact))


class TestCanonicalForm:
    def test_zero_coefficients_purged(self):
        p = MultiPoly(1, [((1,), 1), ((1,), -1)])
        assert p.terms == {}

    def test_graded_lex_order(self):
        p = x(2, 0) ** 3 + x(2, 1) + x(2, 0) * x(2, 1) + 1
        assert p.sorted_exponents() == [(0, 0), (0, 1), (1, 1), (3, 0)]

    @given(polys())
    @settings(max_examples=100, deadline=None)
    def test_serialization_round_trip(self, p):
        text = json.dumps(p.to_obj())
        assert MultiPoly.from_obj(json.loads(text)) == p

    def test_terms_serialized_in_graded_lex_order(self):
        p = x(2, 1) ** 2 + x(2, 0) + 5
        exps = [tuple(t["exponents"]) for t in p.to_obj()["terms"]]
        assert exps == [(0, 0), (1, 0), (0, 2)]


class TestPolyMap:
    def test_map_round_trip(self):
        m = PolyMap([x(2, 0) + x(2, 1), x(2, 1) ** 2 - 1])
        assert PolyMap.from_obj(m.to_obj()) == m

    def test_jacobian_shape(self):
        m = PolyMap([x(3, 0) * x(3, 1), x(3, 2)])
        jac = m.jacobian()
        assert len(jac) == 2 and all(len(row) == 3 for row in jac)
        assert jac[0][1] == x(3, 0)
