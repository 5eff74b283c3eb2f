import json
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import polys, rationals
from morseforge._rat import rat
from morseforge.numeric import CompiledPoly
from morseforge.poly import DimensionMismatch, MultiPoly, PolyMap
from oracles import eval_symmetric


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

    @given(polys(dim=3, max_exp=3), st.lists(rationals(), min_size=3, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_eval_symmetric_matches_every_entry(self, p, pt):
        h = p.hessian()
        assert eval_symmetric(h, pt) == [[e.eval_rational(pt) for e in row] for row in h]

    @given(st.integers(min_value=1, max_value=5).flatmap(lambda n: st.tuples(
        polys(dim=n, max_terms=8, max_exp=7),
        st.lists(st.one_of(st.just(rat(0)), rationals()), min_size=n, max_size=n))))
    @settings(max_examples=150, deadline=None)
    def test_hessian_at_matches_symbolic_second_partials(self, case):
        p, pt = case
        h = p.hessian_at(pt)
        assert h == eval_symmetric(p.hessian(), pt)
        assert all(isinstance(v, Fraction) for row in h for v in row)

    def test_hessian_at_zero_coordinates_and_low_degree(self):
        # at the origin only x0 x2 leaves a second partial; at x2 = 0 its
        # entry (0, 2) is still 1
        p = x(3, 0) ** 3 * x(3, 1) + x(3, 0) * x(3, 2) - 5 * x(3, 1) + 7
        assert p.hessian_at([0, 0, 0]) == [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
        assert p.hessian_at(["1/2", 2, 0]) == [[6, rat(3, 4), 1], [rat(3, 4), 0, 0], [1, 0, 0]]
        assert MultiPoly.constant(2, 3).hessian_at([1, 1]) == [[0, 0], [0, 0]]
        assert MultiPoly.zero(1).hessian_at([rat(1, 3)]) == [[0]]
        with pytest.raises(DimensionMismatch):
            p.hessian_at([1, 2])


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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_float_agrees_with_exact(self, dim, data):
        p = data.draw(polys(dim=dim, height=1000, max_exp=6))
        pt = [data.draw(rationals(1000)) for _ in range(dim)]
        exact = float(p.eval_rational(pt))
        approx = float(CompiledPoly(p)(np.array([[float(c) for c in pt]]))[0])
        assert abs(approx - exact) <= 1e-12 * max(1.0, abs(exact))


class _SubFraction(Fraction):
    """A Fraction subclass, which MultiPoly stores as a plain Fraction."""


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

    @given(st.lists(st.tuples(st.one_of(st.just(0), st.integers(-10 ** 30, 10 ** 30)),
                              st.integers(1, 10 ** 30), st.booleans(),
                              st.integers(1, 10 ** 6)), max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_stored_pair_reads_as_num_over_den(self, pairs):
        # a stored (num, den) need not be reduced, and den may be negative;
        # it reads as Fraction(num) / Fraction(den)
        terms, expected = [], {}
        for i, (num, den, negate, factor) in enumerate(pairs):
            num, den = num * factor, (-den if negate else den) * factor
            terms.append({"exponents": [i], "num": str(num), "den": str(den)})
            if num:
                expected[(i,)] = Fraction(num) / Fraction(den)
        read = MultiPoly.from_obj({"dimension": 1, "terms": terms}).terms
        assert [(e, c.numerator, c.denominator) for e, c in read.items()] == \
            [(e, c.numerator, c.denominator) for e, c in expected.items()]

    @given(st.lists(st.tuples(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.one_of(
            st.integers(-10 ** 30, 10 ** 30),
            rationals().map(str),
            st.decimals(-10 ** 6, 10 ** 6, places=4).map(str),
            st.floats(allow_nan=False, allow_infinity=False),
            rationals(),
            rationals().map(_SubFraction),
        ),
    ), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_coefficients_coerce_as_rat(self, items):
        # every coefficient reads as rat(coeff), duplicates summed and zero
        # sums dropped, and is stored as a plain Fraction
        expected: dict = {}
        for e, c in items:
            expected[e] = expected.get(e, 0) + rat(c)
        terms = MultiPoly(2, items).terms
        assert terms == {e: c for e, c in expected.items() if c}
        assert all(type(c) is Fraction for c in terms.values())

    def test_fraction_coefficient_kept(self):
        f = Fraction(3, 7)
        assert MultiPoly(1, [((2,), f)]).terms[(2,)] is f

    @pytest.mark.parametrize("bad", ["1/x", "", "1/0", "nan", "inf"])
    def test_malformed_coefficient_raises(self, bad):
        with pytest.raises((ValueError, ZeroDivisionError)):
            MultiPoly(1, [((0,), bad)])

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


# ------------------------------------------------------------------ oracles
# Naive Fraction-by-Fraction references for the fraction-free kernel.


def naive_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def naive_compose(p, comps):
    m = comps[0].dim
    out = {}
    for exps, c in p.terms.items():
        img = {(0,) * m: Fraction(1)}
        for comp, e in zip(comps, exps):
            for _ in range(e):
                img = naive_mul(img, comp.terms)
        for e2, c2 in img.items():
            out[e2] = out.get(e2, Fraction(0)) + c * c2
    return {e: c for e, c in out.items() if c}


def naive_partial(p, var):
    out = {}
    for exps, c in p.terms.items():
        if exps[var]:
            key = exps[:var] + (exps[var] - 1,) + exps[var + 1 :]
            out[key] = out.get(key, Fraction(0)) + c * exps[var]
    return {e: c for e, c in out.items() if c}


def naive_eval(p, xs):
    total = Fraction(0)
    for exps, c in p.terms.items():
        for x, e in zip(xs, exps):
            c = c * Fraction(x) ** e
        total = total + c
    return total


def assert_canonical(value):
    assert type(value) is Fraction
    assert value.denominator > 0
    assert gcd(value.numerator, value.denominator) == 1


def assert_matches(result, dim, expected):
    assert result.dim == dim
    assert result.terms == expected
    for c in result.terms.values():
        assert c != 0
        assert_canonical(c)
    assert result.to_obj() == MultiPoly(dim, expected).to_obj()


@st.composite
def kernel_polys(draw, dim, max_terms=5, max_exp=3):
    """Random polynomials with mixed denominators and signs, plus the zero
    polynomial and nonzero constants."""
    kind = draw(st.sampled_from(["poly", "poly", "poly", "zero", "constant"]))
    if kind == "zero":
        return MultiPoly.zero(dim)
    if kind == "constant":
        return MultiPoly.constant(dim, draw(rationals(1000).filter(bool)))
    return draw(polys(dim=dim, max_terms=max_terms, max_exp=max_exp, height=1000))


class TestFractionFreeKernel:
    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.tuples(kernel_polys(d), kernel_polys(d))))
    @settings(max_examples=150, deadline=None)
    def test_mul_matches_naive(self, pair):
        a, b = pair
        assert_matches(a * b, a.dim, naive_mul(a.terms, b.terms))

    @given(st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=100, deadline=None)
    def test_compose_polymap_matches_naive(self, dim, data):
        p = data.draw(kernel_polys(dim))
        m = data.draw(st.integers(min_value=1, max_value=3))
        comps = [data.draw(kernel_polys(m, max_terms=3, max_exp=2)) for _ in range(dim)]
        assert_matches(p.compose(PolyMap(comps, m)), m, naive_compose(p, comps))

    @given(st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_compose_sequence_shared_cache(self, dim, data):
        comps = [data.draw(kernel_polys(2, max_terms=3, max_exp=2)) for _ in range(dim)]
        cache: dict = {}
        for _ in range(3):
            p = data.draw(kernel_polys(dim))
            assert_matches(p.compose(comps, cache), 2, naive_compose(p, comps))
        # cached power products are kept free of content, so numerators do
        # not carry common factors from one multiplication to the next
        for den, nums in cache.values():
            assert gcd(den, *nums.values()) == 1

    @given(st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.tuples(kernel_polys(d, max_exp=4), st.integers(0, d - 1))))
    @settings(max_examples=150, deadline=None)
    def test_partial_matches_naive(self, case):
        p, var = case
        assert_matches(p.partial(var), p.dim, naive_partial(p, var))

    @given(st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_eval_rational_matches_naive(self, dim, data):
        p = data.draw(kernel_polys(dim, max_exp=5))
        pt = [data.draw(st.one_of(rationals(1000), st.integers(-5, 5))) for _ in range(dim)]
        value = p.eval_rational(pt)
        assert value == naive_eval(p, pt)
        assert_canonical(value)

    def test_product_cancellation(self):
        p = (x() + 1) * (x() - 1)
        assert p.terms == {(2,): 1, (0,): -1}
        assert all(type(c) is Fraction for c in p.terms.values())

    def test_composition_cancelling_every_term(self):
        t = x(2, 0) * rat(1, 3) - x(2, 1) * rat(5, 7)
        p = x(2, 0) ** 2 - x(2, 1) ** 2
        image = p.compose(PolyMap([t + 2, t + 2]))
        assert image.is_zero() and image.terms == {}
        assert image.dim == 2

    @given(kernel_polys(2), kernel_polys(2))
    @settings(max_examples=50, deadline=None)
    def test_cached_integer_form_is_invisible(self, p, q):
        fresh = MultiPoly(p.dim, p.terms)
        used = MultiPoly(p.dim, p.terms)
        terms_before = dict(used.terms)
        used * q
        used.compose([q, q])
        used.partial(0)
        used.eval_rational([rat(1, 3), 2])
        assert used._ints is not None and fresh._ints is None
        assert used.terms == terms_before
        assert used == fresh and fresh == used
        assert hash(used) == hash(fresh)
        assert used.to_obj() == fresh.to_obj()
