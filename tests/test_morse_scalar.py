import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseforge._rat import rat
from morseforge.exactmat import det
from morseforge.morse_scalar import (
    AlphaSpec,
    build_alpha,
    build_f,
    build_pair,
    gcd_degree,
    has_simple_zeroes,
)
from morseforge.poly import MultiPoly
from morseforge.verify import certify
from oracles import eval_symmetric, squared_plane_f
from test_verify import plane_bundle


def xvar():
    return MultiPoly.variable(1, 0)


def hessian_f(pair, point):
    """Exact Hessian of f at a rational point via symbolic second partials;
    the closed form on the critical set is the oracle it is checked against."""
    return eval_symmetric(pair.f.hessian(), point)


@st.composite
def alpha_specs(draw, max_roots=5, height=10):
    k = draw(st.integers(min_value=1, max_value=max_roots))
    roots = set()
    while len(roots) < k:
        num = draw(st.integers(min_value=-height, max_value=height))
        den = draw(st.integers(min_value=1, max_value=height))
        roots.add(rat(num, den))
    return AlphaSpec(sorted(roots))


class TestAlphaSpec:
    def test_sorted_and_exact(self):
        spec = AlphaSpec(["1/2", -1, 0])
        assert spec.roots == (rat(-1), rat(0), rat(1, 2))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            AlphaSpec([1, "2/2"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AlphaSpec([])

    def test_build_alpha_expands(self):
        alpha = build_alpha(AlphaSpec([0, 1, 2]))
        x = xvar()
        assert alpha == x ** 3 - 3 * x ** 2 + 2 * x


class TestSimpleZeroes:
    def test_gcd_degree_coprime(self):
        x = xvar()
        assert gcd_degree(x ** 2 - 1, x) == 0

    def test_gcd_degree_shared_factor(self):
        x = xvar()
        assert gcd_degree((x - 1) * (x + 2), (x - 1) * x) == 1

    def test_simple_zeroes_accepted(self):
        assert has_simple_zeroes(xvar() ** 2 - 1)

    def test_repeated_root_detected(self):
        x = xvar()
        assert not has_simple_zeroes((x - 1) ** 2)

    def test_build_f_rejects_repeated_root(self):
        with pytest.raises(ValueError):
            build_f((xvar() - 1) ** 2)

    def test_build_f_rejects_constant(self):
        with pytest.raises(ValueError):
            build_f(MultiPoly.constant(1, 3))


class TestConstruction:
    def test_hand_expansion_linear_alpha(self):
        # alpha = x gives beta = x - 1 and f = (x - (x-1)^2 y)^2 - x^3/3 + x^2/2
        pair = build_f(xvar())
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        one = MultiPoly.constant(2, 1)
        expected = (x - (x - one) ** 2 * y) ** 2 \
            - x ** 3 * rat(1, 3) + x ** 2 * rat(1, 2)
        assert pair.f == expected

    @given(alpha_specs(max_roots=8), st.integers(min_value=-9, max_value=9).filter(bool),
           st.integers(min_value=1, max_value=9))
    @settings(max_examples=40, deadline=None)
    def test_matches_squared_plane_polynomial(self, spec, num, den):
        # any nonzero multiple of a product of distinct linear factors
        alpha = build_alpha(spec) * rat(num, den)
        assert build_f(alpha).f == squared_plane_f(alpha)

    def test_beta_is_alpha_minus_derivative(self):
        pair = build_pair(AlphaSpec([0, "1/3", 2]))
        assert pair.beta == pair.alpha - pair.alpha.partial(0)

    @given(alpha_specs())
    @settings(max_examples=40, deadline=None)
    def test_beta_nonzero_at_roots(self, spec):
        # beta(a_i) = -alpha'(a_i), nonzero because the zeroes are simple
        pair = build_pair(spec)
        da = pair.alpha.partial(0)
        for r in spec.roots:
            assert pair.beta.eval_rational([r]) == -da.eval_rational([r])
            assert pair.beta.eval_rational([r]) != 0

    @given(alpha_specs())
    @settings(max_examples=40, deadline=None)
    def test_y_partial_factors(self, spec):
        # f_y = -2 (alpha - beta^2 y) beta^2 identically
        pair = build_pair(spec)
        a2 = pair.alpha.embed(2, (0,))
        b2 = pair.beta.embed(2, (0,))
        y = MultiPoly.variable(2, 1)
        assert pair.f.partial(1) == (a2 - b2 * b2 * y) * b2 * b2 * (-2)

    @given(alpha_specs())
    @settings(max_examples=30, deadline=None)
    def test_gradient_vanishes_on_critical_set(self, spec):
        pair = build_pair(spec)
        for r in spec.roots:
            pt = (r, rat(0))
            assert pair.f.partial(0).eval_rational(pt) == 0
            assert pair.f.partial(1).eval_rational(pt) == 0


def closed_form_hessian(pair, root):
    """On-set Hessian [[3 a'^2, -2 a'^3], [-2 a'^3, 2 a'^4]] at (root, 0)."""
    d = pair.alpha.partial(0).eval_rational([root])
    return [[3 * d * d, -2 * d ** 3], [-2 * d ** 3, 2 * d ** 4]]


class TestHessian:
    def test_linear_alpha_hessian(self):
        pair = build_f(xvar())
        h = hessian_f(pair, (rat(0), rat(0)))
        assert h == [[3, -2], [-2, 2]]
        assert det(h) == 2

    def test_quadratic_alpha_hessian(self):
        pair = build_pair(AlphaSpec([-1, 1]))
        assert hessian_f(pair, (rat(1), rat(0))) == [[12, -16], [-16, 32]]
        assert hessian_f(pair, (rat(-1), rat(0))) == [[12, 16], [16, 32]]
        assert det(hessian_f(pair, (rat(1), rat(0)))) == 128

    def test_cubic_alpha_determinants(self):
        spec = AlphaSpec(["1/3", "1/2", 2])
        pair = build_pair(spec)
        da = pair.alpha.partial(0)
        for r in spec.roots:
            d = da.eval_rational([r])
            assert det(hessian_f(pair, (r, rat(0)))) == 2 * d ** 6

    @given(alpha_specs())
    @settings(max_examples=30, deadline=None)
    def test_symbolic_matches_closed_form(self, spec):
        pair = build_pair(spec)
        for r in spec.roots:
            assert hessian_f(pair, (r, rat(0))) == closed_form_hessian(pair, r)

    @given(alpha_specs())
    @settings(max_examples=30, deadline=None)
    def test_hessian_positive_definite_at_minima(self, spec):
        pair = build_pair(spec)
        for r in spec.roots:
            h = hessian_f(pair, (r, rat(0)))
            assert h[0][0] > 0 and det(h) > 0


def certify_pair(spec):
    """Exact per-root certification of f plus a numeric spurious-point
    search, on the bundle of the points (r, 0), whose P is f."""
    return certify(plane_bundle(spec), seeds_per_axis=40)


class TestCertification:
    def test_single_root(self):
        report = certify_pair(AlphaSpec([0]))
        assert report.overall_pass

    def test_two_roots(self):
        report = certify_pair(AlphaSpec(["-1/2", "1/2"]))
        assert report.overall_pass
        assert all(c.gradient_zero for c in report.per_point)
        assert all(min(c.minors) > 0 for c in report.per_point)

    def test_no_spurious_points_found(self):
        report = certify_pair(AlphaSpec([-1, 0, 1]))
        assert report.spurious.all_within_tol
