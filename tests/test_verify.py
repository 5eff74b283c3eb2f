import dataclasses
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseforge import serialize, verify
from morseforge._rat import rat
from morseforge.coord_change import PointSet
from morseforge.exactmat import leading_principal_minors
from morseforge.morse_scalar import AlphaSpec, build_pair
from morseforge.numeric import CoefficientTooLarge, CompiledPoly
from morseforge.poly import MultiPoly, PolyMap
from morseforge.synth import build_saddle_field, descent_field, synthesize
from morseforge.verify import (
    STATUS_CONVERGED,
    BoxSpec,
    FlowConfig,
    GridTooLarge,
    FieldJacobian,
    certify,
    integrate_batch,
    newton_search,
)
from oracles import (
    cramer3,
    eigen_signs,
    fd_gradient_check_batch,
    newton_step_rows,
    reference_first_come,
    reference_integrate_batch,
    reference_newton_search,
    rows_of,
    sample_box,
)
from test_acceptance import PLANE_INSTANCES


def x(dim=1, i=0):
    return MultiPoly.variable(dim, i)


class TestBox:
    def test_from_points_inflates_and_pads(self):
        box = BoxSpec.from_points([[0.0, 0.0], [1.0, 0.0]])
        assert box.lower == (-1.5, -1.0)
        assert box.upper == (2.5, 1.0)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            BoxSpec(lower=(0.0,), upper=(0.0,))
        with pytest.raises(ValueError):
            BoxSpec(lower=(-math.inf, -1.0), upper=(math.inf, 1.0))

    def test_grid_count(self):
        box = BoxSpec(lower=(0.0, 0.0), upper=(1.0, 1.0))
        assert box.grid(5).shape == (25, 2)

    def test_grid_over_limit_refused(self):
        box = BoxSpec(lower=(0.0,) * 21, upper=(1.0,) * 21)
        assert box.grid(1).shape == (1, 21)
        with pytest.raises(GridTooLarge):
            box.grid(2)
        with pytest.raises(GridTooLarge):
            BoxSpec(lower=(0.0, 0.0), upper=(1.0, 1.0)).grid(1025)

    def test_samples_stay_inside(self):
        box = BoxSpec(lower=(-2.0, 1.0), upper=(-1.0, 3.0))
        pts = sample_box(box, 100, np.random.default_rng(0))
        assert ((pts >= box.lower) & (pts <= box.upper)).all()


class TestFiniteDifferences:
    def test_quadratic_exact_to_roundoff(self):
        assert fd_gradient_check_batch(x() ** 2, [[1.0]], 1e-6)[0] <= 1e-9

    def test_requires_positive_h(self):
        with pytest.raises(ValueError):
            fd_gradient_check_batch(x(), [[0.0]], 0.0)


class TestNewton:
    def test_quadratic_bowl(self):
        p = x(2, 0) ** 2 * rat(1, 2) + x(2, 1) ** 2 * rat(1, 2)
        grad = PolyMap([p.partial(0), p.partial(1)])
        box = BoxSpec(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        res = newton_search(grad, box, seeds_per_axis=5)
        assert len(res.points) == 1
        assert np.linalg.norm(res.points[0]) <= 1e-12

    def test_finds_all_minima_from_perturbed_seeds(self, monkeypatch):
        monkeypatch.setattr(verify, "MAX_ITER", 20)
        res = synthesize(PointSet(2, [["-1/2", 0], ["1/2", "1/4"]]))
        grad = PolyMap([res.p_poly.partial(0), res.p_poly.partial(1)])
        box = BoxSpec.from_points(res.input.points)
        found = newton_search(grad, box, seeds_per_axis=10)
        targets = np.array([[-0.5, 0.0], [0.5, 0.25]])
        for t in targets:
            assert min(np.linalg.norm(p - t) for p in found.points) <= 1e-6

    def test_huge_gradient_is_silent(self):
        # a gradient entry of 2e200 squares past the double range inside the
        # norm; an infinite norm only means "not converged yet"
        p = 10 ** 200 * x(2, 0) ** 2 + x(2, 1) ** 2
        grad = PolyMap([p.partial(0), p.partial(1)])
        box = BoxSpec(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = newton_search(grad, box, seeds_per_axis=5)
        assert np.array_equal(res.points, [[0.0, 0.0]])

    def test_rejects_tiny_grid(self):
        grad = PolyMap([x(2, 0), x(2, 1)])
        box = BoxSpec(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        with pytest.raises(ValueError):
            newton_search(grad, box, seeds_per_axis=1)


def greedy_dedup(points, tol):
    """The census's first-come deduplication, one candidate at a time."""
    reps = []
    for p in points:
        if all(np.linalg.norm(p - r) > tol for r in reps):
            reps.append(p)
    return reps


@st.composite
def candidate_sets(draw):
    """Candidates around a few centres: exact duplicates, offsets of 0.5 to
    3 times tol, and offsets within a few ulps of tol, along an axis or in a
    random direction."""
    n = draw(st.sampled_from([2, 3]))
    tol = draw(st.sampled_from([1e-8, 1e-3, 0.5]))
    coord = st.floats(-10.0, 10.0, allow_nan=False)
    # at the origin an offset is its own difference, so its norm lands
    # within ulps of tol; elsewhere the subtraction rounds it
    centers = [(0.0,) * n] + draw(st.lists(st.tuples(*[coord] * n), max_size=3))
    pts = []
    for _ in range(draw(st.integers(1, 30))):
        center = np.array(draw(st.sampled_from(centers)))
        ulps = draw(st.integers(-3, 3)) * np.finfo(float).eps
        scale = draw(st.sampled_from([0.0, 0.5, 1.0 + ulps, 1.5, 2.0, 3.0])) * tol
        if draw(st.booleans()):
            direction = np.eye(n)[draw(st.integers(0, n - 1))] * draw(st.sampled_from([-1, 1]))
        else:
            direction = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * n)))
            direction /= max(np.linalg.norm(direction), 1e-3)
        pts.append(center + scale * direction)
    return np.array(pts), tol


class TestDedup:
    @settings(max_examples=300, deadline=None)
    @given(candidate_sets())
    def test_matches_greedy_loop(self, case):
        pts, tol = case
        got, want = verify._dedup(pts, tol), greedy_dedup(pts, tol)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert verify._first_come(pts, tol) == reference_first_come(pts, tol)


# axis-aligned sets in R^3 (distinct first coordinates)
CENSUS_N3_SETS = [
    [[0, 0, 0]],
    [["-1/2", 0, 0], ["1/2", "1/4", 0], [1, 0, "1/2"]],
    [[-1, "1/3", 0], [0, 0, "-1/4"]],
]
CENSUS_CASES = [(pts, 100) for pts in PLANE_INSTANCES] + [(pts, 13) for pts in CENSUS_N3_SETS]
TWO_POINTS = [["-1/2", 0], ["1/2", "1/4"]]


def census_input(pts):
    res = synthesize(PointSet(len(pts[0]), pts))
    return descent_field(res.p_poly), BoxSpec.from_points(res.input.points), res.input.points


def polish_every_representative(grad, candidates):
    """The census without the skip rule: polish every representative, then
    dedup the polished points."""
    grad_hess = FieldJacobian(grad)
    points = []
    for rep in verify._dedup(candidates, verify.DEDUP_TOL):
        polished = verify._polish_exact(grad, grad_hess, rep)
        if polished is not None:
            points.append(polished)
    return verify._dedup(np.asarray(points), verify.DEDUP_TOL) if points else []


def recording(monkeypatch, name, calls, result=None):
    """Patch verify.<name> to record its arguments; result, when given, maps
    the call number and the arguments to the return value."""
    original = getattr(verify, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args) if result is None else result(len(calls), original, *args)

    monkeypatch.setattr(verify, name, wrapper)


class TestPolishSkip:
    @pytest.mark.parametrize("pts, seeds", CENSUS_CASES)
    def test_matches_polishing_every_representative(self, monkeypatch, pts, seeds):
        grad, box, targets = census_input(pts)
        first_come, polishes = [], []
        recording(monkeypatch, "_first_come", first_come)
        recording(monkeypatch, "_polish_exact", polishes)
        got = newton_search(grad, box, seeds).points
        monkeypatch.undo()
        want = polish_every_representative(grad, first_come[0][0])
        assert len(got) == len(want) == len(targets)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert len(polishes) < len(verify._dedup(first_come[0][0], verify.DEDUP_TOL))

    def test_at_most_two_polishes_per_point(self, monkeypatch):
        grad, box, _ = census_input(TWO_POINTS)
        polishes = []
        recording(monkeypatch, "_polish_exact", polishes)
        found = newton_search(grad, box, 100).points
        assert len(found) == 2
        assert len(polishes) <= 2 * len(found)

    def test_failed_polish_marks_nothing(self, monkeypatch):
        grad, box, targets = census_input(TWO_POINTS)
        polishes = []
        recording(monkeypatch, "_polish_exact", polishes,
                  lambda k, polish, *args: None if k == 1 else polish(*args))
        found = newton_search(grad, box, 100).points
        assert len(polishes) > 2
        for t in targets:
            assert min(np.linalg.norm(p - [float(c) for c in t]) for p in found) <= 1e-6

    def test_candidate_without_image_is_never_skipped(self, monkeypatch):
        # the float phase sees a zero Jacobian at every candidate, so no
        # candidate gets an image, and every representative is polished
        # (with the true Jacobian)
        grad, box, _ = census_input(TWO_POINTS)
        grad_hess = FieldJacobian(grad)
        first_come, polishes = [], []
        recording(monkeypatch, "_first_come", first_come)
        recording(monkeypatch, "_polish_exact", polishes,
                  lambda k, polish, grad, _, x0: polish(grad, grad_hess, x0))

        class SingularAtCandidates(verify.FieldJacobian):
            def __call__(self, x):
                g, jac = super().__call__(x)
                small = np.linalg.norm(g, axis=0) < verify.COARSE_TOL
                return g, np.where(small, 0.0, jac)

        monkeypatch.setattr(verify, "FieldJacobian", SingularAtCandidates)
        found = newton_search(grad, box, 100).points
        reps = verify._dedup(first_come[0][0], verify.DEDUP_TOL)
        assert len(polishes) == len(reps) > 2
        assert all(np.array_equal(args[2], rep) for args, rep in zip(polishes, reps))
        want = polish_every_representative(grad, first_come[0][0])
        assert all(np.array_equal(a, b) for a, b in zip(found, want))


# the four axis-aligned n=3 sets of the benchmark's verify workload
BENCH_N3_SETS = [
    [["1/4", "-2/3", "1/2"]],
    [["1/3", "1", "0"], ["1", "-2/3", "1"]],
    [["-2/3", "0", "0"], ["0", "1/2", "1/3"], ["1", "-2", "-1/2"]],
    [["-2", "0", "-2/3"], ["-1/2", "2/3", "-2/3"], ["0", "1", "2/3"], ["1/2", "1", "1/2"]],
]


def assert_same_census(got, want, claimed):
    """Equal NewtonResults: the points bit for bit, the counts exactly, and
    the same match of the claimed points to the found ones."""
    assert len(got.points) == len(want.points)
    for a, b in zip(got.points, want.points):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    counts = ("seeds_used", "abandoned", "singular", "blind", "polish_failed")
    assert [getattr(got, c) for c in counts] == [getattr(want, c) for c in counts]
    assert all(type(getattr(got, c)) is int for c in counts)
    assert got.near.shape == want.near.shape == (len(claimed), len(got.points))
    assert np.array_equal(got.near, want.near)
    if len(claimed):
        assert got.to_obj() == want.to_obj()


def census_both(points, seeds=None):
    """newton_search and the reference census on P's descent field with
    certify's box and claimed points, and by default its seed density."""
    res = synthesize(PointSet(len(points[0]), points))
    grad = descent_field(res.p_poly)
    box = BoxSpec.from_points(res.input.points)
    seeds = seeds or max(2, int(round(2000 ** (1.0 / box.dim))))
    claimed = verify._float_points(res.input.points)
    got = newton_search(grad, box, seeds, claimed=claimed)
    assert_same_census(got, reference_newton_search(grad, box, seeds, claimed=claimed), claimed)
    return got


small_rational = st.builds(lambda p, q: f"{p}/{q}", st.integers(-2, 2), st.integers(1, 4))


class TestNewtonMatchesReference:
    """newton_search against the census that masks, measures and compacts
    every row on every iteration and deduplicates against every remaining
    candidate."""

    @pytest.mark.parametrize("pts", PLANE_INSTANCES + BENCH_N3_SETS)
    def test_fixed_sets(self, pts):
        got = census_both(pts)
        assert len(got.points) >= 1

    @settings(max_examples=8, deadline=None)
    @given(st.lists(st.tuples(small_rational, small_rational), min_size=1, max_size=3,
                    unique_by=lambda p: tuple(rat(c) for c in p)))
    def test_drawn_plane_sets(self, pts):
        census_both([list(p) for p in pts], seeds=20)

    def test_overflowing_gradient(self):
        # the first component overflows to inf past |x1| ~ 2.6 and to
        # inf - inf = NaN where both cubic terms do, the second to inf past
        # |x1| ~ 2.4; the Jacobian is singular at (0, +-1)
        x1, x2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        grad = PolyMap([x1 + (x1 ** 3 - x1 * x2 ** 2) * 10 ** 307,
                        x2 ** 3 - x2 * 3 + x1 ** 6 * 10 ** 306])
        box = BoxSpec((-4.0, -4.0), (4.0, 4.0))
        g = rows_of(FieldJacobian(grad))(box.grid(17))[0]
        assert np.isinf(g[:, 0]).any() and np.isnan(g[:, 0]).any()
        assert (np.isfinite(g[:, 0]) & np.isinf(g[:, 1])).any()
        claimed = [[0.0, 0.0], [1.0, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = newton_search(grad, box, 17, claimed=claimed)
            want = reference_newton_search(grad, box, 17, claimed=claimed)
        assert_same_census(got, want, claimed)
        assert got.abandoned > 0 and got.singular > 0
        assert got.blind == 1


def test_census_evaluates_no_row_outside_the_guard_box(monkeypatch):
    # the box is tested before the evaluation: a row that has left the guard
    # box is abandoned without reaching the evaluator
    class Checked(verify.FieldJacobian):
        def __call__(self, x):
            assert ((x.T >= lo) & (x.T <= hi)).all()
            return super().__call__(x)

    monkeypatch.setattr(verify, "FieldJacobian", Checked)
    abandoned = 0
    for pts in PLANE_INSTANCES + BENCH_N3_SETS:
        res = synthesize(PointSet(len(pts[0]), pts))
        box = BoxSpec.from_points(res.input.points)
        lo, hi = box.guard()
        seeds = max(2, int(round(2000 ** (1.0 / box.dim))))
        claimed = verify._float_points(res.input.points)
        abandoned += newton_search(descent_field(res.p_poly), box, seeds, claimed).abandoned
    assert abandoned > 0


def test_guard_bounds_stay_finite_when_the_guard_overflows():
    # the guard of a box near the largest double overflows to infinity; the
    # bounds the census and the flow test against are clipped, so a NaN or
    # infinite coordinate is never inside
    big = np.finfo(float).max
    box = BoxSpec((-big / 2, 0.0), (big / 2, 1.0))
    with np.errstate(over="ignore"):
        lo, hi = box.guard()
        bounds = verify._guard_bounds(box)
    assert np.isinf(lo[0]) and np.isinf(hi[0])
    assert all(math.isfinite(v) for pair in bounds for v in pair)
    assert bounds[1] == (lo[1], hi[1])
    rows = np.array([[big, 0.5], [-big, 0.5], [np.inf, 0.5], [-np.inf, 0.5],
                     [np.nan, 0.5], [0.0, np.nan], [0.0, hi[1] * 2]])
    assert verify._inside(rows.T, bounds).tolist() == [True, True] + [False] * 5


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_row_norms_match_the_row_reduction(n):
    # summed a component at a time, the squares give the bits of numpy's
    # row reduction, also where a row is zero or its squares overflow to inf
    rng = np.random.default_rng(n)
    g = rng.standard_normal((400, n)) * 10.0 ** rng.integers(-150, 150, size=(400, n))
    g[:20] = 0.0
    g[20:40, 0] = 1e200
    g[40:60] = -1e160
    with np.errstate(over="ignore"):
        want = np.sqrt(np.add.reduce(g * g, axis=1))
        got = verify._row_norms(g.T)
    assert np.isinf(want).any() and not want[:20].any()
    assert np.array_equal(got, want)


def test_census_and_flow_take_row_norms_from_the_helper(monkeypatch):
    calls = []
    recording(monkeypatch, "_row_norms", calls)
    grad = PolyMap([x(2, 0) * x(2, 0) * x(2, 0) - x(2, 0), x(2, 1)], 2)
    box = BoxSpec(lower=(-2.0, -1.0), upper=(2.0, 1.0))
    newton_search(grad, box, 5, claimed=[[1.0, 0.0]])
    # the blind test at the one claimed point, then the first iteration's
    # convergence test on the 25 seeds, each given component-major
    assert [g.shape for g, in calls[:2]] == [(2, 1), (2, 25)]
    calls.clear()
    integrate_batch(PolyMap([-x(2, 0), -x(2, 1)], 2), [[0.5, 0.5]], box, [[0.0, 0.0]])
    assert calls


def conditioned(rng, rows: int, n: int) -> np.ndarray:
    """rows random n x n matrices, each with singular values spread over up
    to eight decades and scaled by up to 1e3 either way."""
    q1 = np.linalg.qr(rng.standard_normal((rows, n, n)))[0]
    q2 = np.linalg.qr(rng.standard_normal((rows, n, n)))[0]
    sv = 10.0 ** (rng.uniform(0, 8, (rows, 1)) * rng.uniform(0, 1, (rows, n)))
    scale = 10.0 ** rng.uniform(-3, 3, (rows, 1, 1))
    return scale * (q1 * sv[:, None, :]) @ q2


def lapack_step(jac: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.linalg.solve(jac, g[..., None])[..., 0]


def assert_close_steps(got: np.ndarray, want: np.ndarray, cond: np.ndarray):
    """got within 1e-12 cond of want, relative to want's largest entry."""
    err = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
    assert (err <= 1e-12 * cond).all()


class TestNewtonStep:
    """verify._newton_step, on rows: closed-form for n <= 3, LAPACK's
    beyond."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_lapack(self, n):
        rng = np.random.default_rng(n)
        jac = conditioned(rng, 500, n)
        g = rng.standard_normal((500, n)) * 10.0 ** rng.uniform(-3, 3, (500, 1))
        cond = np.linalg.cond(jac)
        assert cond.max() <= 1e8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = newton_step_rows(jac, g)
        assert got.shape == (500, n)
        assert_close_steps(got, lapack_step(jac, g), cond)

    def test_cofactors_match_one_cyclic_expansion(self):
        # _cramer takes the rows of its cyclic expansion of J one at a time;
        # its steps and determinants are those of the whole expansion bit
        # for bit, on regular, huge, tiny, singular, infinite and NaN rows
        rng = np.random.default_rng(3)
        jac = conditioned(rng, 700, 3)
        jac[1::7] *= 1e200
        jac[2::7] *= 1e-200
        jac[3::7] = 0.0
        jac[4::7, 1, 2] = np.inf
        jac[5::7, 0, 0] = np.nan
        jac = jac.transpose(1, 2, 0).copy()
        g = rng.standard_normal((3, 700))
        with np.errstate(all="ignore"):
            got, want = verify._cramer(jac, g), cramer3(jac, g)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exactly_singular_rows_are_not_finite(self, n):
        # the zero matrix and integer rank-one matrices u v^T, whose entries
        # of u are powers of two so that LAPACK's elimination is exact too
        rng = np.random.default_rng(10 + n)
        singular = [np.zeros((n, n))]
        if n > 1:
            for _ in range(20):
                u = rng.choice([-4.0, -2.0, -1.0, 1.0, 2.0, 4.0], n)
                singular.append(np.outer(u, rng.integers(-9, 10, n).astype(float)))
        regular = conditioned(rng, len(singular), n)
        jac = np.stack([m for pair in zip(singular, regular) for m in pair])
        g = rng.standard_normal((len(jac), n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = newton_step_rows(jac, g)
        assert (~np.isfinite(got[0::2])).any(axis=1).all()
        assert np.isfinite(got[1::2]).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("scale", [1e200, 1e155, 1e-200, "subnormal det"])
    def test_extreme_entries_get_lapacks_step(self, n, scale):
        # products of entries near 1e200 overflow, near 1e155 they overflow
        # the determinant alone, near 1e-200 they underflow, and near
        # 1e-318^(1/n) the determinant is a subnormal with few bits left;
        # wherever LAPACK's step is finite, so is this one, and it is as
        # close.  Beside a large J, g is of order 1 and, on every other row,
        # of the order of J; beside a tiny J it is about 1e-20, small enough
        # for LAPACK's step to stay finite, large enough for the products
        # of g and J to stay normal (their underflow alone is not retried)
        if scale == "subnormal det":
            scale = 10.0 ** (-318 / n)
        rng = np.random.default_rng(20 + n)
        jac = conditioned(rng, 200, n) * scale
        g_scale = np.where(np.arange(200) % 2, scale, 1.0) if scale > 1 else 1e-20
        g = rng.standard_normal((200, n)) * np.reshape(g_scale, (-1, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = newton_step_rows(jac, g)
        with np.errstate(over="ignore", under="ignore"):
            want = lapack_step(jac, g)
        finite = np.isfinite(want).all(axis=1)
        assert finite.sum() >= 100
        assert np.isfinite(got[finite]).all()
        assert_close_steps(got[finite], want[finite], np.linalg.cond(jac[finite]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_a_row_alone_matches_the_batch(self, n):
        # regular, huge, tiny and singular rows in one batch of 13^3 rows
        rng = np.random.default_rng(30 + n)
        jac = conditioned(rng, 2197, n)
        jac[1::7] *= 1e200
        jac[2::7] *= 1e-200
        jac[3::7] = 0.0
        jac[4::7, :, 0] = jac[4::7, :, -1]
        g = rng.standard_normal((2197, n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = newton_step_rows(jac, g)
            alone = np.concatenate([newton_step_rows(jac[i:i + 1], g[i:i + 1])
                                    for i in range(len(g))])
        assert batch.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_empty_batch(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = newton_step_rows(np.empty((0, n, n)), np.empty((0, n)))
        assert got.shape == (0, n)


@pytest.mark.parametrize("dim", [2, 3])
def test_census_and_polish_take_steps_from_the_helper(monkeypatch, dim):
    # for n <= 3 no Newton step goes through LAPACK: the float phase steps
    # its live rows, and the polish its one point, through _newton_step
    def refused(*args):
        raise AssertionError("np.linalg.solve called")

    steps, phase = [], ["float"]
    newton_step, polish = verify._newton_step, verify._polish_exact

    def stepping(jac, g):
        steps.append((phase[0], g.shape[1]))
        return newton_step(jac, g)

    def polishing(*args):
        phase[0] = "polish"
        return polish(*args)

    monkeypatch.setattr(np.linalg, "solve", refused)
    monkeypatch.setattr(verify, "_newton_step", stepping)
    monkeypatch.setattr(verify, "_polish_exact", polishing)
    # critical points at x1 = 0 and +-sqrt(2), which no seed hits exactly
    grad = PolyMap([x(dim, 0) * x(dim, 0) * x(dim, 0) - x(dim, 0) * 2,
                    *(x(dim, i) for i in range(1, dim))], dim)
    box = BoxSpec(lower=(-2.0,) + (-1.0,) * (dim - 1), upper=(2.0,) + (1.0,) * (dim - 1))
    res = newton_search(grad, box, 5, claimed=[[math.sqrt(2)] + [0.0] * (dim - 1)])
    assert res.newton_recall == 1.0 and res.polish_failed == 0
    assert steps[0] == ("float", 5 ** dim)
    assert ("polish", 1) in steps


def gradient_map(dim: int) -> PolyMap:
    rng = random.Random(dim)
    terms = []
    for _ in range(40):
        exps = [0] * dim
        for _ in range(rng.randint(0, 8)):
            exps[rng.randrange(dim)] += 1
        terms.append((tuple(exps), rat(rng.randint(-99, 99), rng.randint(1, 99))))
    return descent_field(MultiPoly(dim, terms))


def saddle_map(dim: int) -> PolyMap:
    """The saddle field of three points off the first axis: a pullback through
    a nonlinear change of coordinates, so its Jacobian is not symmetric."""
    pts = [[0] * dim, [1] + [1] * (dim - 1), [2, 0] + [-1] * (dim - 2)]
    return build_saddle_field(PointSet(dim, pts)).pullback


def separately(field: PolyMap, pts: np.ndarray):
    """The field and every Jacobian entry compiled on their own."""
    n = field.domain_dim
    entries = PolyMap([e for row in field.jacobian() for e in row], n)
    return CompiledPoly(field)(pts), CompiledPoly(entries)(pts).reshape(len(pts), n, n)


class TestFieldJacobian:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("rows", [1, 300])
    def test_matches_separate_evaluators(self, dim, rows):
        grad = gradient_map(dim)
        pts = np.random.default_rng(dim).uniform(-2.0, 2.0, size=(rows, dim))
        g, jac = rows_of(FieldJacobian(grad))(pts)
        want_g, want_jac = separately(grad, pts)
        assert np.array_equal(g, want_g)
        assert np.array_equal(jac, want_jac)
        assert np.array_equal(jac, np.swapaxes(jac, 1, 2))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("rows", [1, 300])
    def test_non_symmetric_map(self, dim, rows):
        fld = saddle_map(dim)
        jac_polys = fld.jacobian()
        assert any(jac_polys[i][j] != jac_polys[j][i] for i in range(dim) for j in range(i))
        pts = np.random.default_rng(dim).uniform(-2.0, 2.0, size=(rows, dim))
        f, jac = rows_of(FieldJacobian(fld))(pts)
        want_f, want_jac = separately(fld, pts)
        assert np.array_equal(f, want_f)
        assert np.array_equal(jac, want_jac)
        assert not np.array_equal(jac, np.swapaxes(jac, 1, 2))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("rows", [1, 300])
    def test_lyap_from_the_same_call(self, dim, rows):
        grad = gradient_map(dim)
        lyap = grad.components[0] * grad.components[-1] + 1
        pts = np.random.default_rng(dim).uniform(-2.0, 2.0, size=(rows, dim))
        g, jac, v = rows_of(FieldJacobian(grad, lyap))(pts)
        want_g, want_jac = separately(grad, pts)
        assert np.array_equal(g, want_g)
        assert np.array_equal(jac, want_jac)
        assert np.array_equal(v, CompiledPoly(lyap)(pts))

    @pytest.mark.parametrize("rows", [1, 1000])
    def test_successive_calls_share_no_memory(self, rows):
        # each call's field, Jacobian and Lyapunov values are views of an
        # array of its own; 1000 rows run in more than one block
        grad = gradient_map(2)
        evaluate = FieldJacobian(grad, grad.components[0])
        x = np.random.default_rng(2).uniform(-2.0, 2.0, size=(2, rows))
        first, second = evaluate(x), evaluate(x)
        for a in first:
            for b in second:
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("rows", [1, 1000])
    def test_by_component_is_contiguous(self, dim, rows):
        # the census and the flows read the field, the Jacobian and lyap one
        # contiguous component at a time: the transposes of the values of
        # row-major evaluators
        grad = gradient_map(dim)
        lyap = grad.components[0]
        pts = np.random.default_rng(dim).uniform(-2.0, 2.0, size=(rows, dim))
        got = FieldJacobian(grad, lyap)(np.ascontiguousarray(pts.T))
        want_g, want_jac = separately(grad, pts)
        assert [a.shape for a in got] == [(dim, rows), (dim, dim, rows), (rows,)]
        assert all(a.flags.c_contiguous for a in got)
        assert np.array_equal(got[0], want_g.T)
        assert np.array_equal(got[1], want_jac.transpose(1, 2, 0))
        assert np.array_equal(got[2], CompiledPoly(lyap)(pts))

    def test_jacobian_of_a_map(self):
        x0, x1, x2 = (x(3, i) for i in range(3))
        f, jac = rows_of(FieldJacobian(PolyMap([x0 * x1 - x2 ** 2, x0 ** 3, x1 + 1])))(
            np.array([[1.0, 2.0, 3.0]])
        )
        assert f.tolist() == [[-7.0, 1.0, 3.0]]
        assert jac.tolist() == [[[2.0, 1.0, -6.0], [3.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]


class TestEigenSigns:
    def test_positive_definite(self):
        assert eigen_signs([[3, -2], [-2, 2]], 1e-9) == (2, 0, 0)

    def test_indefinite(self):
        assert eigen_signs([[1, 0], [0, -1]], 1e-9) == (1, 1, 0)

    def test_negative_identity(self):
        assert eigen_signs([[-1, 0, 0], [0, -1, 0], [0, 0, -1]], 1e-9) == (0, 3, 0)

    def test_near_zero_is_ambiguous(self):
        assert eigen_signs([[1e-12]], 1e-9) == (0, 0, 1)


def trace_one(fld, start, dt, t_max, box, targets):
    res = integrate_batch(fld, [start], box, targets, FlowConfig(dt=dt, t_max=t_max))
    return res.traces()[0]


class TestFlow:
    def test_linear_decay_rate(self):
        # dx/dt = -x from (1, 1): |x(1)| = e^-1 within 1 percent
        fld = PolyMap([-x(2, 0), -x(2, 1)])
        box = BoxSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0))
        trace = trace_one(fld, [1.0, 1.0], dt=1e-3, t_max=1.0,
                          box=box, targets=[])
        assert trace["classified"] == "max_time_reached"
        assert trace["timeout_reason"] == "t_max"
        expected = math.exp(-1.0)
        for c in trace["end"]:
            assert abs(c - expected) <= 0.01 * expected

    def test_convergence_to_target(self):
        fld = PolyMap([-x(2, 0), -x(2, 1)])
        box = BoxSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0))
        trace = trace_one(fld, [1.0, -1.0], dt=1e-2, t_max=50.0,
                          box=box, targets=[(0.0, 0.0)])
        assert trace["classified"] == "converged_to"
        assert trace["converged_index"] == 0

    def test_saddle_field_generic_start(self):
        sf = build_saddle_field(PointSet(2, [[-1, 0], [1, 0]]))
        box = BoxSpec(lower=(-2.0, -1.0), upper=(2.0, 1.0))
        targets = [(-1.0, 0.0), (1.0, 0.0)]
        trace = trace_one(sf.field, [0.1, 0.5], dt=1e-2, t_max=100.0,
                          box=box, targets=targets)
        assert trace["classified"] == "converged_to"
        assert trace["converged_index"] == 1

    def test_saddle_field_separatrix_start(self):
        # the stable manifold of the saddle at 0 is the x1 = 0 line
        sf = build_saddle_field(PointSet(2, [[-1, 0], [1, 0]]))
        box = BoxSpec(lower=(-2.0, -1.0), upper=(2.0, 1.0))
        trace = trace_one(sf.field, [0.0, 0.5], dt=1e-2, t_max=100.0,
                          box=box, targets=[(-1.0, 0.0), (1.0, 0.0)])
        assert trace["classified"] == "max_time_reached"
        assert abs(trace["end"][0]) <= 1e-12
        assert abs(trace["end"][1]) <= 1e-3

    def test_basin_sample_full_convergence(self):
        sf = build_saddle_field(PointSet(2, [[-1, 0], [1, 0]]))
        box = BoxSpec(lower=(-2.0, -1.0), upper=(2.0, 1.0))
        starts = sample_box(box, 200, np.random.default_rng(3))
        res = integrate_batch(sf.field, starts, box, [(-1.0, 0.0), (1.0, 0.0)],
                              FlowConfig(dt=1e-2, t_max=200.0))
        assert res.num_diverged == 0
        assert res.fraction_converged >= 0.99

    def test_basin_sample_is_reproducible(self):
        fld = PolyMap([-x(2, 0), -x(2, 1)])
        box = BoxSpec(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        a, b = (
            integrate_batch(fld, sample_box(box, 20, np.random.default_rng(7)),
                            box, [(0.0, 0.0)], FlowConfig(dt=1e-2, t_max=30.0))
            for _ in range(2)
        )
        assert np.array_equal(a.starts, b.starts)
        assert np.array_equal(a.status, b.status)

    def test_lyapunov_tracking(self):
        res = synthesize(PointSet(2, [[0, 0]]))
        box = BoxSpec.from_points(res.input.points)
        starts = sample_box(box, 50, np.random.default_rng(1))
        out = integrate_batch(res.grad_field, starts, box, res.input.points,
                              FlowConfig(dt=1e-2, t_max=100.0), lyap=res.p_poly)
        assert float(out.max_step_increase.max()) <= 1e-9

    def test_stiff_quadratic_converges_off_axis(self):
        # dt = 0.15 is past the explicit RK4 stability limit along y for
        # P = x^2 + 10 y^2; a fixed step there overshoots and hovers in a
        # sub-tolerance Lyapunov wiggle until t_max
        p = x(2, 0) ** 2 + 10 * x(2, 1) ** 2
        fld = descent_field(p)
        box = BoxSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0))
        out = integrate_batch(fld, [[0.5, 0.3], [-1.5, 1.0]], box, [(0.0, 0.0)],
                              FlowConfig(dt=0.15, t_max=10.0), lyap=p)
        assert (out.status == STATUS_CONVERGED).all()
        assert float(out.max_step_increase.max()) <= 1e-9
        assert all(trace["rejected_steps"] > 0 for trace in out.traces())

    def test_timeout_reasons(self, monkeypatch):
        fld = PolyMap([-x(2, 0), -x(2, 1)])
        box = BoxSpec(lower=(-2.0, -2.0), upper=(2.0, 2.0))
        starts = [[1.0, 1.0], [0.0, 0.0]]
        out = integrate_batch(fld, starts, box, [(0.0, 0.0)], FlowConfig(dt=1e-2, t_max=1.0))
        assert [t["timeout_reason"] for t in out.traces()] == ["t_max", None]
        monkeypatch.setattr(verify, "MAX_ATTEMPTS", 5)
        out = integrate_batch(fld, starts, box, [(0.0, 0.0)], FlowConfig(dt=1e-2, t_max=50.0))
        trace = out.traces()[0]
        assert trace["classified"] == "max_time_reached"
        assert trace["timeout_reason"] == "step_budget"
        assert trace["steps"] <= 5
        assert trace["steps"] + trace["rejected_steps"] == 5
        assert out.traces()[1]["timeout_reason"] is None
        assert out.traces()[1]["steps"] == out.traces()[1]["rejected_steps"] == 0

    @pytest.mark.parametrize("fn", [np.linalg.inv, np.linalg.solve])
    def test_lapack_singular_rows_are_nan(self, fn):
        # a regular row's result is the same bits in any batch; an exactly
        # singular row comes back NaN, and a row with a NaN entry non-finite,
        # without raising (LAPACK raises at the first NaN matrix, not at the
        # second)
        a = np.array([[0.3, 0.7], [1.1, -0.2]])
        s = np.array([[1.0, 2.0], [0.5, 1.0]])
        rhs = () if fn is np.linalg.inv else (np.array([[0.25], [-3.0]]),)

        def run(*mats):
            return verify._lapack(fn, np.stack(mats), *(np.stack([r] * len(mats)) for r in rhs))

        alone = run(a)[0]
        assert np.array_equal(alone, fn(a, *rhs))
        for out, i, j in [(run(a, s), 0, 1), (run(s, a), 1, 0)]:
            assert np.array_equal(out[i], alone)
            assert np.isnan(out[j]).all()
        for nan in ([[np.nan, 1.0], [1.0, 1.0]], [[1.0, np.nan], [1.0, 1.0]]):
            out = run(np.array(nan), a)
            assert not np.isfinite(out[0]).any()
            assert np.array_equal(out[1], alone)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_batch_rows_match_single_runs(self, monkeypatch, dim):
        # a first step of 0.15 against a stiffest rate of 2e6 is rejected by
        # the error test and shrunk; the 1e5 scale lifts the float noise of
        # P near its minimum to ~4e-12, so some accepted steps record a
        # sub-tolerance Lyapunov increase; rows converge after different
        # numbers of steps (in the plane two of them alike), and the start at
        # the minimum after none
        centre = (rat("1/3"), rat("1/7"), rat("-1/5"))[:dim]
        weights = (1, 10, 3)
        p = 10 ** 5 * sum(weights[i] * (x(dim, i) - c) ** 2 for i, c in enumerate(centre))
        fld = descent_field(p)
        box = BoxSpec(lower=(-2.0,) * dim, upper=(2.0,) * dim)
        target = [tuple(float(c) for c in centre)]
        cfg = FlowConfig(dt=0.15, t_max=10.0)
        starts = np.array([[1.0, 0.0, 0.0], [1e-3, 0.0, 0.5], [-1.5, 0.0, -1.0], [0.5, 0.3, 0.2],
                           [-1.5, 1.0, 1.0], [0.0, 0.0, 0.0], [1 / 3, 1 / 7, -1 / 5]])[:, :dim]
        proposals, fused = [], []

        class CountingPoly(CompiledPoly):
            def __call__(self, pts):
                if self.shape == (dim,):  # the field alone: one midpoint per proposal
                    proposals.append(len(pts))
                else:  # the field, its Jacobian and the Lyapunov function
                    fused.append(len(pts))
                return super().__call__(pts)

        monkeypatch.setattr(verify, "CompiledPoly", CountingPoly)
        batch = integrate_batch(fld, starts, box, target, cfg, lyap=p)
        # one fused evaluation on all the starts, then one per proposal
        assert fused == [len(starts)] + proposals
        assert sum(proposals) > batch.steps.sum()  # some proposal was rejected
        converged = batch.status == STATUS_CONVERGED
        assert converged.all()
        assert len(set(batch.steps[converged])) == {2: 6, 3: 7}[dim]
        assert (batch.max_step_increase > 0).any()
        for i, start in enumerate(starts):
            one = integrate_batch(fld, start[None], box, target, cfg, lyap=p)
            assert np.array_equal(one.ends[0], batch.ends[i])
            assert one.steps[0] == batch.steps[i]
            assert one.max_step_increase[0] == batch.max_step_increase[i]


FLOW_SETS = {
    "one": (2, [[0, 0]]),
    "two": (2, [["-1/2", 0], ["1/2", "1/4"]]),
    "three": (2, [[-1, 0], [0, "1/4"], [1, "-1/4"]]),
    "n3": (3, [[0, 0, 0], ["1/2", "1/3", "-1/4"]]),
    "n4": (4, [[0, 0, 0, 0], ["1/2", "1/3", "-1/4", "1/5"]]),
}


@pytest.fixture(scope="module")
def flow_bundles():
    return {tag: synthesize(PointSet(n, pts)) for tag, (n, pts) in FLOW_SETS.items()}


def assert_same_flow(got, want):
    """Every BatchFlowResult field but attempts, bit for bit."""
    assert np.array_equal(got.starts, want.starts)
    assert np.array_equal(got.ends, want.ends, equal_nan=True)
    assert np.array_equal(got.status, want.status)
    assert np.array_equal(got.conv_idx, want.conv_idx)
    assert np.array_equal(got.steps, want.steps)
    assert np.array_equal(got.final_grad_norm, want.final_grad_norm, equal_nan=True)
    assert np.array_equal(got.max_step_increase, want.max_step_increase)
    assert np.array_equal(got.timeout_reason, want.timeout_reason)
    assert (got.attempts >= got.steps).all()


class TestFlowMatchesReference:
    """integrate_batch against the unfused loop that compacts on every pass."""

    @staticmethod
    def run_both(fld, starts, box, targets, cfg, lyap=None):
        got = integrate_batch(fld, starts, box, targets, cfg, lyap=lyap)
        want = reference_integrate_batch(fld, starts, box, targets, cfg, lyap=lyap)
        assert_same_flow(got, want)
        return got

    @pytest.mark.parametrize("tag", list(FLOW_SETS))
    @pytest.mark.parametrize("with_lyap", [False, True])
    def test_bundles(self, flow_bundles, tag, with_lyap):
        res = flow_bundles[tag]
        box = BoxSpec.from_points(res.input.points)
        # a grid over the box, one start at a target, one off the guard box
        starts = np.vstack([box.grid(4), [[float(c) for c in res.input.points[0]]],
                            [box.guard()[1] * 2]])
        got = self.run_both(res.grad_field, starts, box, res.input.points,
                            FlowConfig(dt=1e-2, t_max=50.0),
                            lyap=res.p_poly if with_lyap else None)
        assert got.status[-2] == STATUS_CONVERGED and got.steps[-2] == 0
        assert got.status[-1] == verify.STATUS_DIVERGED

    def test_non_symmetric_saddle_field(self):
        # two minima off the first axis: the pullback through the coordinate
        # change has a Jacobian that is not symmetric
        pts = [[0, 0], [1, 1]]
        sf = build_saddle_field(PointSet(2, pts))
        jac = sf.pullback.jacobian()
        assert jac[0][1] != jac[1][0]
        box = BoxSpec.from_points(pts)
        starts = np.vstack([sample_box(box, 30, np.random.default_rng(5)), [[0.5, 0.5]]])
        got = self.run_both(sf.pullback, starts, box, pts, FlowConfig(dt=1e-2, t_max=20.0))
        assert set(got.status.tolist()) >= {STATUS_CONVERGED, verify.STATUS_TIMEOUT}

    @pytest.mark.parametrize("with_lyap", [False, True])
    def test_rejected_first_steps(self, flow_bundles, with_lyap):
        res = flow_bundles["two"]
        box = BoxSpec.from_points(res.input.points)
        got = self.run_both(res.grad_field, box.grid(5), box, res.input.points,
                            FlowConfig(dt=0.3, t_max=50.0),
                            lyap=res.p_poly if with_lyap else None)
        assert (got.attempts > got.steps).all()

    @pytest.mark.parametrize("tag", ["two", "n3"])
    def test_attempt_budget(self, monkeypatch, flow_bundles, tag):
        monkeypatch.setattr(verify, "MAX_ATTEMPTS", 7)
        res = flow_bundles[tag]
        box = BoxSpec.from_points(res.input.points)
        got = self.run_both(res.grad_field, box.grid(3), box, res.input.points,
                            FlowConfig(dt=1e-2, t_max=50.0), lyap=res.p_poly)
        budget = got.timeout_reason == "step_budget"
        assert budget.any()
        assert (got.attempts[budget] == 7).all()
        assert (got.attempts <= 7).all()


def non_covering_witness(res):
    """The paper's non-covering remark made exact: on y = alpha/beta^2,
    Q(t, y, 0, ...) = -int alpha beta (t), which falls below min P(X) once t
    is large, so xi = F^-1(t, alpha(t)/beta(t)^2, 0, ...) for the first
    integer t past the largest root where it does.  Returns xi exactly."""
    alpha, beta, p = res.morse.alpha, res.morse.beta, res.p_poly
    lowest = min(p.eval_rational(pt) for pt in res.input.points)
    t = math.floor(max(res.change.axis_images)) + 1
    while True:
        b = beta.eval_rational([rat(t)])
        if b:
            z = [rat(t), alpha.eval_rational([rat(t)]) / (b * b)]
            xi = res.change.inverse.eval_rational(z + [rat(0)] * (res.dimension - 2))
            if p.eval_rational(xi) < lowest:
                return xi
        t += 1


@pytest.mark.parametrize("pts", [
    FLOW_SETS["two"][1],
    FLOW_SETS["three"][1],
    [["-3/2", 0], ["-1/2", "1/4"], ["1/2", 0], ["3/2", "-1/4"]],
    [[0, 0], [1, 1]],
])
def test_flow_from_the_non_covering_witness_never_converges(pts):
    # P decreases along the flow, so a start with P below min P(X) lies in
    # no basin of X; its orbit is unbounded and leaves the guard box
    res = synthesize(PointSet(2, pts))
    xi, points = non_covering_witness(res), res.input.points
    assert res.p_poly.eval_rational(xi) < min(res.p_poly.eval_rational(p) for p in points)
    box = BoxSpec.from_points(points)
    start = [float(c) for c in xi]
    lo, hi = box.guard()
    assert all(l <= c <= h for l, c, h in zip(lo, start, hi))
    cfg = FlowConfig(dt=1e-2, t_max=200.0)
    got = integrate_batch(res.grad_field, [start], box, points, cfg, lyap=res.p_poly)
    want = reference_integrate_batch(res.grad_field, [start], box, points, cfg, lyap=res.p_poly)
    assert_same_flow(got, want)
    assert got.status[0] != STATUS_CONVERGED


def parsed(res):
    """The bundle of a synthesis as `verify` reads it."""
    return serialize.parse_bundle(serialize.bundle_obj(res))


def plane_bundle(spec):
    """The bundle of the points (r, 0) over the roots r of spec.  On the
    axis the coordinate change is the identity, so P is the plane f."""
    res = synthesize(PointSet(2, [(r, 0) for r in spec.roots]))
    assert res.p_poly == build_pair(spec).f
    return parsed(res)


class TestCertify:
    def test_plane_pair_passes(self):
        spec = AlphaSpec(["-1/2", "1/2"])
        f = build_pair(spec).f
        bundle = plane_bundle(spec)
        report = certify(bundle, seeds_per_axis=30)
        assert report.overall_pass
        assert bundle.grad_field == PolyMap([-f.partial(0), -f.partial(1)])
        assert report.grad_field_consistent
        assert len(report.per_point) == 2
        for cert in report.per_point:
            assert cert.gradient_zero
            assert all(m > 0 for m in cert.minors)
            assert cert.minors == leading_principal_minors(cert.hessian)
        assert report.spurious.all_within_tol
        assert report.spurious.newton_recall == 1.0

    def test_report_serializes(self):
        import json

        report = certify(plane_bundle(AlphaSpec([0])), seeds_per_axis=20)
        json.dumps(report.to_obj())

    def test_coordinate_past_double_range_refused(self):
        bundle = plane_bundle(AlphaSpec([0]))
        far = dataclasses.replace(bundle, pointset=PointSet(2, [(rat(10 ** 400), rat(0))]))
        box = BoxSpec(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        with pytest.raises(CoefficientTooLarge):
            certify(far, box=box, seeds_per_axis=5)

    @pytest.mark.parametrize("tamper, flag", [
        ("hessian-entry", "hessians_match_bundle"),
        ("flipped-minor", "minors_match_bundle"),
        ("truncated-minors", "minors_match_bundle"),
        ("negated-field", "grad_field_consistent"),
    ])
    def test_tampered_claim_fails_the_verdict(self, tamper, flag):
        obj = serialize.bundle_obj(synthesize(PointSet(2, [["-1/2", "0"], ["1/2", "1/4"]])))
        flags = ("minors_match_bundle", "hessians_match_bundle", "grad_field_consistent")
        intact = certify(serialize.parse_bundle(obj), seeds_per_axis=30)
        assert intact.overall_pass
        assert all(getattr(intact, f) for f in flags)
        if tamper == "hessian-entry":
            obj["hessians"][0][0][0] = "-7"
        elif tamper == "flipped-minor":
            obj["minors"][0][0] = "-" + obj["minors"][0][0]
        elif tamper == "truncated-minors":
            del obj["minors"][1:]
        else:
            field = PolyMap.from_obj(obj["grad_field"])
            obj["grad_field"] = PolyMap([-c for c in field.components], 2).to_obj()
        report = certify(serialize.parse_bundle(obj), seeds_per_axis=30)
        assert report.overall_pass is False
        assert {f: getattr(report, f) for f in flags} == {f: f != flag for f in flags}
        assert all(c.passed for c in report.per_point)
        assert report.spurious.all_within_tol
        out = report.to_obj()
        assert out["overall_pass"] is False and out[flag] is False


def fresh_set(seed: int, n: int, k: int) -> PointSet:
    """k distinct integer points with coordinates in [-9, 9], drawn with
    random.Random(seed)."""
    rng = random.Random(seed)
    pts = set()
    while len(pts) < k:
        pts.add(tuple(rng.randint(-9, 9) for _ in range(n)))
    return PointSet(n, sorted(pts))


# an axis-aligned n = 3, k = 4 set whose census finds three of the minima
N3_K4_MISSED = BENCH_N3_SETS[3]


class TestCensusCounts:
    def test_blind_points_set_recall(self):
        # the float |grad P| at these four minima is 10 to 428, so the
        # census cannot accept any of them
        res = synthesize(fresh_set(1, 2, 4))
        assert len(res.p_poly.terms) == 60
        search = certify(parsed(res)).spurious
        assert search.blind == 4
        assert search.newton_recall == 0.0
        assert search.to_obj()["blind"] == 4

    def test_failed_polishes_counted(self):
        # float candidates 6-38 units from X whose exact |grad P| is large
        res = synthesize(fresh_set(2, 3, 6))
        assert len(res.p_poly.terms) == 97
        search = certify(parsed(res)).spurious
        assert search.polish_failed > 0
        assert search.to_obj()["polish_failed"] == search.polish_failed

    def test_missed_minimum_is_degraded(self):
        # no blind point and no failed polish, yet one minimum is never
        # reached: only coverage and degraded show the loss
        res = synthesize(PointSet(3, N3_K4_MISSED))
        search = certify(parsed(res)).spurious
        assert (search.blind, search.polish_failed, search.newton_recall) == (0, 0, 0.75)
        obj = search.to_obj()
        assert obj["degraded"] is True
        lost = (search.abandoned + search.singular) / search.seeds_used
        assert obj["coverage"] == pytest.approx(1 - lost, abs=1e-12)
        assert obj["coverage"] < 0.05

    def test_acceptance_plane_sets_report_none(self):
        for pts in PLANE_INSTANCES:
            res = synthesize(PointSet(2, pts))
            search = certify(parsed(res)).spurious
            assert (search.blind, search.polish_failed, search.newton_recall) == (0, 0, 1.0)
            assert search.to_obj()["degraded"] is False
            assert 0 < search.to_obj()["coverage"] <= 1
