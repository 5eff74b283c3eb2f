import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseforge import verify
from morseforge._rat import rat
from morseforge.coord_change import PointSet
from morseforge.exactmat import leading_principal_minors
from morseforge.morse_scalar import AlphaSpec, build_pair
from morseforge.numeric import CoefficientTooLarge, CompiledPoly
from morseforge.poly import MultiPoly, PolyMap
from morseforge.synth import build_saddle_field, synthesize
from morseforge.verify import (
    STATUS_CONVERGED,
    BoxSpec,
    FlowConfig,
    GridTooLarge,
    certify,
    field_jacobian,
    integrate_batch,
    newton_search,
)
from oracles import eigen_signs, fd_gradient_check_batch, reference_integrate_batch, sample_box
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
    grad = PolyMap([-res.p_poly.partial(i) for i in range(res.p_poly.dim)])
    return grad, BoxSpec.from_points(res.input.points), res.input.points


def polish_every_representative(grad, candidates):
    """The census without the skip rule: polish every representative, then
    dedup the polished points."""
    grad_hess = field_jacobian(grad)
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
        grad_hess = field_jacobian(grad)
        first_come, polishes = [], []
        recording(monkeypatch, "_first_come", first_come)
        recording(monkeypatch, "_polish_exact", polishes,
                  lambda k, polish, grad, _, x0: polish(grad, grad_hess, x0))

        def singular_at_candidates(field):
            evaluate = field_jacobian(field)

            def singular(pts):
                g, jac = evaluate(pts)
                small = np.linalg.norm(g, axis=-1) < verify.COARSE_TOL
                return g, np.where(small[..., None, None], 0.0, jac)

            return singular

        monkeypatch.setattr(verify, "field_jacobian", singular_at_candidates)
        found = newton_search(grad, box, 100).points
        reps = verify._dedup(first_come[0][0], verify.DEDUP_TOL)
        assert len(polishes) == len(reps) > 2
        assert all(np.array_equal(args[2], rep) for args, rep in zip(polishes, reps))
        want = polish_every_representative(grad, first_come[0][0])
        assert all(np.array_equal(a, b) for a, b in zip(found, want))


def gradient_map(dim: int) -> PolyMap:
    rng = random.Random(dim)
    terms = []
    for _ in range(40):
        exps = [0] * dim
        for _ in range(rng.randint(0, 8)):
            exps[rng.randrange(dim)] += 1
        terms.append((tuple(exps), rat(rng.randint(-99, 99), rng.randint(1, 99))))
    p = MultiPoly(dim, terms)
    return PolyMap([-p.partial(i) for i in range(dim)], dim)


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
        g, jac = field_jacobian(grad)(pts)
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
        f, jac = field_jacobian(fld)(pts)
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
        g, jac, v = field_jacobian(grad, lyap)(pts)
        want_g, want_jac = separately(grad, pts)
        assert np.array_equal(g, want_g)
        assert np.array_equal(jac, want_jac)
        assert np.array_equal(v, CompiledPoly(lyap)(pts))

    def test_jacobian_of_a_map(self):
        x0, x1, x2 = (x(3, i) for i in range(3))
        f, jac = field_jacobian(PolyMap([x0 * x1 - x2 ** 2, x0 ** 3, x1 + 1]))(
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
        fld = PolyMap([-p.partial(0), -p.partial(1)])
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
        fld = PolyMap([-p.partial(i) for i in range(dim)])
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


class TestCertify:
    def test_plane_pair_passes(self):
        spec = AlphaSpec(["-1/2", "1/2"])
        pts = [(r, rat(0)) for r in spec.roots]
        f = build_pair(spec).f
        report = certify(points=pts, p=f, seeds_per_axis=30)
        assert report.overall_pass
        assert report.grad == PolyMap([-f.partial(0), -f.partial(1)])
        assert len(report.per_point) == 2
        for cert in report.per_point:
            assert cert.gradient_zero
            assert all(m > 0 for m in cert.minors)
            assert cert.minors == leading_principal_minors(cert.hessian)
        assert report.spurious.all_within_tol
        assert report.spurious.newton_recall == 1.0

    def test_report_serializes(self):
        import json

        pair = build_pair(AlphaSpec([0]))
        report = certify(points=[(rat(0), rat(0))], p=pair.f, seeds_per_axis=20)
        json.dumps(report.to_obj())

    def test_coordinate_past_double_range_refused(self):
        pair = build_pair(AlphaSpec([0]))
        box = BoxSpec(lower=(-1.0, -1.0), upper=(1.0, 1.0))
        with pytest.raises(CoefficientTooLarge):
            certify(points=[(rat(10 ** 400), rat(0))], p=pair.f, box=box, seeds_per_axis=5)
