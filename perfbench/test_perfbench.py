"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py
"""

import math
import time
import types
from fractions import Fraction

import pytest

import measure
import spans
import workloads
from measure import Execution


class TestSelfTime:
    # a(0-10) > b(1-4) > d(2-3);  a > c(5-7);  e(11-12) at top level
    NAMES = ["a", "b", "d", "c", "e"]
    PARENTS = [-1, 0, 1, 0, -1]
    STARTS = [0.0, 1.0, 2.0, 5.0, 11.0]
    ENDS = [10.0, 4.0, 3.0, 7.0, 12.0]

    def test_self_time_subtracts_direct_children(self):
        st = spans.span_stats(self.NAMES, self.PARENTS, self.STARTS, self.ENDS)
        assert st["a"]["self_s"] == pytest.approx(10 - 3 - 2)
        assert st["b"]["self_s"] == pytest.approx(3 - 1)
        assert st["d"]["self_s"] == pytest.approx(1)
        total_self = sum(v["self_s"] for v in st.values())
        assert total_self == pytest.approx(10 + 1)

    def test_recursive_spans_counted_once_in_total(self):
        st = spans.span_stats(["f", "f"], [-1, 0], [0.0, 1.0], [5.0, 3.0])
        assert st["f"]["calls"] == 2
        assert st["f"]["s"] == pytest.approx(5)
        assert st["f"]["self_s"] == pytest.approx(5)

    def test_seconds_under_ancestor(self):
        args = (self.NAMES, self.PARENTS, self.STARTS, self.ENDS)
        assert spans.seconds_under("d", "a", *args) == pytest.approx(1)
        assert spans.seconds_under("e", "a", *args) == 0.0

    def test_tracer_records_nesting_and_restores(self):
        def inner():
            return 1

        ns = types.SimpleNamespace(inner=inner)
        tracer = spans.Tracer()
        tracer.hook(ns, "inner", "inner")
        tracer.hook(ns, "missing", "gone")
        outer = tracer.wrap(lambda: ns.inner() + 1, "outer")
        assert outer() == 2
        assert tracer.names == ["outer", "inner"]
        assert tracer.parents == [-1, 0]
        assert tracer.absent == ["gone"]
        tracer.remove()
        assert ns.inner is inner


class TestRecall:
    MINIMA = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]

    def test_duplicates_near_one_minimum_count_once(self):
        reported = [(0.0, 0.0), (1e-9, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        assert measure.matched_minima(self.MINIMA, reported, 1e-6) == 4

    def test_missing_and_far_points(self):
        reported = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2.0, 2.0)]
        assert measure.matched_minima(self.MINIMA, reported, 1e-6) == 3
        assert measure.matched_minima(self.MINIMA, [], 1e-6) == 0

    def test_tolerance_is_inclusive(self):
        assert measure.matched_minima([(0.0,)], [(0.5,)], 0.5) == 1
        assert measure.matched_minima([(0.0,)], [(0.5,)], 0.4) == 0


class TestPercentiles:
    def test_percentile_interpolates(self):
        xs = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert measure.percentile(xs, 50) == 3.0
        assert measure.percentile(xs, 0) == 1.0
        assert measure.percentile(xs, 100) == 5.0
        assert measure.percentile(xs, 75) == 4.0
        assert measure.percentile([1.0, 2.0], 50) == 1.5

    @pytest.mark.parametrize("samples, expected", [
        (9, None), (19, None), (40, 75.0), (99, 75.0), (100, 90.0),
        (200, 95.0), (1000, 99.0), (10000, 99.9),
    ])
    def test_tail_needs_ten_samples_beyond(self, samples, expected):
        assert measure.tail_percentile(samples) == expected


class TestAccounting:
    def test_deadline_counts_as_failed_but_not_as_slowest(self):
        passes = [
            [Execution(1.0), Execution(6.0, "deadline"), Execution(2.0)],
            [Execution(1.2), Execution(6.0, "deadline"), Execution(2.2)],
            [Execution(0.8), Execution(6.0, "deadline"), Execution(1.8)],
        ]
        s = measure.summarize(passes)
        assert s["attempted"] == 9
        assert s["failed"] == 3
        assert s["failed_frac"] == pytest.approx(1 / 3)
        assert s["failure_causes"] == {"deadline": 3}
        assert s["job_max_s"] == pytest.approx(2.0)
        assert s["wall_s"] == pytest.approx(1.0 + 6.0 + 2.0)
        assert s["job_p50_s"] == pytest.approx(2.0)
        assert s["passes"] == 3
        assert s["job_time_tail"] is None

    def test_job_failing_in_one_pass_is_not_completed(self):
        passes = [[Execution(5.0)], [Execution(5.0, "exit:3")]]
        s = measure.summarize(passes)
        assert math.isnan(s["job_max_s"])
        assert s["failed"] == 1


class TestDeadline:
    def test_stops_a_job_past_its_deadline(self):
        def spin():
            while True:
                pass

        value, cause, elapsed = measure.run_with_deadline(spin, 0.2)
        assert cause == "deadline" and value is None
        assert 0.2 <= elapsed < 2.0

    def test_fast_job_returns_its_value(self):
        value, cause, elapsed = measure.run_with_deadline(lambda: 7, 5.0)
        assert (value, cause) == (7, None)
        time.sleep(0.05)  # the cancelled alarm must not fire later

    def test_exception_and_exit_code(self):
        def boom():
            raise ValueError("x")

        def exits():
            raise SystemExit(2)

        assert measure.run_with_deadline(boom, 5.0)[1] == "exception:ValueError"
        assert measure.run_with_deadline(exits, 5.0)[:2] == (2, None)

    def test_program_except_exception_cannot_swallow_the_deadline(self):
        def stubborn():
            try:
                while True:
                    pass
            except Exception:
                return "swallowed"

        assert measure.run_with_deadline(stubborn, 0.1)[1] == "deadline"


class TestWorkloads:
    def test_same_seed_same_inputs(self, tmp_path):
        for name in ("synth", "verify", "flow"):
            a, b, c = (tmp_path / f"{name}{i}" for i in range(3))
            for d in (a, b, c):
                d.mkdir()
            wa = workloads.build(name, 5, a)
            wb = workloads.build(name, 5, b)
            wc = workloads.build(name, 6, c)
            assert list(wa.inputs.values()) == list(wb.inputs.values())
            assert list(wa.inputs.values()) != list(wc.inputs.values())

    def test_point_set_kinds(self):
        import random

        rng = random.Random(1)
        sheared = workloads.point_set(rng, 3, 4, True)
        assert len({p[0] for p in sheared}) == 1 and len(set(sheared)) == 4
        axis = workloads.point_set(rng, 3, 8, False)
        assert len({p[0] for p in axis}) == 8

    def test_derivatives_at(self):
        # p = 3 x^2 y - y^3/2 + 1/3
        terms = [((2, 1), Fraction(3)), ((0, 3), Fraction(-1, 2)), ((0, 0), Fraction(1, 3))]
        x = (Fraction(1, 2), Fraction(-2, 3))
        px, py, pxx, pxy, pyy, p = workloads.derivatives_at(
            terms, x, [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (0, 0)])
        X, Y = x
        assert p == 3 * X**2 * Y - Y**3 / 2 + Fraction(1, 3)
        assert px == 6 * X * Y
        assert py == 3 * X**2 - Fraction(3, 2) * Y**2
        assert (pxx, pxy, pyy) == (6 * Y, 6 * X, -3 * Y)

    def test_det(self):
        m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
        assert workloads.det(m) == 5
        assert workloads.det([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == -1
