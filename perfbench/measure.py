"""Timing, deadline and accounting helpers shared by the benchmark.

Nothing here imports morseforge, so the helpers can be tested on their own.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence

# percentiles considered for the tail of a timing distribution, highest last
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


# On a shared 2-core 2.1 GHz virtual machine, speed swings by up to 60% over
# phases of seconds to minutes (the same synthesize call measured 0.24 s and
# 0.40 s in one process), and process CPU time swings with it.  The
# benchmark therefore times a fixed reference computation next to every job
# and scales each job's time by REFERENCE_NOMINAL_S / (reference time nearby):
# times are reported in seconds at the reference speed, and the raw
# wall-clock times are kept in the details.
REFERENCE_NOMINAL_S = 0.02


def at_reference_speed(raw: float, reference: float) -> float:
    """Scale a wall time measured while the reference took `reference`."""
    return raw * REFERENCE_NOMINAL_S / reference


def reference_seconds() -> float:
    """Time one fixed computation of the kinds morseforge does: rational and
    integer arithmetic, and numpy calls on small arrays."""
    import numpy as np
    from numpy.polynomial import polynomial as npp

    coef = np.arange(1.0, 26.0).reshape(5, 5)
    pts = np.linspace(-1.0, 1.0, 16).reshape(8, 2)
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1)
    x = 0
    for i in range(60000):
        x += i * i
    for _ in range(150):
        v = npp.polyval2d(pts[:, 0], pts[:, 1], coef)
        np.linalg.norm(pts + v[:, None], axis=1)
    return time.perf_counter() - start


class DeadlineExceeded(BaseException):
    """Raised inside a job that ran past its deadline.

    A BaseException, so that the program's own ``except Exception`` handlers
    cannot swallow it and keep the job running."""


class _Alarm:
    def __init__(self):
        self.armed = False

    def fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise DeadlineExceeded()


def run_with_deadline(fn: Callable[[], object], seconds: float):
    """Call fn() in this thread and stop it after `seconds` of wall time.

    Returns (value, cause, elapsed).  cause is None when fn returned,
    "deadline" when it was stopped, and "exception:<type>" when it raised.
    A SystemExit (argparse errors) is returned as its exit code.  Uses
    SIGALRM, so it must run in the main thread."""
    alarm = _Alarm()
    previous = signal.signal(signal.SIGALRM, alarm.fire)
    value, cause = None, None
    start = time.perf_counter()
    try:
        try:
            alarm.armed = True
            signal.setitimer(signal.ITIMER_REAL, seconds)
            value = fn()
        except DeadlineExceeded:
            cause = "deadline"
        except SystemExit as exc:
            value = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crashing job is a counted failure
            cause = f"exception:{type(exc).__name__}"
        finally:
            alarm.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        # the alarm landed in a handler above, after the job had run out
        cause = "deadline"
    elapsed = time.perf_counter() - start
    signal.signal(signal.SIGALRM, previous)
    return value, cause, elapsed


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples: int) -> Optional[float]:
    """Highest percentile of TAIL_LADDER with at least TAIL_MIN_BEYOND
    samples beyond it, or None when there are too few samples."""
    best = None
    for q in TAIL_LADDER:
        if round(samples * (100.0 - q), 6) >= 100 * TAIL_MIN_BEYOND:
            best = q
    return best


def matched_minima(minima: Iterable[Sequence[float]],
                   reported: Sequence[Sequence[float]], tol: float) -> int:
    """Number of distinct prescribed minima that lie within tol of some
    reported point.  Several reported points near one minimum count once."""
    return sum(
        1 for m in minima if any(math.dist(m, r) <= tol for r in reported)
    )


@dataclass
class Execution:
    """One run of one job: its time at the reference speed, its raw wall
    time, and why it failed, if it did."""

    elapsed: float
    cause: Optional[str] = None
    raw: float = 0.0


def summarize(passes: List[List[Execution]]) -> dict:
    """Reduce per-pass, per-job executions to the timing metrics.

    passes[p][j] is job j in pass p.  Job times are medians over passes, and
    wall_s, the time of one pass, is their sum: a burst of machine noise in
    one pass then moves neither.  job_max_s takes only jobs that completed
    in every pass, so a deadline shows in failed_frac and wall_s, not as the
    slowest job."""
    njobs = len(passes[0])
    walls = [sum(e.elapsed for e in row) for row in passes]
    per_job = [median([row[j].elapsed for row in passes]) for j in range(njobs)]
    completed = [
        per_job[j] for j in range(njobs)
        if all(row[j].cause is None for row in passes)
    ]
    pooled = [e.elapsed for row in passes for e in row]
    attempted = len(pooled)
    failed = sum(1 for row in passes for e in row if e.cause is not None)
    causes: dict = {}
    for row in passes:
        for e in row:
            if e.cause is not None:
                causes[e.cause] = causes.get(e.cause, 0) + 1
    tail_q = tail_percentile(attempted)
    return {
        "wall_s": sum(per_job),
        "job_p50_s": median(per_job),
        "job_max_s": max(completed) if completed else float("nan"),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failure_causes": causes,
        "passes": len(passes),
        "pass_walls_s": walls,
        "job_time_samples": attempted,
        "job_time_tail": (
            {"percentile": tail_q, "value_s": percentile(pooled, tail_q)}
            if tail_q is not None else None
        ),
    }
