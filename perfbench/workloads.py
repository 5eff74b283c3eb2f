"""The benchmark's workloads: generated inputs, job lists and output checks.

Every job is one ``morseforge`` CLI command.  The program sees only the
files written here; the checks below re-derive what they need from those
files with their own exact arithmetic and do not call the program.

Input generation is fixed per workload (n, k, coordinate height, shear):

* ``synth`` draws fresh point sets from the run seed.  Synthesis cost
  depends on n, k and the kind of set, not on the particular coordinates,
  so fresh draws keep runs comparable across seeds.
* ``verify`` and ``flow`` do Newton and RK4 work whose cost depends on the
  geometry of the minima: a single n=3, k=2 sheared verify ranged from 13 s
  to 85 s over fresh draws.  These workloads therefore use fixed base sets
  (the acceptance fixtures, and n=3 shapes drawn once from BASE_SEED).
  ``flow`` translates every set by a rational vector drawn from the run
  seed: coordinates and coefficients change, the geometry and the RK4 work
  do not.  Newton is more sensitive: under such translations the slowest
  verify job varied by a quarter between seeds, as float rounding decided
  whether a fourth minimum was found.  ``verify`` therefore keeps its sets
  and the seed only shuffles the order of the n=3 points, which changes the
  files but not the polynomial or the work.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from measure import matched_minima

Point = Tuple[Fraction, ...]

# generator bounds: coordinates are p/q with |p| <= NUM_MAX, 1 <= q <= DEN_MAX
NUM_MAX = 2
DEN_MAX = 4
# translations applied by the run seed: components j/8 with |j| <= 4
SHIFT_DEN = 8
SHIFT_NUM_MAX = 4
BASE_SEED = 0

# acceptance fixtures (tests/test_acceptance.py)
PLANE_INSTANCES = [
    [[0, 0]],
    [["1/2", "1/3"]],
    [["-1/2", 0], ["1/2", "1/4"]],
    [[0, 0], [0, 1]],
    [[0, 0], [1, 1]],
    [["-1/3", "1/5"], ["2/3", 0]],
    [[-1, 0], [0, "1/4"], [1, "-1/4"]],
    [[0, 0], ["1/2", 0], [1, "1/2"]],
    [[0, "-1/2"], [0, "1/2"]],
    [["-3/2", 0], ["-1/2", "1/4"], ["1/2", 0], ["3/2", "-1/4"]],
]
FLOW_INSTANCES = [
    [[0, 0]],
    [["-1/2", 0], ["1/2", "1/4"]],
]
# export-grid on this bundle does not finish: |grad P| ~ 5e8 at the box
# corners and one unguarded step halves down to depth 40.  It stays in the
# flow workload so that the defect shows as a deadline failure.
THREE_POINT = [[-1, 0], [0, "1/4"], [1, "-1/4"]]

SYNTH_AXIS = [(n, k) for n in (2, 3, 5) for k in (1, 4, 8)]
SYNTH_SHEARED = [(2, 4), (2, 8), (3, 3), (3, 4)]
VERIFY_N3_K = (1, 2, 3, 4)  # axis-aligned n=3 sets

GRID_RESOLUTION = 8
GRID_T_MAX = "50"
FLOW_DT = "1e-2"
# flow starts at this offset from the centroid of the point set
FLOW_OFFSET = (-0.9, 0.6)

# spurious_tol of `verify`, used to match reported points to the minima
SPURIOUS_TOL = 1e-6

# per-job deadline of each workload: twice (flow) to four times its slowest
# job as measured on a 2-core 2.1 GHz machine
DEADLINE_S = {"synth": 5.0, "verify": 10.0, "flow": 5.0}


def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-NUM_MAX, NUM_MAX), rng.randint(1, DEN_MAX))


def point_set(rng: random.Random, n: int, k: int, sheared: bool) -> List[Point]:
    """k distinct points in Q^n.

    Axis-aligned sets have distinct first coordinates, so the program's
    separating direction is t=0 (no linear change).  Sheared sets share the
    first coordinate and have distinct coordinate sums, so the direction is
    t=1, a dense linear change.  The direction's entries t^j multiply the
    coordinates, so fixing t keeps coefficient growth alike across seeds."""
    pts = set()
    if sheared:
        x1 = rational(rng)
        sums = set()
        while len(pts) < k:
            p = (x1,) + tuple(rational(rng) for _ in range(n - 1))
            if sum(p) not in sums:
                sums.add(sum(p))
                pts.add(p)
    else:
        firsts = set()
        while len(firsts) < k:
            firsts.add(rational(rng))
        for x1 in sorted(firsts):
            pts.add((x1,) + tuple(rational(rng) for _ in range(n - 1)))
    return sorted(pts)


def shift_vector(rng: random.Random, n: int) -> Point:
    return tuple(
        Fraction(rng.randint(-SHIFT_NUM_MAX, SHIFT_NUM_MAX), SHIFT_DEN)
        for _ in range(n)
    )


def translated(points: Sequence[Sequence], shift: Point) -> List[Point]:
    return [tuple(Fraction(c) + s for c, s in zip(p, shift)) for p in points]


def point_set_obj(points: Sequence[Point]) -> dict:
    return {"dimension": len(points[0]), "points": [[str(c) for c in p] for p in points]}


# ------------------------------------------------------------------ jobs


@dataclass
class Job:
    """One CLI invocation and what its output is checked against."""

    label: str
    command: str
    argv: List[str]
    output: Path
    points: List[Point]
    expected_codes: Tuple[int, ...] = (0,)
    trajectories: int = 0


@dataclass
class Workload:
    name: str
    deadline_s: float
    inputs: Dict[Path, bytes]
    setup: List[List[str]]
    setup_outputs: List[Path]
    jobs: List[Job] = field(default_factory=list)


def build(name: str, seed: int, work: Path) -> Workload:
    """The workload's inputs (written to files under work) and job list."""
    builders = {"synth": _synth, "verify": _verify, "flow": _flow}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}")
    wl = Workload(name, DEADLINE_S[name], {}, [], [])
    builders[name](wl, random.Random(seed), work)
    for path, data in wl.inputs.items():
        path.write_bytes(data)
    return wl


def _add_points(wl: Workload, work: Path, tag: str, points: List[Point]) -> Path:
    path = work / f"{tag}.points.json"
    wl.inputs[path] = (json.dumps(point_set_obj(points)) + "\n").encode()
    return path


def _add_bundle(wl: Workload, work: Path, tag: str, points: List[Point]) -> Path:
    src = _add_points(wl, work, tag, points)
    bundle = work / f"{tag}.bundle.json"
    wl.setup.append(["synthesize", "-i", str(src), "-o", str(bundle)])
    wl.setup_outputs.append(bundle)
    return bundle


def _synth(wl: Workload, rng: random.Random, work: Path) -> None:
    sets = [(n, k, False) for n, k in SYNTH_AXIS] + [(n, k, True) for n, k in SYNTH_SHEARED]
    for n, k, sheared in sets:
        pts = point_set(rng, n, k, sheared)
        tag = f"n{n}k{k}{'s' if sheared else 'a'}"
        src = _add_points(wl, work, tag, pts)
        for command, suffix in (("synthesize", "bundle"), ("saddle-field", "saddle")):
            out = work / f"{tag}.{suffix}.json"
            wl.jobs.append(Job(f"{command} {tag}", command,
                               [command, "-i", str(src), "-o", str(out)], out, pts))


def _verify(wl: Workload, rng: random.Random, work: Path) -> None:
    sets = [(f"plane{i}", [tuple(Fraction(c) for c in p) for p in inst])
            for i, inst in enumerate(PLANE_INSTANCES)]
    base_rng = random.Random(BASE_SEED)
    for k in VERIFY_N3_K:
        pts = point_set(base_rng, 3, k, False)
        rng.shuffle(pts)
        sets.append((f"n3k{k}a", pts))
    for tag, pts in sets:
        bundle = _add_bundle(wl, work, tag, pts)
        out = work / f"{tag}.report.json"
        wl.jobs.append(Job(f"verify {tag}", "verify",
                           ["verify", "-i", str(bundle), "-o", str(out)], out, pts))


def _flow(wl: Workload, rng: random.Random, work: Path) -> None:
    shift = shift_vector(rng, 2)
    named = [("one", FLOW_INSTANCES[0]), ("two", FLOW_INSTANCES[1]), ("three", THREE_POINT)]
    bundles = {}
    for tag, inst in named:
        pts = translated(inst, shift)
        bundles[tag] = (_add_bundle(wl, work, tag, pts), pts)
    for tag, (bundle, pts) in bundles.items():
        out = work / f"{tag}.grid.csv"
        wl.jobs.append(Job(
            f"export-grid {tag}", "export-grid",
            ["export-grid", "-i", str(bundle), "-o", str(out),
             "--resolution", str(GRID_RESOLUTION), "--t-max", GRID_T_MAX],
            out, pts, trajectories=GRID_RESOLUTION ** 2))
    for tag in ("one", "two"):
        bundle, pts = bundles[tag]
        x, y = (float(sum(p[i] for p in pts) / len(pts)) + FLOW_OFFSET[i] for i in range(2))
        out = work / f"{tag}.flow.json"
        # --start=<x,y>: argparse would read "--start -0.5,0.1" as a flag
        wl.jobs.append(Job(
            f"flow {tag}", "flow",
            ["flow", "-i", str(bundle), "-o", str(out), f"--start={x!r},{y!r}", "--dt", FLOW_DT],
            out, pts, expected_codes=(0, 1), trajectories=1))


# ---------------------------------------------------------------- checks


@dataclass
class Check:
    """Outcome of checking one job's output."""

    cause: Optional[str] = None
    minima: int = 0
    matched: int = 0
    trajectories: int = 0
    converged: int = 0


def check(job: Job, code) -> Check:
    """Check a finished job's exit code and output."""
    if code not in job.expected_codes:
        return Check(cause=f"exit:{code}", trajectories=job.trajectories)
    try:
        return _CHECKS[job.command](job, code)
    except (OSError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return Check(cause=f"check:unreadable output ({type(exc).__name__})",
                     trajectories=job.trajectories)


def _terms(poly_obj) -> List[Tuple[Tuple[int, ...], Fraction]]:
    return [(tuple(t["exponents"]), Fraction(int(t["num"]), int(t["den"])))
            for t in poly_obj["terms"]]


def derivatives_at(terms, x: Sequence[Fraction], orders: Sequence[Sequence[int]]) -> List[Fraction]:
    """Exact mixed partial derivatives of a polynomial at a rational point;
    orders[m][i] is how often derivative m differentiates in variable i.

    Works in integers: with x = a/q and L the lcm of the coefficient
    denominators, L q^D times each derivative is an integer sum."""
    q = math.lcm(*(c.denominator for c in x))
    a = [int(c * q) for c in x]
    big_l = math.lcm(*(c.denominator for _, c in terms)) if terms else 1
    deg = max((sum(e) for e, _ in terms), default=0)
    scaled = [(e, c.numerator * (big_l // c.denominator)) for e, c in terms]
    qpow = [q ** d for d in range(deg + 1)]
    apow = [[ai ** d for d in range(deg + 1)] for ai in a]
    out = []
    for order in orders:
        total = 0
        for exps, coef in scaled:
            value, left = coef, 0
            for e, o, powers in zip(exps, order, apow):
                if e < o:
                    break
                if o:
                    value *= math.perm(e, o)
                value *= powers[e - o]
                left += e - o
            else:
                total += value * qpow[deg - left]
        out.append(Fraction(total, big_l * qpow[deg]))
    return out


def det(matrix: List[List[Fraction]]) -> Fraction:
    a = [list(row) for row in matrix]
    n, result = len(a), Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = -result
        result *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for cc in range(c, n):
                a[r][cc] -= f * a[c][cc]
    return result


def _unit(n: int, *idx: int) -> List[int]:
    v = [0] * n
    for i in idx:
        v[i] += 1
    return v


def _check_synthesize(job: Job, code) -> Check:
    obj = json.loads(job.output.read_text())
    if obj.get("schema") != "morseforge-bundle-v1":
        return Check(cause="check:bundle schema")
    stored_pts = [tuple(Fraction(c) for c in p) for p in obj["pointset"]["points"]]
    if sorted(stored_pts) != sorted(job.points):
        return Check(cause="check:bundle point set")
    terms = _terms(obj["p"])
    n = len(job.points[0])
    stored_minors = {
        tuple(Fraction(c) for c in p): [Fraction(m) for m in row]
        for p, row in zip(stored_pts, obj["minors"])
    }
    firsts = [_unit(n, i) for i in range(n)]
    seconds = [_unit(n, i, j) for i in range(n) for j in range(n)]
    for x in job.points:
        values = derivatives_at(terms, x, firsts + seconds)
        if any(values[:n]):
            return Check(cause="check:gradient nonzero at a prescribed point")
        hess = [values[n + i * n: n + (i + 1) * n] for i in range(n)]
        minors = [det([row[: m + 1] for row in hess[: m + 1]]) for m in range(n)]
        if not all(m > 0 for m in minors):
            return Check(cause="check:leading minor not positive")
        if stored_minors.get(x) != minors:
            return Check(cause="check:stored minors disagree")
    return Check()


def _check_saddle(job: Job, code) -> Check:
    obj = json.loads(job.output.read_text())
    if obj.get("schema") != "morseforge-saddle-field-v1":
        return Check(cause="check:saddle schema")
    stable = [Fraction(a) for a in obj["stable_set"]]
    saddles = [Fraction(b) for b in obj["saddle_set"]]
    k = len(job.points)
    if len(stable) != k or len(saddles) != k - 1:
        return Check(cause="check:saddle census")
    gamma = _terms(obj["gamma"])
    if any(derivatives_at(gamma, (r,), [(0,)])[0] for r in stable + saddles):
        return Check(cause="check:gamma nonzero on stable or saddle set")
    return Check()


def _check_verify(job: Job, code) -> Check:
    obj = json.loads(job.output.read_text())
    if not all(p["passed"] for p in obj["per_point"]) or len(obj["per_point"]) != len(job.points):
        return Check(cause="check:certificate failed")
    reported = obj["spurious_search"]["converged_points"]
    minima = [tuple(float(c) for c in p) for p in job.points]
    return Check(minima=len(minima),
                 matched=matched_minima(minima, reported, SPURIOUS_TOL))


def _check_flow(job: Job, code) -> Check:
    obj = json.loads(job.output.read_text())
    classified = obj["classified"]
    if classified == "diverged":
        return Check(cause="check:diverged trajectory", trajectories=1)
    converged = classified == "converged_to"
    if converged != (code == 0):
        return Check(cause="check:exit code disagrees with trace", trajectories=1)
    if converged and not 0 <= obj["converged_index"] < len(job.points):
        return Check(cause="check:label out of range", trajectories=1)
    return Check(trajectories=1, converged=int(converged))


def _check_grid(job: Job, code) -> Check:
    with job.output.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["x", "y", "P", "basin_label"] or len(rows) - 1 != job.trajectories:
        return Check(cause="check:grid shape", trajectories=job.trajectories)
    labels = [int(r[3]) for r in rows[1:]]
    if not all(-1 <= lab < len(job.points) for lab in labels):
        return Check(cause="check:label out of range", trajectories=job.trajectories)
    if not all(math.isfinite(float(r[2])) for r in rows[1:]):
        return Check(cause="check:P not finite", trajectories=job.trajectories)
    return Check(trajectories=job.trajectories,
                 converged=sum(1 for lab in labels if lab >= 0))


_CHECKS = {
    "synthesize": _check_synthesize,
    "saddle-field": _check_saddle,
    "verify": _check_verify,
    "flow": _check_flow,
    "export-grid": _check_grid,
}
