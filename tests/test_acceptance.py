"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (visible even under capture) and
enforces its own wall-clock budget.  Fixture instances are deterministic so
runs are reproducible; the random generators are seeded constants.
"""

import random
import time

import numpy as np

from conftest import rand_rat
from morseforge._rat import rat
from morseforge.coord_change import PointSet, build_coord_change
from morseforge.exactmat import det, leading_principal_minors
from morseforge.morse_scalar import AlphaSpec, build_pair
from morseforge.poly import PolyMap
from morseforge.synth import build_saddle_field, hessian_at, synthesize
from morseforge.verify import (
    BoxSpec,
    FlowConfig,
    integrate_batch,
    newton_search,
)
from oracles import eigen_signs, eval_symmetric, fd_gradient_check_batch, sample_box

# ten plane instances, one to four minima each, exercising both the trivial
# coordinate change and the sheared one (repeated first coordinates)
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

# low-stiffness instances for the long flow runs (criteria 6 and 8)
FLOW_INSTANCES = [
    [[0, 0]],
    [["-1/2", 0], ["1/2", "1/4"]],
]

SADDLE_ROOT_SETS = [
    [0],
    [-1, 1],
    [-1, 0, 1],
    ["-3/2", "-1/2", "1/2", "3/2"],
]

_flow_cache = {}


def report(capsys, num, ok, elapsed):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[acceptance] criterion {num}: {status} ({elapsed:.1f}s)")


def random_point_sets(seed, count, dims, max_points, height, shared_frac=0.0):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice(dims)
        k = rng.randint(1, max_points)
        pts = set()
        if shared_frac and k >= 2 and rng.random() < shared_frac:
            shared = rand_rat(rng, height)
            while len(pts) < k:
                pts.add(
                    (shared,) + tuple(rand_rat(rng, height) for _ in range(n - 1))
                )
        else:
            while len(pts) < k:
                pts.add(tuple(rand_rat(rng, height) for _ in range(n)))
        out.append(PointSet(n, sorted(pts)))
    return out


def flow_results():
    """Shared 1000-seed basin runs for criteria 6 and 8."""
    if not _flow_cache:
        for pts in FLOW_INSTANCES:
            res = synthesize(PointSet(2, pts))
            box = BoxSpec.from_points(res.input.points)
            out = integrate_batch(
                res.grad_field,
                sample_box(box, 1000, np.random.default_rng(0)),
                box,
                res.input.points,
                FlowConfig(dt=1e-2, t_max=200.0),
                lyap=res.p_poly,
            )
            _flow_cache[tuple(map(tuple, pts))] = (res, out)
    return _flow_cache


def test_criterion_1_exact_critical_set(capsys):
    t0 = time.perf_counter()
    ok = True
    for xs in random_point_sets(12345, 20, dims=(2, 3, 4), max_points=4, height=20):
        res = synthesize(xs)
        for pt in xs.points:
            if any(v != 0 for v in res.grad_field.eval_rational(pt)):
                ok = False
            if any(m <= 0 for m in leading_principal_minors(hessian_at(res, pt))):
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(capsys, 1, ok, elapsed)
    assert ok


def test_criterion_2_hessian_closed_form(capsys):
    t0 = time.perf_counter()
    rng = random.Random(2024)
    ok = True
    for _ in range(20):
        k = rng.randint(1, 5)
        roots = set()
        while len(roots) < k:
            roots.add(rand_rat(rng, 10))
        spec = AlphaSpec(sorted(roots))
        pair = build_pair(spec)
        da = pair.alpha.partial(0)
        seconds = pair.f.hessian()
        for r in spec.roots:
            d = da.eval_rational([r])
            h = eval_symmetric(seconds, (r, rat(0)))
            if h != [[3 * d * d, -2 * d ** 3], [-2 * d ** 3, 2 * d ** 4]]:
                ok = False
            if det(h) != 2 * d ** 6:
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(capsys, 2, ok, elapsed)
    assert ok


def test_criterion_3_coordinate_change(capsys):
    t0 = time.perf_counter()
    ok = True
    sets = random_point_sets(
        777, 200, dims=(2, 3, 4, 5), max_points=6, height=50, shared_frac=0.3
    )
    for xs in sets:
        cc = build_coord_change(xs)
        if not cc.forward.compose(cc.inverse).is_identity():
            ok = False
        if not cc.inverse.compose(cc.forward).is_identity():
            ok = False
        images = [cc.forward.eval_rational(pt) for pt in xs.points]
        if any(any(c != 0 for c in img[1:]) for img in images):
            ok = False
        firsts = [img[0] for img in images]
        if len(set(firsts)) != len(firsts):
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(capsys, 3, ok, elapsed)
    assert ok


def test_criterion_4_newton_recovery(capsys):
    t0 = time.perf_counter()
    ok = True
    for pts in PLANE_INSTANCES:
        res = synthesize(PointSet(2, pts))
        box = BoxSpec.from_points(res.input.points)
        grad = PolyMap([res.p_poly.partial(0), res.p_poly.partial(1)])
        found = newton_search(grad, box, seeds_per_axis=100)
        targets = np.array([[float(c) for c in p] for p in res.input.points])
        for p in found.points:
            if np.linalg.norm(targets - p, axis=1).min() > 1e-6:
                ok = False
        for t in targets:
            if not found.points or min(
                np.linalg.norm(p - t) for p in found.points
            ) > 1e-6:
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(capsys, 4, ok, elapsed)
    assert ok


def test_criterion_5_finite_difference_gradient(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    ok = True
    for pts in PLANE_INSTANCES:
        res = synthesize(PointSet(2, pts))
        box = BoxSpec.from_points(res.input.points)
        sample = sample_box(box, 100, rng)
        errs = fd_gradient_check_batch(res.p_poly, sample, 1e-6)
        if float(errs.max()) > 1e-5:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(capsys, 5, ok, elapsed)
    assert ok


def test_criterion_6_descent_dynamics(capsys):
    t0 = time.perf_counter()
    ok = True
    for pts, (res, out) in flow_results().items():
        for pt in res.input.points:
            h = hessian_at(res, pt)
            neg = [[-float(e) for e in row] for row in h]
            eigs = np.linalg.eigvalsh(np.asarray(neg))
            if not (eigs < -1e-9).all():
                ok = False
        if out.fraction_converged < 0.95:
            ok = False
        if out.num_diverged != 0:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report(capsys, 6, ok, elapsed)
    assert ok


def test_criterion_7_saddle_census(capsys):
    t0 = time.perf_counter()
    ok = True
    for roots in SADDLE_ROOT_SETS:
        xs = PointSet(2, [[r, 0] for r in roots])
        sf = build_saddle_field(xs)
        k = len(roots)
        equilibria = list(sf.stable_set) + list(sf.saddle_set)
        if sf.gamma.total_degree() != 2 * k - 1:
            ok = False
        if len(equilibria) != 2 * k - 1:
            ok = False
        for e in equilibria:
            if sf.gamma.eval_rational([e]) != 0:
                ok = False
        jac_polys = sf.field.jacobian()

        def jac_at(x1):
            return [
                [entry.eval_rational((x1, rat(0))) for entry in row]
                for row in jac_polys
            ]

        for a in sf.stable_set:
            if eigen_signs(jac_at(a), 1e-9) != (0, 2, 0):
                ok = False
        for b in sf.saddle_set:
            if eigen_signs(jac_at(b), 1e-9) != (1, 1, 0):
                ok = False
        box = BoxSpec.from_points([(float(a), 0.0) for a in sf.stable_set])
        targets = [(float(a), 0.0) for a in sf.stable_set]
        out = integrate_batch(
            sf.field, sample_box(box, 1000, np.random.default_rng(0)), box,
            targets, FlowConfig(dt=1e-2, t_max=200.0),
        )
        if out.fraction_converged < 0.99:
            ok = False
        if out.num_diverged != 0:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(capsys, 7, ok, elapsed)
    assert ok


def test_criterion_8_lyapunov_monotonicity(capsys):
    t0 = time.perf_counter()
    ok = True
    for pts, (res, out) in flow_results().items():
        if float(out.max_step_increase.max()) > 1e-9:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report(capsys, 8, ok, elapsed)
    assert ok
