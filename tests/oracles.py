"""Independent oracles the tests check the package against.

None of these is on a path a command runs: each recomputes a quantity by a
route the package deliberately does not take (the pullback identity for
Hessians, central differences for gradients, eigenvalues for definiteness,
the flow loop that compacts its rows on every pass, the Newton census that
masks and compacts every row on every iteration and deduplicates against
all remaining candidates, the Lagrange basis for the shear interpolants, f
as the square of a plane polynomial, and point Hessians from symbolic second
partials).
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from morseforge import verify
from morseforge._rat import Rat, rat
from morseforge.numeric import CompiledPoly
from morseforge.poly import MultiPoly, PolyMap
from morseforge.synth import SaddleField, SynthesisResult
from morseforge.verify import (
    _D,
    _E32,
    ATOL,
    COARSE_TOL,
    DEDUP_TOL,
    GRAD_TOL,
    LYAP_STEP_TOL,
    MAX_FACTOR,
    MIN_FACTOR,
    MIN_STEP_RATIO,
    POINT_TOL,
    RTOL,
    SPURIOUS_TOL,
    STATUS_ACTIVE,
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_TIMEOUT,
    BatchFlowResult,
    BoxSpec,
    FlowConfig,
    NewtonResult,
    _float_points,
    _newton_step,
    _polish_exact,
    _solve,
    field_jacobian,
)

Matrix = List[List[Rat]]


def _inverse(w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inverses of a batch of matrices and a mask of the failed rows.  When
    LAPACK meets an exactly singular matrix, every row whose determinant is
    zero or not finite is flagged and inverted as the identity."""
    bad = np.zeros(len(w), dtype=bool)
    try:
        return np.linalg.inv(w), bad
    except np.linalg.LinAlgError:
        det = np.linalg.det(w)
        bad = ~(np.isfinite(det) & (det != 0))
        w = w.copy()
        w[bad] = np.eye(w.shape[-1])
        return np.linalg.inv(w), bad


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum((a[i][t] * b[t][j] for t in range(k)), rat(0)) for j in range(m)]
        for i in range(n)
    ]


def transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)]


def poly_det(m: List[List[MultiPoly]]) -> MultiPoly:
    """Determinant of a small matrix of polynomials by Laplace expansion
    along the first row, as an exact polynomial identity."""
    if len(m) == 1:
        return m[0][0]
    total = MultiPoly.zero(m[0][0].dim)
    for j, entry in enumerate(m[0]):
        if entry.is_zero():
            continue
        minor = poly_det([row[:j] + row[j + 1:] for row in m[1:]])
        total = total + entry * minor if j % 2 == 0 else total - entry * minor
    return total


def eval_symmetric(rows: Sequence[Sequence[MultiPoly]], point: Sequence) -> Matrix:
    """Exact values at a rational point of a symmetric polynomial matrix such
    as MultiPoly.hessian(); each entry on or above the diagonal is evaluated
    once and mirrored below it."""
    n = len(rows)
    vals: Matrix = [[rat(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            vals[i][j] = vals[j][i] = rows[i][j].eval_rational(point)
    return vals


def lagrange_interpolants(z_points: Sequence[Sequence]) -> List[MultiPoly]:
    """For j = 2..n, the polynomial through the nodes (z_1^(i), z_j^(i)) as
    a sum of values times classical Lagrange basis polynomials."""
    zps = [tuple(rat(c) for c in z) for z in z_points]
    nodes = [z[0] for z in zps]
    x = MultiPoly.variable(1, 0)
    basis = []
    for i, ni in enumerate(nodes):
        num = MultiPoly.constant(1, 1)
        den = rat(1)
        for m, nm in enumerate(nodes):
            if m != i:
                num = num * (x - MultiPoly.constant(1, nm))
                den = den * (ni - nm)
        basis.append(num * (rat(1) / den))
    out = []
    for j in range(1, len(zps[0])):
        pj = MultiPoly.zero(1)
        for i, z in enumerate(zps):
            pj = pj + basis[i] * z[j]
        out.append(pj)
    return out


def squared_plane_f(alpha: MultiPoly) -> MultiPoly:
    """f = (alpha - beta^2 y)^2 - int alpha beta, beta = alpha - alpha', by
    squaring the two-variable polynomial alpha - beta^2 y."""
    beta = alpha - alpha.partial(0)
    a2 = alpha.embed(2, (0,))
    b2 = beta.embed(2, (0,))
    y = MultiPoly.variable(2, 1)
    return (a2 - b2 * b2 * y) ** 2 - (alpha * beta).antiderivative(0).embed(2, (0,))


def transported_hessian(result: SynthesisResult, x) -> Matrix:
    """J^T H_Q J with J the Jacobian of F at x.  At a critical point this
    must equal the symbolic Hessian of P exactly."""
    pt = tuple(rat(c) for c in x)
    jac_polys = result.change.forward.jacobian()
    j = [[entry.eval_rational(pt) for entry in row] for row in jac_polys]
    fx = result.change.forward.eval_rational(pt)
    hq = [[entry.eval_rational(fx) for entry in row] for row in result.q.hessian()]
    return mat_mul(transpose(j), mat_mul(hq, j))


def saddle_jacobian_at(sf: SaddleField, x1) -> Matrix:
    """Exact Jacobian of the transformed field at (x1, 0, ..., 0); diagonal
    with entries (gamma'(x1), -1, ..., -1)."""
    n = sf.field.domain_dim
    jac = sf.field.jacobian()
    pt = tuple([rat(x1)] + [rat(0)] * (n - 1))
    return [[entry.eval_rational(pt) for entry in row] for row in jac]


def eigen_signs(matrix, tol: float) -> Tuple[int, int, int]:
    """Counts of (positive, negative, ambiguous) eigenvalues; symmetric input
    uses the symmetric solver, general input the real parts."""
    m = np.asarray([[float(e) for e in row] for row in matrix], dtype=float)
    if np.allclose(m, m.T, rtol=1e-12, atol=1e-12):
        w = np.linalg.eigvalsh(m)
    else:
        w = np.linalg.eigvals(m).real
    pos = int((w > tol).sum())
    neg = int((w < -tol).sum())
    return pos, neg, len(w) - pos - neg


def fd_gradient_check_batch(p: MultiPoly, pts: np.ndarray, h: float) -> np.ndarray:
    """Max over components of the relative deviation between the symbolic
    partial and the central difference, one value per row of pts.  Rows
    with non-finite intermediates report inf."""
    if h <= 0:
        raise ValueError("h must be positive")
    cp = CompiledPoly(p)
    pts = np.asarray(pts, dtype=float)
    partials = CompiledPoly(PolyMap([p.partial(i) for i in range(p.dim)], p.dim))(pts)
    worst = np.zeros(len(pts))
    for i in range(p.dim):
        shift = np.zeros(p.dim)
        shift[i] = h
        sym = partials[:, i]
        fd = (cp(pts + shift) - cp(pts - shift)) / (2 * h)
        rel = np.abs(sym - fd) / np.maximum.reduce([np.ones(len(pts)), np.abs(sym), np.abs(fd)])
        rel = np.where(np.isfinite(sym) & np.isfinite(fd), rel, np.inf)
        worst = np.maximum(worst, rel)
    return worst


def sample_box(box: BoxSpec, num: int, rng: np.random.Generator) -> np.ndarray:
    """num points drawn uniformly from box."""
    return rng.uniform(box.lower, box.upper, size=(num, box.dim))


def reference_integrate_batch(
    field,
    starts: np.ndarray,
    box: BoxSpec,
    targets,
    cfg: Optional[FlowConfig] = None,
    lyap=None,
) -> BatchFlowResult:
    """verify.integrate_batch's ode23s loop written plainly: separate
    field, field-and-Jacobian and lyap evaluators, every active array
    compacted and every result scattered on each pass, np.linalg.norm,
    np.mean, np.clip and np.maximum.at, classification of the accepted rows
    only, no Lyapunov guard without lyap, and a singular W flagged by
    _inverse and replaced by the identity.  verify.MAX_ATTEMPTS is read at
    call time, so a test may patch it for both loops; attempts are not
    recorded (None)."""
    cfg = cfg or FlowConfig()
    fc = CompiledPoly(field)
    fj = field_jacobian(field)
    lc = CompiledPoly(lyap) if lyap is not None else None
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    B, n = starts.shape
    tg = _float_points(targets)
    lo, hi = box.guard()
    h_min = cfg.dt * MIN_STEP_RATIO

    x = starts.copy()
    status = np.full(B, STATUS_ACTIVE, dtype=np.int64)
    conv_idx = np.full(B, -1, dtype=np.int64)
    steps = np.zeros(B, dtype=np.int64)
    gnorm = np.full(B, np.nan)
    max_inc = np.zeros(B)
    reason = np.full(B, None, dtype=object)

    def classify(idx, pts, g):
        gn = np.linalg.norm(g, axis=1)
        gnorm[idx] = gn
        if len(tg):
            d = np.linalg.norm(pts[:, None, :] - tg[None, :, :], axis=2)
            nearest = d.argmin(axis=1)
            mind = d[np.arange(len(pts)), nearest]
        else:
            nearest = np.zeros(len(pts), dtype=np.int64)
            mind = np.full(len(pts), np.inf)
        conv = np.isfinite(gn) & (gn < GRAD_TOL) & (mind < POINT_TOL)
        status[idx[conv]] = STATUS_CONVERGED
        conv_idx[idx[conv]] = nearest[conv]
        return ~conv

    idx = np.arange(B)
    xa = starts.copy()
    f0, jac = fj(xa)
    keep = classify(idx, xa, f0)
    idx, xa, f0, jac = idx[keep], xa[keep], f0[keep], jac[keep]
    va = lc(xa) if lc is not None else None
    t = np.zeros(len(idx))
    h = np.full(len(idx), cfg.dt)
    attempts = np.zeros(len(idx), dtype=np.int64)
    eye = np.eye(n)

    while len(idx):
        last = h >= cfg.t_max - t
        ht = np.where(last, cfg.t_max - t, h)
        col = ht[:, None]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            w_inv, singular = _inverse(eye - (_D * ht)[:, None, None] * jac)
            k1 = _solve(w_inv, f0)
            f1 = fc(xa + 0.5 * col * k1)
            k2 = _solve(w_inv, f1 - k1) + k1
            xn = xa + col * k2
            f2, jn = fj(xn)
            k3 = _solve(w_inv, f2 - _E32 * (k2 - f1) - 2.0 * (k1 - f0))
            scale = ATOL + RTOL * np.maximum(np.abs(xa), np.abs(xn))
            err = np.sqrt(np.mean((col / 6.0 * (k1 - 2.0 * k2 + k3) / scale) ** 2, axis=1))
            err = np.where(np.isfinite(err) & ~singular, err, np.inf)
            hard_ok = np.isfinite(xn).all(axis=1) & ((xn >= lo) & (xn <= hi)).all(axis=1)
            guard_ok = hard_ok
            vn = inc = None
            if lc is not None:
                vn = lc(xn)
                inc = vn - va
                guard_ok = hard_ok & ~(np.isfinite(inc) & (inc > 0.5 * LYAP_STEP_TOL))
            fac = np.clip(0.9 * err ** (-1.0 / 3.0), MIN_FACTOR, MAX_FACTOR)
        floor = ht <= h_min
        acc = hard_ok & ((guard_ok & (err <= 1.0)) | floor)
        diverged = ~hard_ok & floor
        attempts += 1
        h = np.maximum(ht * np.where(guard_ok, fac, np.minimum(fac, 0.5)), h_min)

        xa[acc], f0[acc], jac[acc] = xn[acc], f2[acc], jn[acc]
        t[acc] += ht[acc]
        steps[idx[acc]] += 1
        if lc is not None:
            va[acc] = vn[acc]
            ok = acc & np.isfinite(inc)
            np.maximum.at(max_inc, idx[ok], inc[ok])
        x[idx] = xa
        status[idx[diverged]] = STATUS_DIVERGED
        sel = np.flatnonzero(acc)
        done = diverged.copy()
        done[sel] = ~classify(idx[sel], xa[sel], f0[sel])
        out_of_time = acc & last & ~done
        out_of_budget = (attempts >= verify.MAX_ATTEMPTS) & ~done & ~out_of_time
        status[idx[out_of_time | out_of_budget]] = STATUS_TIMEOUT
        reason[idx[out_of_time]] = "t_max"
        reason[idx[out_of_budget]] = "step_budget"
        keep = ~(done | out_of_time | out_of_budget)
        idx, xa, f0, jac, t, h, attempts = (
            a[keep] for a in (idx, xa, f0, jac, t, h, attempts)
        )
        va = None if va is None else va[keep]

    return BatchFlowResult(
        starts=starts,
        ends=x,
        status=status,
        conv_idx=conv_idx,
        steps=steps,
        attempts=None,
        final_grad_norm=gnorm,
        max_step_increase=max_inc,
        timeout_reason=reason,
    )


def reference_first_come(points, tol: float) -> List[int]:
    """verify._first_come as first written: each new representative measures
    its distance to every remaining point and drops those within tol."""
    rest = np.asarray(points)
    index = np.arange(len(rest))
    reps: List[int] = []
    while len(rest):
        reps.append(int(index[0]))
        diff = rest - rest[0]
        sq = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
        far = np.sqrt(sq) > tol
        rest, index = rest[far], index[far]
    return reps


def reference_newton_search(
    grad: PolyMap, box: BoxSpec, seeds_per_axis: int, claimed=()
) -> NewtonResult:
    """verify.newton_search written plainly: every iteration tests the
    gradient and the iterate for finiteness and the iterate against the
    guard box over whole rows, takes np.linalg.norm of every row, compacts
    every array and extends the candidate lists row by row; deduplication
    is reference_first_come, and each claimed point is measured against
    each found point alone.  verify.MAX_ITER is read at call time."""
    if seeds_per_axis < 2:
        raise ValueError("seeds_per_axis must be >= 2")
    grad_hess = field_jacobian(grad)
    seeds = box.grid(seeds_per_axis)
    guard_lo, guard_hi = box.guard()
    claimed = np.asarray(claimed, dtype=float).reshape(-1, box.dim)
    at_claimed = grad_hess(claimed)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        blind = int(np.count_nonzero(~(np.linalg.norm(at_claimed, axis=1) < COARSE_TOL)))

    x = seeds.copy()
    abandoned = 0
    singular = 0
    candidates: List[np.ndarray] = []
    images: List[np.ndarray] = []
    for _ in range(verify.MAX_ITER):
        if len(x) == 0:
            break
        g, jac = grad_hess(x)
        finite = np.isfinite(g).all(axis=1) & np.isfinite(x).all(axis=1)
        inside = ((x >= guard_lo) & (x <= guard_hi)).all(axis=1)
        with np.errstate(over="ignore"):
            gn = np.linalg.norm(np.where(finite[:, None], g, np.inf), axis=1)
        live = finite & inside
        abandoned += int((~live).sum())
        x, g, jac = x[live], g[live], jac[live]
        conv = gn[live] < COARSE_TOL
        step = _newton_step(jac, g)
        good = np.isfinite(step).all(axis=1)
        x_next = x - step
        candidates.extend(x[conv])
        images.extend(x_next[conv])
        singular += int((~(good | conv)).sum())
        x = x_next[good & ~conv]
    abandoned += len(x)

    polished = np.empty((0, box.dim))
    polish_failed = 0
    for i in reference_first_come(np.asarray(candidates), DEDUP_TOL):
        if (np.linalg.norm(polished - images[i], axis=1) <= DEDUP_TOL).any():
            continue
        point = _polish_exact(grad, grad_hess, candidates[i])
        if point is None:
            polish_failed += 1
        else:
            polished = np.vstack([polished, point])
    points = [polished[i] for i in reference_first_come(polished, DEDUP_TOL)]
    near = np.array([[np.linalg.norm(c - q) <= SPURIOUS_TOL for q in points]
                     for c in claimed], dtype=bool).reshape(len(claimed), len(points))
    return NewtonResult(
        points=points,
        seeds_used=len(seeds),
        abandoned=abandoned,
        singular=singular,
        blind=blind,
        polish_failed=polish_failed,
        near=near,
    )
