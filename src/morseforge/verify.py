"""Independent numeric verification layer.

Everything here treats the synthesized objects as claims under test: a
Newton search for critical points the construction says cannot exist,
adaptive integration of the descent flow with convergence classification,
and the certification report that rebuilds the gradient and Hessians from P
alone.  Every float evaluation goes through numeric.CompiledPoly, whose value
at a point does not depend on the batch it is evaluated in: a field, a
Lyapunov function, or a field with its Jacobian (field_jacobian, the one
evaluator that Newton, its polish and the flows share) is compiled once and
evaluated over a whole batch of points per call.

Newton runs in two phases: a fast float phase over the whole seed grid, then
an exact-arithmetic polish of one candidate per critical point.  Each float
iteration makes one field_jacobian call that returns the gradient and the
Hessian together, and one batched solve over every live row that gives both
the next iterate of a row still searching and the float Newton image
x - J^-1 g of a row accepted as a candidate.  A row whose step is not finite,
NaN where LAPACK finds the Jacobian exactly singular, is counted singular
and dropped, and a candidate's image is then NaN.
Deduplication loops over representatives, not candidates: each new
representative drops every remaining candidate within DEDUP_TOL in one
row-wise distance.  The representatives are polished in order, except one
whose image lies within DEDUP_TOL of a point already polished: its polish
would land there too and the final dedup of the polished points would drop
it, so the census reports what polishing every representative would, at
about one polish per point.  A failed polish marks nothing, and a candidate
without an image is always polished.  Float evaluation of the gradient,
even by Horner's rule, has a cancellation noise floor near X far above the
residual target RESIDUAL_TOL (1e-10 to 2e-9 on four-point sets), so the
final residual is evaluated exactly (rational arithmetic at the float
iterate) and only then compared against the target.
The census only cross-checks the construction, so its tolerances, like the
flow's, are module constants of one recipe; the caller chooses only the
search box and the seed density.

The descent flows are stiff (Hessian eigenvalues from below 1 at a minimum to
1e9 at the box corners), so the flow integrator is the linearly implicit
Rosenbrock pair of ode23s (Shampine & Reichelt, SIAM J. Sci. Comput. 1997),
orders 2 and 3, batched over trajectories.  Each row keeps its own time and
step; FlowConfig holds only the first step dt and the horizon t_max.  One
attempt makes two evaluator calls, the field at the midpoint and one
field_jacobian call at the proposal that returns the field, its full
Jacobian and the Lyapunov value together (without a Lyapunov function, the
zero polynomial's, so one loop serves both), and solves three systems
against one W = I - h d J (one inverse, three products; NaN where W is
exactly singular, which makes the proposal non-finite).  The evaluation at
an accepted proposal starts the next step and classifies convergence
(GRAD_TOL, POINT_TOL; target distances only where |field| < GRAD_TOL).  The
per-row state is compacted, and the rows that finished written back, only on
a pass where some trajectory leaves.  A proposal that fails the error test,
leaves the guard box, goes non-finite, or increases the Lyapunov value beyond
half of LYAP_STEP_TOL is rejected and the step shrunk.  A trajectory is
classified diverged only when the step floor is reached with the proposal
still outside the guard box or non-finite, and times out at t_max or after
MAX_ATTEMPTS attempts, whichever comes first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import exactmat
from ._rat import rat
from .numeric import CompiledPoly, _float
from .poly import MultiPoly, PolyMap, eval_symmetric


# --------------------------------------------------------------------- boxes

# Largest grid BoxSpec.grid builds (the Newton seed grid, the raster of
# `export-grid`): per_axis ** dim rows above this raise GridTooLarge.
MAX_GRID_POINTS = 2 ** 20
# BoxSpec.from_points: the points' bounding box scaled about its centre by
# BOX_INFLATE, then padded by BOX_MARGIN on every side
BOX_INFLATE = 2.0
BOX_MARGIN = 1.0
# BoxSpec.guard: Newton iterates and flow states outside the box scaled
# about its centre by GUARD_FACTOR are lost
GUARD_FACTOR = 10.0


class GridTooLarge(ValueError):
    """A grid request of more than MAX_GRID_POINTS rows."""


def _float_points(points) -> np.ndarray:
    """Exact points as a float array; a coordinate past the double range
    raises CoefficientTooLarge."""
    return np.asarray([[_float(c, "a point coordinate") for c in p] for p in points], dtype=float)


@dataclass(frozen=True)
class BoxSpec:
    """Axis-aligned search box with the rule that produced it recorded."""

    lower: Tuple[float, ...]
    upper: Tuple[float, ...]
    derivation: str = "explicit"

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper must have equal length")
        if not all(math.isfinite(v) for v in (*self.lower, *self.upper)):
            raise ValueError("box bounds must be finite")
        if not all(lo < hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("box must satisfy lower < upper componentwise")

    @classmethod
    def from_points(cls, points) -> "BoxSpec":
        pts = _float_points(points)
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        center = (lo + hi) / 2
        half = (hi - lo) / 2
        return cls(
            tuple(center - BOX_INFLATE * half - BOX_MARGIN),
            tuple(center + BOX_INFLATE * half + BOX_MARGIN),
            derivation=f"bounding box of {len(pts)} points, "
            f"inflated x{BOX_INFLATE} plus margin {BOX_MARGIN}",
        )

    @property
    def dim(self) -> int:
        return len(self.lower)

    def guard(self) -> Tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners of the box scaled by GUARD_FACTOR."""
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        c = (lo + hi) / 2
        h = (hi - lo) / 2
        return c - GUARD_FACTOR * h, c + GUARD_FACTOR * h

    def grid(self, per_axis: int) -> np.ndarray:
        if int(per_axis) ** self.dim > MAX_GRID_POINTS:
            raise GridTooLarge(
                f"a grid of {per_axis}^{self.dim} points exceeds the limit of "
                f"{MAX_GRID_POINTS}"
            )
        axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(self.lower, self.upper)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def to_obj(self) -> dict:
        return {
            "lower": list(self.lower),
            "upper": list(self.upper),
            "derivation": self.derivation,
        }


# ----------------------------------------------------------- Newton search


# The census recipe.  The float phase runs at most MAX_ITER Newton steps
# per seed; an iterate with |grad| below COARSE_TOL becomes a polish
# candidate.  Candidates closer than DEDUP_TOL collapse to one
# representative, before and after the polish, and a representative whose
# float Newton image lies within DEDUP_TOL of a polished point is not
# polished again.  The exact polish takes at most POLISH_ITER Newton steps
# and accepts a point once the exact |grad| is below RESIDUAL_TOL.  certify
# matches a claimed point to a found one within SPURIOUS_TOL.
MAX_ITER = 100
COARSE_TOL = 1e-6
DEDUP_TOL = 1e-8
POLISH_ITER = 10
RESIDUAL_TOL = 1e-12
SPURIOUS_TOL = 1e-6


@dataclass
class NewtonResult:
    points: List[np.ndarray]
    seeds_used: int
    abandoned: int
    singular: int


def _first_come(points: np.ndarray, tol: float) -> List[int]:
    """Indices of the greedy first-come representatives: each point farther
    than tol from every earlier representative becomes one.  The loop runs
    over representatives; each drops every remaining point within tol of it."""
    rest = np.asarray(points)
    index = np.arange(len(rest))
    reps: List[int] = []
    while len(rest):
        reps.append(int(index[0]))
        diff = rest - rest[0]
        # a (1, n) @ (n, 1) product per row is the dot product that
        # np.linalg.norm takes of one vector, so the distances match it
        sq = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
        far = np.sqrt(sq) > tol
        rest, index = rest[far], index[far]
    return reps


def _dedup(points: np.ndarray, tol: float) -> List[np.ndarray]:
    """The first-come representatives themselves, in order."""
    points = np.asarray(points)
    return [points[i] for i in _first_come(points, tol)]


def field_jacobian(field: PolyMap, lyap: Optional[MultiPoly] = None) -> Callable:
    """Compile a field and its Jacobian into one evaluator that maps points
    (..., n) to the field (..., n) and the Jacobian (..., n, n); given lyap,
    a scalar polynomial, it returns lyap's values (...) as a third output
    from the same call.  Each distinct polynomial among the components, the
    entries and lyap is compiled once, so a gradient's equal mixed partials
    are evaluated once."""
    n = field.domain_dim
    entries = [*field.components, *(e for row in field.jacobian() for e in row)]
    if lyap is not None:
        entries.append(lyap)
    distinct: dict = {}
    where = np.array([distinct.setdefault(e, len(distinct)) for e in entries], dtype=np.intp)
    compiled = CompiledPoly(PolyMap(list(distinct), n))

    def evaluate(pts: np.ndarray) -> Tuple[np.ndarray, ...]:
        vals = np.take(compiled(pts), where, axis=-1)
        f = vals[..., :n]
        jac = vals[..., n:n + n * n].reshape(vals.shape[:-1] + (n, n))
        return (f, jac) if lyap is None else (f, jac, vals[..., -1])

    return evaluate


def _lapack(fn: Callable, a: np.ndarray, *rest) -> np.ndarray:
    """fn, np.linalg.solve or np.linalg.inv, over a batch of matrices a.
    Only when LAPACK raises are the rows with an exactly zero pivot found
    (getrf's own test), rerun with the identity in their place and returned
    as NaN, so a row's result depends on its own matrix alone."""
    try:
        return fn(a, *rest)
    except np.linalg.LinAlgError:
        with np.errstate(invalid="ignore"):  # slogdet warns at a NaN entry
            bad = np.linalg.slogdet(a)[0] == 0
        out = fn(np.where(bad[..., None, None], np.eye(a.shape[-1]), a), *rest)
        out[bad] = np.nan
        return out


def _polish_exact(grad: PolyMap, grad_hess: Callable, x0: np.ndarray):
    """Newton refinement with the gradient evaluated exactly at the float
    iterate; accepts only if the exact residual norm reaches the target."""
    x = np.array(x0, dtype=float)
    for attempt in range(POLISH_ITER + 1):
        exact_pt = [rat(float(c)) for c in x]
        g = np.array(
            [float(comp.eval_rational(exact_pt)) for comp in grad.components]
        )
        if not np.isfinite(g).all():
            return None
        if np.linalg.norm(g) < RESIDUAL_TOL:
            return x
        if attempt == POLISH_ITER:
            return None
        step = _lapack(np.linalg.solve, grad_hess(x[None, :])[1], g[None, :, None])[0, :, 0]
        if not np.isfinite(step).all():
            return None
        x = x - step
    return None


def newton_search(grad: PolyMap, box: BoxSpec, seeds_per_axis: int) -> NewtonResult:
    """Newton iteration on grad = 0 from a uniform seed grid over box.

    Converged points are deduplicated at DEDUP_TOL and certified by the
    exact-residual polish, one per critical point, before being reported."""
    if seeds_per_axis < 2:
        raise ValueError("seeds_per_axis must be >= 2")
    grad_hess = field_jacobian(grad)
    seeds = box.grid(seeds_per_axis)
    guard_lo, guard_hi = box.guard()

    x = seeds.copy()
    abandoned = 0
    singular = 0
    candidates: List[np.ndarray] = []
    images: List[np.ndarray] = []
    for _ in range(MAX_ITER):
        if len(x) == 0:
            break
        g, jac = grad_hess(x)
        finite = np.isfinite(g).all(axis=1) & np.isfinite(x).all(axis=1)
        inside = ((x >= guard_lo) & (x <= guard_hi)).all(axis=1)
        # a finite gradient past about 1e154 squares to inf inside the norm,
        # which only means "not converged"
        with np.errstate(over="ignore"):
            gn = np.linalg.norm(np.where(finite[:, None], g, np.inf), axis=1)
        live = finite & inside
        abandoned += int((~live).sum())
        x, g, jac = x[live], g[live], jac[live]
        conv = gn[live] < COARSE_TOL
        # one Newton step for every live row: the next iterate of a row still
        # searching, the float image of a candidate; a row whose step is not
        # finite (NaN where LAPACK finds the Jacobian singular) is dropped
        step = _lapack(np.linalg.solve, jac, g[..., None])[..., 0]
        good = np.isfinite(step).all(axis=1)
        x_next = x - step
        candidates.extend(x[conv])
        images.extend(x_next[conv])
        singular += int((~(good | conv)).sum())
        x = x_next[good & ~conv]
    abandoned += len(x)  # hit the iteration cap without settling

    # Polish the representatives in order, skipping one whose image already
    # lies within DEDUP_TOL of a polished point: its own polish would land
    # there too, and the final dedup would drop it.  A NaN image is never
    # within DEDUP_TOL, and a failed polish adds no point.
    polished = np.empty((0, box.dim))
    for i in _first_come(np.asarray(candidates), DEDUP_TOL):
        if (np.linalg.norm(polished - images[i], axis=1) <= DEDUP_TOL).any():
            continue
        point = _polish_exact(grad, grad_hess, candidates[i])
        if point is not None:
            polished = np.vstack([polished, point])
    return NewtonResult(
        points=_dedup(polished, DEDUP_TOL),
        seeds_used=len(seeds),
        abandoned=abandoned,
        singular=singular,
    )


# ------------------------------------------------------------ flow tracing


# ode23s (Shampine & Reichelt 1997): a linearly implicit Rosenbrock pair of
# orders 2 and 3 with the exact Jacobian, stable on stiff fields
_D = 1.0 / (2.0 + math.sqrt(2.0))
_E32 = 6.0 + math.sqrt(2.0)
# a step passes the error test when the RMS of err_i / (ATOL + RTOL *
# max(|x_i|, |x_new_i|)) is at most 1; the next step is the last one times
# 0.9 * err^(-1/3) clipped to [MIN_FACTOR, MAX_FACTOR]
RTOL = 1e-6
ATOL = 1e-9
# a trajectory has converged to a target once |field| < GRAD_TOL at a point
# within POINT_TOL of it
GRAD_TOL = 1e-6
POINT_TOL = 1e-3
MIN_FACTOR = 0.2
MAX_FACTOR = 5.0
# every trajectory makes at most MAX_ATTEMPTS step attempts; no step is
# shorter than MIN_STEP_RATIO times the first step FlowConfig.dt; a proposal
# raising the Lyapunov value by more than half of LYAP_STEP_TOL is rejected
MAX_ATTEMPTS = 3000
MIN_STEP_RATIO = 2.0 ** -40
LYAP_STEP_TOL = 1e-9


@dataclass(frozen=True)
class FlowConfig:
    dt: float = 1e-3  # the first step of every trajectory
    t_max: float = 200.0

    def __post_init__(self):
        if not (self.dt > 0 and 0 < self.t_max < math.inf):
            raise ValueError("dt and t_max must be positive, t_max finite")


def _solve(w_inv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    return (w_inv @ rhs[:, :, None])[:, :, 0]


STATUS_ACTIVE, STATUS_CONVERGED, STATUS_TIMEOUT, STATUS_DIVERGED = 0, 1, 2, 3


@dataclass
class BatchFlowResult:
    starts: np.ndarray
    ends: np.ndarray
    status: np.ndarray  # STATUS_* per trajectory
    conv_idx: np.ndarray
    steps: np.ndarray  # accepted steps per trajectory
    attempts: np.ndarray  # step attempts per trajectory, accepted or rejected
    final_grad_norm: np.ndarray
    max_step_increase: np.ndarray
    timeout_reason: np.ndarray  # "t_max" | "step_budget" when timed out, else None

    @property
    def fraction_converged(self) -> float:
        return float((self.status == STATUS_CONVERGED).mean())

    @property
    def num_diverged(self) -> int:
        return int((self.status == STATUS_DIVERGED).sum())

    def traces(self) -> List[dict]:
        """One trace object per trajectory, as `flow` writes it; classified
        is converged_to, max_time_reached or diverged, and timeout_reason
        t_max or step_budget when timed out, else None."""
        names = {
            STATUS_CONVERGED: "converged_to",
            STATUS_TIMEOUT: "max_time_reached",
            STATUS_DIVERGED: "diverged",
        }
        out = []
        for i in range(len(self.starts)):
            st = int(self.status[i])
            out.append({
                "start": list(self.starts[i]),
                "steps": int(self.steps[i]),
                "rejected_steps": int(self.attempts[i] - self.steps[i]),
                "end": list(self.ends[i]),
                "classified": names[st],
                "converged_index": int(self.conv_idx[i]) if st == STATUS_CONVERGED else None,
                "final_grad_norm": float(self.final_grad_norm[i]),
                "max_step_increase": float(self.max_step_increase[i]),
                "timeout_reason": self.timeout_reason[i],
            })
        return out


def integrate_batch(
    field,
    starts: np.ndarray,
    box: BoxSpec,
    targets,
    cfg: Optional[FlowConfig] = None,
    lyap=None,
) -> BatchFlowResult:
    """Integrate many trajectories of the polynomial field at once.

    targets are the points convergence is classified against; lyap is a
    scalar polynomial whose per-step increase is both guarded against and
    recorded, evaluated in the field_jacobian call at each proposal.
    Without lyap the guard watches the zero polynomial, which never rises,
    so max_step_increase stays 0.  Every row keeps its own time and step
    size; each pass over the loop makes one step attempt for every active
    row."""
    cfg = cfg or FlowConfig()
    fc = CompiledPoly(field)
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    B, n = starts.shape
    fj = field_jacobian(field, MultiPoly.zero(n) if lyap is None else lyap)
    tg = _float_points(targets)
    lo, hi = box.guard()
    h_min = cfg.dt * MIN_STEP_RATIO
    eye = np.eye(n)

    ends = starts.copy()
    steps = np.zeros(B, dtype=np.int64)
    attempts = np.zeros(B, dtype=np.int64)
    max_inc = np.zeros(B)
    reason = np.full(B, None, dtype=object)

    # the loop calls the ufuncs that np.linalg.norm, np.mean, np.clip and
    # np.maximum.at would, with the same bits and without their per-call cost
    def classify(pts, g):
        """|g| per row, and the index of the target each row has converged
        to (-1 for none): |g| < GRAD_TOL within POINT_TOL of it."""
        gn = np.sqrt(np.add.reduce(g * g, axis=1))
        near = np.full(len(gn), -1, dtype=np.int64)
        small = gn < GRAD_TOL
        if len(tg) and np.count_nonzero(small):
            cand = np.flatnonzero(small)
            diff = pts[cand, None, :] - tg
            d = np.sqrt(np.add.reduce(diff * diff, axis=2))
            nearest = d.argmin(axis=1)
            hit = d.min(axis=1) < POINT_TOL
            near[cand[hit]] = nearest[hit]
        return gn, near

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # per active row: index, state, field, Jacobian and lyap there (the
        # last accepted proposal's evaluation, first same as last), time,
        # next step, steps and largest Lyapunov increase so far; the rows
        # are compacted, and the finished ones written back, only on a pass
        # where one leaves.  Every row still active has made one attempt
        # per pass.
        f0, jac, va = fj(starts)
        # seeds already at a target converge in 0 steps
        gnorm, conv_idx = classify(starts, f0)
        keep = conv_idx < 0
        status = np.where(keep, STATUS_ACTIVE, STATUS_CONVERGED)
        idx, xa, f0, jac, va = np.flatnonzero(keep), starts[keep], f0[keep], jac[keep], va[keep]
        t = np.zeros(len(idx))
        h = np.full(len(idx), cfg.dt)
        taken = np.zeros(len(idx), dtype=np.int64)
        inc_max = np.zeros(len(idx))
        passes = 0

        while len(idx):
            passes += 1
            rest = cfg.t_max - t
            last = h >= rest
            ht = np.where(last, rest, h)
            col = ht[:, None]
            w_inv = _lapack(np.linalg.inv, eye - (_D * ht)[:, None, None] * jac)
            k1 = _solve(w_inv, f0)
            f1 = fc(xa + 0.5 * col * k1)
            k2 = _solve(w_inv, f1 - k1) + k1
            xn = xa + col * k2
            f2, jn, vn = fj(xn)
            k3 = _solve(w_inv, f2 - _E32 * (k2 - f1) - 2.0 * (k1 - f0))
            scale = ATOL + RTOL * np.maximum(np.abs(xa), np.abs(xn))
            q = (col / 6.0 * (k1 - 2.0 * k2 + k3) / scale) ** 2
            err = np.sqrt(np.add.reduce(q, axis=1) / n)
            err = np.where(np.isfinite(err), err, np.inf)
            hard_ok = np.logical_and.reduce(np.isfinite(xn) & (xn >= lo) & (xn <= hi), axis=1)
            inc = vn - va
            finite_inc = np.isfinite(inc)
            guard_ok = hard_ok & ~(finite_inc & (inc > 0.5 * LYAP_STEP_TOL))
            fac = np.minimum(np.maximum(0.9 * err ** (-1.0 / 3.0), MIN_FACTOR), MAX_FACTOR)
            # at the step floor only guard/finiteness violations count as
            # divergence; a failed error test or Lyapunov wiggle there is noise
            floor = ht <= h_min
            acc = hard_ok & ((guard_ok & (err <= 1.0)) | floor)
            diverged = ~hard_ok & floor
            h = np.maximum(ht * np.where(guard_ok, fac, np.minimum(fac, 0.5)), h_min)

            acc_col = acc[:, None]
            np.copyto(xa, xn, where=acc_col)
            np.copyto(f0, f2, where=acc_col)
            np.copyto(jac, jn, where=acc_col[:, :, None])
            np.add(t, ht, out=t, where=acc)
            np.copyto(va, vn, where=acc)
            taken += acc
            np.maximum(inc_max, inc, out=inc_max, where=acc & finite_inc)
            # FSAL: the field at an accepted proposal classifies it; a row
            # that was not accepted keeps its state, which did not converge
            gn, near = classify(xa, f0)
            conv = near >= 0
            # a row leaves once it diverged or converged, after its step to
            # t_max, and when the attempt budget is spent
            leave = diverged | conv | (acc & last)
            if passes >= MAX_ATTEMPTS:
                leave[:] = True
            elif not np.count_nonzero(leave):
                continue
            out_of_time = acc & last & ~conv
            out_of_budget = leave & ~(diverged | conv | out_of_time)
            timeout = out_of_time | out_of_budget
            gone = idx[leave]
            ends[gone], steps[gone], attempts[gone] = xa[leave], taken[leave], passes
            gnorm[gone], max_inc[gone], conv_idx[gone] = gn[leave], inc_max[leave], near[leave]
            status[idx[conv]] = STATUS_CONVERGED
            status[idx[timeout]] = STATUS_TIMEOUT
            status[idx[diverged]] = STATUS_DIVERGED
            reason[idx[out_of_time]] = "t_max"
            reason[idx[out_of_budget]] = "step_budget"
            keep = ~leave
            idx, xa, f0, jac, va, t, h, taken, inc_max = (
                a[keep] for a in (idx, xa, f0, jac, va, t, h, taken, inc_max)
            )

    return BatchFlowResult(
        starts=starts,
        ends=ends,
        status=status,
        conv_idx=conv_idx,
        steps=steps,
        attempts=attempts,
        final_grad_norm=gnorm,
        max_step_increase=max_inc,
        timeout_reason=reason,
    )


# ------------------------------------------------------------ certification


@dataclass
class PointCert:
    point: Tuple
    residues: Tuple
    gradient_zero: bool
    hessian: List[List]  # exact Hessian of P at point; not in to_obj
    minors: List
    passed: bool

    def to_obj(self) -> dict:
        from ._rat import rat_str

        return {
            "point": [rat_str(c) for c in self.point],
            "residues": [rat_str(r) for r in self.residues],
            "gradient_zero": self.gradient_zero,
            "minors": [rat_str(m) for m in self.minors],
            "passed": self.passed,
        }


@dataclass
class SpuriousSearch:
    seeds_used: int
    converged_points: List[List[float]]
    all_within_tol: bool
    abandoned: int = 0
    singular: int = 0
    newton_recall: float = 0.0  # share of claimed points within SPURIOUS_TOL of a found one

    def to_obj(self) -> dict:
        return {
            "seeds_used": self.seeds_used,
            "converged_points": [list(p) for p in self.converged_points],
            "all_within_tol_of_X": self.all_within_tol,
            "tol": SPURIOUS_TOL,
            "abandoned": self.abandoned,
            "singular": self.singular,
            "newton_recall": self.newton_recall,
        }


@dataclass
class CertReport:
    per_point: List[PointCert]
    spurious: SpuriousSearch
    box: BoxSpec
    grad: PolyMap  # -grad P, recomputed from P; not in to_obj
    overall_pass: bool

    def to_obj(self) -> dict:
        return {
            "per_point": [p.to_obj() for p in self.per_point],
            "spurious_search": self.spurious.to_obj(),
            "box": self.box.to_obj(),
            "overall_pass": self.overall_pass,
        }


def certify(
    points,
    p: MultiPoly,
    box: Optional[BoxSpec] = None,
    seeds_per_axis: Optional[int] = None,
) -> CertReport:
    """Exact certification of P at the claimed critical points plus a
    numeric search for critical points of P anywhere else in the box.

    The gradient field -grad P and the Hessians are derived from P itself,
    and the report carries both so that a caller can compare them with
    stored claims.  Failures become report entries; only a seed grid over
    MAX_GRID_POINTS (GridTooLarge) and a coefficient of P or a point
    coordinate past the double range (numeric.CoefficientTooLarge) raise."""
    n = p.dim
    grad = PolyMap([-p.partial(i) for i in range(n)], n)
    seconds = p.hessian()
    per = []
    for pt in points:
        pt = tuple(rat(c) for c in pt)
        residues = grad.eval_rational(pt)
        zero = all(r == 0 for r in residues)
        hessian = eval_symmetric(seconds, pt)
        minors = exactmat.leading_principal_minors(hessian)
        per.append(
            PointCert(
                point=pt,
                residues=residues,
                gradient_zero=zero,
                hessian=hessian,
                minors=minors,
                passed=zero and all(m > 0 for m in minors),
            )
        )
    if box is None:
        box = BoxSpec.from_points(points)
    if seeds_per_axis is None:
        # roughly 2000 seeds total regardless of dimension
        seeds_per_axis = max(2, int(round(2000 ** (1.0 / box.dim))))
    search = newton_search(grad, box, seeds_per_axis)
    ref = _float_points(points)
    found = np.asarray(search.points, dtype=float).reshape(-1, box.dim)
    # near[i, j]: claimed point i lies within SPURIOUS_TOL of found point j
    near = np.linalg.norm(ref[:, None, :] - found[None, :, :], axis=2) <= SPURIOUS_TOL
    all_within = bool(near.any(axis=0).all())
    spurious = SpuriousSearch(
        seeds_used=search.seeds_used,
        converged_points=[[float(c) for c in p] for p in search.points],
        all_within_tol=all_within,
        abandoned=search.abandoned,
        singular=search.singular,
        newton_recall=float(near.any(axis=1).mean()),
    )
    return CertReport(
        per_point=per,
        spurious=spurious,
        box=box,
        grad=grad,
        overall_pass=all(c.passed for c in per) and all_within,
    )
