"""Independent numeric verification layer.

Everything here treats the synthesized objects as claims under test: a
Newton search for critical points the construction says cannot exist,
adaptive integration of the descent flow with convergence classification,
and certify, which rebuilds the gradient and Hessians from a bundle's P
alone, compares the stored claims with them and decides verify's one
verdict.  The descent field -grad P has one derivation, synth.descent_field,
which certify and the flow commands share; no stored field is integrated
or searched.  Every float evaluation goes through numeric.CompiledPoly,
whose value at a point does not depend on the batch it is evaluated in: a
field, a Lyapunov function, or a field with its Jacobian (field_jacobian,
the one evaluator that Newton, its polish and the flows share) is compiled
once and evaluated over a whole batch of points per call.

Newton runs in two phases: a fast float phase over the whole seed grid, then
an exact-arithmetic polish of one candidate per critical point.  Each float
iteration makes one field_jacobian call that returns the gradient and the
Hessian together, and one batched Newton step over every live row that
gives both the next iterate of a row still searching and the float Newton
image x - J^-1 g of a row accepted as a candidate.  _newton_step, which
the polish shares, writes the step for n <= 3 in closed form, cofactors
over the determinant, so that each row's step depends on its own J and g
alone; for n >= 4 it is LAPACK's batched solve.  A row is live while it lies
in the guard box, clipped to the finite doubles so that it holds no NaN or
infinite coordinate, and its gradient is finite.  The seeds lie in the box,
and each next iterate is tested against it in the one compaction that also
drops the candidates and the singular rows, so a row that has left the box
is never evaluated; the finiteness of the gradient is tested after the
evaluation.  Each mask is built one column at a time, the rows are
compacted only when some leave, |grad| is taken on the live rows alone by
_row_norms (column sums of squares, the bits of np.linalg.norm on rows of
fewer than eight entries), which also finds the blind points, and
candidates are kept only on an iteration that finds some.  A row whose
step is not finite, as where a closed-form determinant is exactly 0 (for
n >= 4, where LAPACK meets an exactly zero pivot), is counted singular and
dropped, and a candidate's image is then NaN.
Deduplication loops over representatives, not candidates: with the
candidates sorted on their first coordinate, each new representative drops
every candidate within DEDUP_TOL of it among those within 2 DEDUP_TOL on
that coordinate, in one row-wise distance.  The representatives are
polished in order, except one whose image lies within DEDUP_TOL of a point
already polished: its polish would land there too and the final dedup of
the polished points would drop it, so the census reports what polishing
every representative would, at about one polish per point.  A failed polish
marks nothing, and a candidate without an image is always polished.  Float
evaluation of the gradient, even by Horner's rule, has a cancellation noise
floor near X far above the residual target RESIDUAL_TOL (1e-10 to 2e-9 on
four-point sets), so the final residual is evaluated exactly (rational
arithmetic at the float iterate) and only then compared against the target.
The report, NewtonResult, counts both limits: blind, the claimed points
where the float |grad| is at or above COARSE_TOL, so that no seed can be
accepted there, and polish_failed, the representatives whose exact polish
failed.  It also gives coverage, the share of seeds neither abandoned nor
singular, and degraded, set when the recall is below 1 or a point is blind;
neither enters overall_pass.
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
same loop evaluates and guards nothing beyond the field), and solves three
systems against one W = I - h d J (one inverse, three products; NaN where W
is exactly singular, which makes the proposal non-finite).  The evaluation at
an accepted proposal starts the next step and classifies convergence
(GRAD_TOL, POINT_TOL; target distances only where |field| < GRAD_TOL,
|field| by the census's _row_norms).  The accepted rows are copied into
the state by masked copies, its only update.  The per-row state is
compacted, and the rows that finished written back, only on a pass where
some trajectory leaves.  A proposal that fails the error test, leaves the
guard box, goes non-finite, or increases the Lyapunov value beyond half of
LYAP_STEP_TOL is rejected and the step shrunk.  A trajectory is
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
from ._rat import GridTooLarge, rat
from .numeric import CompiledPoly, _float
from .poly import MultiPoly, PolyMap
from .serialize import ParsedBundle
from .synth import descent_field


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


def _guard_bounds(box: BoxSpec) -> List[Tuple[float, float]]:
    """One (lower, upper) pair per column: the guard box clipped to the
    finite doubles.  The guard of a box near the largest double overflows
    to infinity; clipped, it holds no NaN or infinite coordinate."""
    big = np.finfo(float).max
    lo, hi = box.guard()
    return list(zip(np.maximum(lo, -big).tolist(), np.minimum(hi, big).tolist()))


def _inside(x: np.ndarray, bounds) -> np.ndarray:
    """The rows of x (N, n) within bounds, one (lower, upper) pair per
    column.  The mask is built one column at a time, which on tens of rows
    or more costs less than comparing the whole array with broadcast
    corners."""
    mask = np.ones(len(x), dtype=bool)
    for j, (lo, hi) in enumerate(bounds):
        mask &= x[:, j] >= lo
        mask &= x[:, j] <= hi
    return mask


def _row_norms(g: np.ndarray) -> np.ndarray:
    """|g| per row of g (N, n): the squares summed a column at a time, in
    column order, then the square root.  numpy's np.add.reduce sums a row
    of fewer than eight entries in the same order, so for those the bits
    are np.linalg.norm's; on many short rows the column sums cost a fifth
    as much as a reduction along each row."""
    col = g[:, 0]
    sq = col * col
    for j in range(1, g.shape[1]):
        col = g[:, j]
        sq += col * col
    return np.sqrt(sq, out=sq)


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
    # rows whose Newton step was not finite: a closed-form determinant of
    # exactly 0 (n <= 3) or LAPACK's exactly zero pivot (n >= 4)
    singular: int
    blind: int  # claimed points the float phase cannot accept
    polish_failed: int  # representatives whose exact polish failed
    near: np.ndarray  # near[i, j]: claimed point i within SPURIOUS_TOL of points[j]

    @property
    def all_within_tol(self) -> bool:
        """Every found point lies within SPURIOUS_TOL of a claimed one."""
        return bool(self.near.any(axis=0).all())

    @property
    def newton_recall(self) -> float:
        """Share of claimed points within SPURIOUS_TOL of a found one."""
        return float(self.near.any(axis=1).mean())

    @property
    def coverage(self) -> float:
        """Share of seeds that the float phase neither abandoned nor dropped
        as singular."""
        return (self.seeds_used - self.abandoned - self.singular) / self.seeds_used

    @property
    def degraded(self) -> bool:
        """The census missed a claimed point or could not accept one."""
        return self.newton_recall < 1 or self.blind > 0

    def to_obj(self) -> dict:
        return {
            "seeds_used": self.seeds_used,
            "converged_points": [p.tolist() for p in self.points],
            "all_within_tol_of_X": self.all_within_tol,
            "tol": SPURIOUS_TOL,
            "abandoned": self.abandoned,
            "singular": self.singular,
            "blind": self.blind,
            "polish_failed": self.polish_failed,
            "newton_recall": self.newton_recall,
            "coverage": self.coverage,
            "degraded": self.degraded,
        }


def _first_come(points: np.ndarray, tol: float) -> List[int]:
    """Indices of the greedy first-come representatives of finite points:
    each point farther than tol from every earlier representative becomes
    one, and drops every later point within tol of it.

    A point within tol of a representative differs from it by at most tol
    in the first coordinate, so the points are sorted on that coordinate
    and each representative measures only the points within 2 tol of it
    there; the factor 2 covers the rounding of the window's bounds."""
    points = np.asarray(points)
    if not len(points):
        return []
    # the array methods, not their np.* wrappers: the fixed cost matters on
    # the few polished points of the final dedup
    order = points[:, 0].argsort(kind="stable")
    pts = points.take(order, axis=0)
    first = pts[:, 0]
    lo = first.searchsorted(first - 2 * tol, "left").tolist()
    hi = first.searchsorted(first + 2 * tol, "right").tolist()
    alive = np.ones(len(pts), dtype=bool)
    reps: List[int] = []
    # point i sits at position p of the sorted order
    for i, p in enumerate(order.argsort().tolist()):
        if not alive[p]:
            continue
        reps.append(i)
        a, b = lo[p], hi[p]
        if b - a > 1:
            diff = pts[a:b] - pts[p]
            # a (1, n) @ (n, 1) product per row is the dot product that
            # np.linalg.norm takes of one vector, so the distances match it;
            # every earlier point in the window is a representative or
            # dropped already, so masking it again changes nothing
            sq = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
            alive[a:b] &= np.sqrt(sq) > tol
    return reps


def _dedup(points: np.ndarray, tol: float) -> List[np.ndarray]:
    """The first-come representatives themselves, in order."""
    points = np.asarray(points)
    return [points[i] for i in _first_come(points, tol)]


def field_jacobian(field: PolyMap, lyap: Optional[MultiPoly] = None) -> Callable:
    """Compile a field and its Jacobian into one evaluator that maps points
    (..., n) to the field (..., n) and the Jacobian (..., n, n); given lyap,
    a scalar polynomial, it returns lyap's values (...) as a third output
    from the same call.  The components, the entries and lyap form one
    CompiledPoly, which compiles each distinct polynomial among them once,
    so a gradient's equal mixed partials are evaluated once."""
    n = field.domain_dim
    entries = [*field.components, *(e for row in field.jacobian() for e in row)]
    if lyap is not None:
        entries.append(lyap)
    compiled = CompiledPoly(PolyMap(entries, n))

    def evaluate(pts: np.ndarray) -> Tuple[np.ndarray, ...]:
        vals = compiled(pts)
        f = vals[..., :n]
        jac = vals[..., n:n + n * n].reshape(vals.shape[:-1] + (n, n))
        return (f, jac) if lyap is None else (f, jac, vals[..., -1])

    return evaluate


def _lapack(fn: Callable, a: np.ndarray, *rest) -> np.ndarray:
    """fn over a batch of matrices a: np.linalg.inv for the flow's W, and
    np.linalg.solve for the Newton steps of _newton_step at n >= 4.  Only
    when LAPACK raises are the rows with an exactly zero pivot found
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


def _cramer(jac: np.ndarray, g: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """J^-1 g per row for n <= 3, and det J: the cofactors over the
    determinant, each entry an array over the rows.  A row whose
    determinant is 0 gets a step that is not finite."""
    n = g.shape[1]
    if n == 1:
        return g / jac[:, :, 0], jac[:, 0, 0]
    if n == 2:
        a, b, c, d = (jac[:, i, j] for i in range(2) for j in range(2))
        det = a * d - b * c
        step = np.empty_like(g)
        step[:, 0] = d * g[:, 0] - b * g[:, 1]
        step[:, 1] = a * g[:, 1] - c * g[:, 0]
        step /= det[:, None]
        return step, det
    # e[i, j] is the entry (i % 3, j % 3) of J, an array over the rows, so
    # that the cyclic rule gives all nine cofactors C[i, j] at once
    e = jac.transpose(1, 2, 0).take([0, 1, 2, 0, 1], axis=0).take([0, 1, 2, 0, 1], axis=1)
    cof = e[1:4, 1:4] * e[2:5, 2:5] - e[1:4, 2:5] * e[2:5, 1:4]
    det = e[0, 0] * cof[0, 0] + e[0, 1] * cof[0, 1] + e[0, 2] * cof[0, 2]
    r = g.T
    step = cof[0] * r[0] + cof[1] * r[1] + cof[2] * r[2]
    step /= det
    return step.T, det


def _newton_step(jac: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The Newton step J^-1 g of each row of jac (N, n, n) and g (N, n).

    For n <= 3 it is the closed form of _cramer, so a row's step depends on
    that row's J and g alone, and a row whose determinant is exactly 0 gets
    a step that is not finite.  A row whose step is not finite, or whose
    determinant is not a finite normal double (its products overflowed or
    underflowed, which can also leave a finite but wrong step), is solved
    once more with J and g scaled by powers of two to a largest entry in
    [1/2, 1), and its step scaled back exactly.  Products that underflow
    while the determinant stays normal (g some 150 orders of magnitude
    below J) are not retried.  For n >= 4 the step is LAPACK's, through
    _lapack, NaN where it meets an exactly zero pivot."""
    n = g.shape[1]
    if n > 3:
        return _lapack(np.linalg.solve, jac, g[..., None])[..., 0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        step, det = _cramer(jac, g)
        det = np.abs(det)
        ok = det >= np.finfo(float).tiny
        ok &= det < np.inf
        for j in range(n):
            ok &= np.isfinite(step[:, j])
        bad = ~ok
        if bad.any():
            jac, g = jac[bad], g[bad]
            ej = np.frexp(np.abs(jac).max(axis=(1, 2)))[1]
            eg = np.frexp(np.abs(g).max(axis=1))[1]
            scaled = _cramer(np.ldexp(jac, -ej[:, None, None]), np.ldexp(g, -eg[:, None]))[0]
            step[bad] = np.ldexp(scaled, (eg - ej)[:, None])
    return step


def _polish_exact(grad: PolyMap, grad_hess: Callable, x0: np.ndarray):
    """Newton refinement with the gradient evaluated exactly at the float
    iterate; accepts only if the exact residual norm reaches the target.
    A residual past the double range, or a step that is not finite, fails
    the polish."""
    x = np.array(x0, dtype=float)
    for attempt in range(POLISH_ITER + 1):
        exact_pt = [rat(float(c)) for c in x]
        try:
            g = np.array([float(comp.eval_rational(exact_pt)) for comp in grad.components])
        except OverflowError:  # an exact residual past the double range
            return None
        # a finite g past about 1e154 overflows the norm to inf: not converged
        with np.errstate(over="ignore"):
            if np.linalg.norm(g) < RESIDUAL_TOL:
                return x
        if attempt == POLISH_ITER:
            return None
        step = _newton_step(grad_hess(x[None, :])[1], g[None, :])[0]
        if not np.isfinite(step).all():
            return None
        x = x - step
    return None


def newton_search(
    grad: PolyMap, box: BoxSpec, seeds_per_axis: int, claimed=()
) -> NewtonResult:
    """Newton iteration on grad = 0 from a uniform seed grid over box.

    Converged points are deduplicated at DEDUP_TOL and certified by the
    exact-residual polish, one per critical point, before being reported.
    blind counts the claimed float points where the search's own evaluator
    gives |grad| >= COARSE_TOL or a value that is not finite: the float
    phase cannot accept a seed there, however close it comes."""
    if seeds_per_axis < 2:
        raise ValueError("seeds_per_axis must be >= 2")
    grad_hess = field_jacobian(grad)
    seeds = box.grid(seeds_per_axis)
    claimed = np.asarray(claimed, dtype=float).reshape(-1, box.dim)
    at_claimed = grad_hess(claimed)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        blind = int(np.count_nonzero(~(_row_norms(at_claimed) < COARSE_TOL)))

    x = seeds
    abandoned = 0
    singular = 0
    candidates: List[np.ndarray] = []
    images: List[np.ndarray] = []
    bounds = _guard_bounds(box)
    for _ in range(MAX_ITER):
        if len(x) == 0:
            break
        # a row stays live while it lies in the guard box and its gradient
        # is finite; the seeds lie in the box, and each next iterate is
        # tested against it below, so that a row outside it is never
        # evaluated
        g, jac = grad_hess(x)
        finite = np.isfinite(g[:, 0])
        for j in range(1, box.dim):
            finite &= np.isfinite(g[:, j])
        rows = finite.nonzero()[0]
        if len(rows) < len(x):
            abandoned += len(x) - len(rows)
            x, g, jac = x.take(rows, axis=0), g.take(rows, axis=0), jac.take(rows, axis=0)
        # a finite gradient past about 1e154 squares to inf, which only
        # means "not converged"
        with np.errstate(over="ignore"):
            conv = _row_norms(g) < COARSE_TOL
        # one Newton step for every live row: the next iterate of a row still
        # searching, the float image of a candidate; a row whose step is not
        # finite (as where its Jacobian is exactly singular) is dropped
        step = _newton_step(jac, g)
        x_next = x - step
        keep = np.isfinite(step[:, 0])
        for j in range(1, box.dim):
            keep &= np.isfinite(step[:, j])
        found = int(np.count_nonzero(conv))
        if found:
            candidates.append(x[conv])
            images.append(x_next[conv])
            keep &= ~conv
        stepped = int(np.count_nonzero(keep))
        singular += len(x) - found - stepped
        # a next iterate outside the guard box is abandoned in the same
        # compaction, before it reaches the evaluator
        keep &= _inside(x_next, bounds)
        kept = int(np.count_nonzero(keep))
        abandoned += stepped - kept
        x = x_next if kept == len(x) else x_next[keep]
    abandoned += len(x)  # hit the iteration cap without settling

    # Polish the representatives in order, skipping one whose image already
    # lies within DEDUP_TOL of a polished point: its own polish would land
    # there too, and the final dedup would drop it.  A NaN image is never
    # within DEDUP_TOL, and a failed polish adds no point.
    candidates = np.concatenate(candidates or [np.empty((0, box.dim))])
    images = np.concatenate(images or [np.empty((0, box.dim))])
    polished = np.empty((0, box.dim))
    polish_failed = 0
    for i in _first_come(candidates, DEDUP_TOL):
        if (np.linalg.norm(polished - images[i], axis=1) <= DEDUP_TOL).any():
            continue
        point = _polish_exact(grad, grad_hess, candidates[i])
        if point is None:
            polish_failed += 1
        else:
            polished = np.vstack([polished, point])
    points = _dedup(polished, DEDUP_TOL)
    found = np.asarray(points, dtype=float).reshape(-1, box.dim)
    return NewtonResult(
        points=points,
        seeds_used=len(seeds),
        abandoned=abandoned,
        singular=singular,
        blind=blind,
        polish_failed=polish_failed,
        near=np.linalg.norm(claimed[:, None, :] - found[None, :, :], axis=2) <= SPURIOUS_TOL,
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
    Without lyap nothing is guarded, evaluated or recorded for it, and
    max_step_increase stays 0.  Every row keeps its own time and step size;
    each pass over the loop makes one step attempt for every active row."""
    cfg = cfg or FlowConfig()
    fc = CompiledPoly(field)
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    B, n = starts.shape
    guarded = lyap is not None
    fj = field_jacobian(field, lyap)
    tg = _float_points(targets)
    bounds = _guard_bounds(box)
    h_min = cfg.dt * MIN_STEP_RATIO
    eye = np.eye(n)

    ends = starts.copy()
    steps = np.zeros(B, dtype=np.int64)
    attempts = np.zeros(B, dtype=np.int64)
    max_inc = np.zeros(B)
    reason = np.full(B, None, dtype=object)

    # the loop calls the ufuncs that np.linalg.norm, np.mean, np.clip and
    # np.maximum.at would, with the same bits and without their per-call
    # cost, and repeats a per-row factor to the shape it multiplies, since
    # numpy dispatches equal shapes fastest
    def classify(pts, g):
        """|g| per row, and the index of the target each row has converged
        to (-1 for none): |g| < GRAD_TOL within POINT_TOL of it."""
        gn = _row_norms(g)
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
        # next step, steps and largest Lyapunov increase so far (the lyap
        # arrays only with lyap); the rows are compacted, and the finished
        # ones written back, only on a pass where one leaves.  Every row
        # still active has made one attempt per pass.
        f0, jac, *va = fj(starts)
        # seeds already at a target converge in 0 steps
        gnorm, conv_idx = classify(starts, f0)
        keep = conv_idx < 0
        status = np.where(keep, STATUS_ACTIVE, STATUS_CONVERGED)
        idx, xa, f0, jac = np.flatnonzero(keep), starts[keep], f0[keep], jac[keep]
        t = np.zeros(len(idx))
        h = np.full(len(idx), cfg.dt)
        taken = np.zeros(len(idx), dtype=np.int64)
        if guarded:
            va, inc_max = va[0][keep], np.zeros(len(idx))
        passes = 0

        while len(idx):
            passes += 1
            rest = cfg.t_max - t
            last = h >= rest
            ht = np.minimum(h, rest)
            col = ht.repeat(n).reshape(-1, n)
            w_inv = _lapack(np.linalg.inv, eye - (_D * ht).repeat(n * n).reshape(-1, n, n) * jac)
            k1 = _solve(w_inv, f0)
            f1 = fc(xa + 0.5 * col * k1)
            k2 = _solve(w_inv, f1 - k1) + k1
            xn = xa + col * k2
            f2, jn, *vn = fj(xn)
            k3 = _solve(w_inv, f2 - _E32 * (k2 - f1) - 2.0 * (k1 - f0))
            scale = ATOL + RTOL * np.maximum(np.abs(xa), np.abs(xn))
            q = (col / 6.0 * (k1 - 2.0 * k2 + k3) / scale) ** 2
            err = np.sqrt(np.add.reduce(q, axis=1) / n)
            hard_ok = _inside(xn, bounds)  # finite and inside the guard box
            guard_ok = hard_ok
            if guarded:
                inc = vn[0] - va
                finite_inc = np.isfinite(inc)
                guard_ok = hard_ok & ~(finite_inc & (inc > 0.5 * LYAP_STEP_TOL))
            # a NaN err fails the error test and, through fmax, takes
            # MIN_FACTOR, as an infinite one does
            fac = np.minimum(np.fmax(0.9 * err ** (-1.0 / 3.0), MIN_FACTOR), MAX_FACTOR)
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
            if guarded:
                np.copyto(va, vn[0], where=acc)
            np.add(t, ht, out=t, where=acc)
            taken += acc
            if guarded:
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
            gnorm[gone], conv_idx[gone] = gn[leave], near[leave]
            status[idx[conv]] = STATUS_CONVERGED
            status[idx[timeout]] = STATUS_TIMEOUT
            status[idx[diverged]] = STATUS_DIVERGED
            reason[idx[out_of_time]] = "t_max"
            reason[idx[out_of_budget]] = "step_budget"
            keep = ~leave
            idx, xa, f0, jac, t, h, taken = (a[keep] for a in (idx, xa, f0, jac, t, h, taken))
            if guarded:
                max_inc[gone] = inc_max[leave]
                va, inc_max = va[keep], inc_max[keep]

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
class CertReport:
    per_point: List[PointCert]
    spurious: NewtonResult
    box: BoxSpec
    # the bundle's stored claims against what P gives
    minors_match_bundle: bool
    hessians_match_bundle: bool
    grad_field_consistent: bool

    @property
    def overall_pass(self) -> bool:
        """The verdict: every point passes, every found point is claimed and
        every stored claim matches."""
        stored = (self.minors_match_bundle, self.hessians_match_bundle, self.grad_field_consistent)
        points = all(c.passed for c in self.per_point)
        return points and self.spurious.all_within_tol and all(stored)

    def to_obj(self) -> dict:
        return {
            "per_point": [p.to_obj() for p in self.per_point],
            "spurious_search": self.spurious.to_obj(),
            "box": self.box.to_obj(),
            "overall_pass": self.overall_pass,
            "minors_match_bundle": self.minors_match_bundle,
            "hessians_match_bundle": self.hessians_match_bundle,
            "grad_field_consistent": self.grad_field_consistent,
        }


def certify(
    bundle: ParsedBundle,
    box: Optional[BoxSpec] = None,
    seeds_per_axis: Optional[int] = None,
) -> CertReport:
    """Exact certification of P at the claimed critical points, a numeric
    search for critical points of P anywhere else in the box, and the verdict.

    The descent field -grad P (synth.descent_field, the derivation every
    command shares) and the Hessians are derived from the bundle's p; its
    stored grad_field, hessians and minors (one row per point) are only
    claims compared with them.  Failures become report entries; only a seed
    grid over MAX_GRID_POINTS (GridTooLarge) and a coefficient of P or a
    point coordinate past the double range (numeric.CoefficientTooLarge)
    raise."""
    points = bundle.pointset.points
    grad = descent_field(bundle.p)
    per = []
    for pt in points:
        residues = grad.eval_rational(pt)
        zero = all(r == 0 for r in residues)
        hessian = bundle.p.hessian_at(pt)
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
    return CertReport(
        per_point=per,
        spurious=newton_search(grad, box, seeds_per_axis, claimed=_float_points(points)),
        box=box,
        minors_match_bundle=len(bundle.minors) == len(per)
        and all(c.minors == stored for c, stored in zip(per, bundle.minors)),
        hessians_match_bundle=len(bundle.hessians) == len(per)
        and all(c.hessian == stored for c, stored in zip(per, bundle.hessians)),
        grad_field_consistent=grad == bundle.grad_field,
    )
