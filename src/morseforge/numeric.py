"""Batched float evaluation of polynomials and polynomial maps.

The exact kernel is far too slow for 10^4 Newton seeds or 10^3 flow
trajectories, so numeric routines compile polynomials to numpy data once and
evaluate whole batches of points per call.  One class, CompiledPoly, takes a
polynomial or a map and evaluates all of its components in one call; a
point's values depend on that point alone, never on the batch around it.

Every dimension has one algorithm, sparse recursive Horner, which is more
accurate than a sum of expanded monomials.  Stage s runs Horner in x_s over
the values of stage s-1 (stage 0: the coefficients, a missing one an
explicit zero) for every (polynomial, e_{s+1}, ..., e_{n-1}) exponent tail
that occurs.  A chain starts as c_top + x * 0 and goes on as c + r * x, the
operations of numpy's polyval, so plane values are bit for bit polyval2d's
at finite points.  Points go through in blocks of the instance's width,
derived once at compile time from stage 0's chains (see MAX_WIDTH): 512 for
the census field of a four-point set in R^3 (18 chains), 128 for a
sixteen-point set in the plane (467 chains), 32 for a twelve-point set in
R^3 (1248 chains).

A call's values are component-major.  Horner computes one row per component
over a block's points, and the last gather of each block writes its rows
straight into one C-contiguous (K, N) array of the call's own, with no
staging buffer and no transposing copy, so no call returns memory that an
earlier call returned or that the instance keeps.  CompiledPoly.by_component
is the one place where the two point layouts meet: it takes points
component-major, (dim, N), as the float verifier keeps them throughout, and
returns that array itself.  It does so by way of a call on the transposed
points, so that every evaluation goes through __call__, where perfbench's
tracer counts calls and rows.  A call keeps the row-major contract, points
(..., dim) to values (..., K), the array's transposed view, for
export-grid's P column.

Each distinct polynomial of a map is compiled and evaluated once, and equal
components read its one row of values.  Every Horner step, in every stage,
multiplies and adds contiguous arrays of equal shapes, the cheapest numpy
dispatch (a broadcast add costs about twice as much on a small block): stage
0 reads its coefficient table, gathered at compile time, repeated to the
width of the block, and x is repeated to one row per chain.

An instance keeps one call plan, built at the first call and rebuilt only
when a call needs another block width.  A call of N points runs at the power
of two at or above N, at most the instance's width, so batches that shrink
or grow within a power of two (the census's, the flow's) reuse the plan; a
call past the width runs full blocks and pads its last block to the width.
A finer rule (N rounded up to its three leading bits) wasted fewer padded
columns but rebuilt the plan so often that the census ran no faster.
The plan holds stage 0's table repeated to the plan width and one
workspace array: a Horner state and repeated x rows, whose leading rows
every stage uses in turn, and the rows a later stage gathers from the stage
before; the (state, x, coefficient) views of every Horner step are taken
once.  A call refills x, zeroes the state and runs the steps over those
views; the padded columns never reach an output.  So an instance holds,
between calls, (stage-0 rows + 2 x stage-0 chains + 1 + the most rows of a
later stage) x (plan width) doubles: 1.1 MB for the census field of a
four-point set in R^3 (215 + 37 + 18 rows, width 512), about 24 MB for
the sixteen-point plane set above (22043 stage-0 rows, width 128).  The
plan of a new width replaces the old one, so at most one is alive per
instance.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from ._rat import CoefficientTooLarge
from .poly import MultiPoly, PolyMap

# A call runs its points in blocks of CompiledPoly.width, derived at compile
# time: the largest power of two, at most MAX_WIDTH, at which stage 0's
# Horner state (one row per chain, the most of any stage) holds at most
# MAX_STATE doubles.  A narrow block costs numpy dispatch per point; a wide
# one runs the many chains of a large map out of cache.
MAX_WIDTH = 512
MAX_STATE = 2 ** 16


def _float(value, what: str = "a polynomial coefficient") -> float:
    try:
        return float(value)
    except OverflowError as exc:
        raise CoefficientTooLarge(f"{what} is too large for float evaluation") from exc


class CompiledPoly:
    """A polynomial (shape ()) or a PolyMap (shape (m,)); a call maps points
    of shape (..., dim) to values of shape (..., *shape), and by_component
    maps points (dim, N) to values (*shape, N).

    An instance keeps one call plan, its Horner workspace, between calls
    (see the module docstring), so it is not for concurrent use from
    threads; no call returns memory that the plan or another call holds."""

    def __init__(self, polys):
        if isinstance(polys, MultiPoly):
            flat, self.shape, self.dim = [polys], (), polys.dim
        else:
            flat, self.shape, self.dim = polys.components, (polys.codomain_dim,), polys.domain_dim
        # each distinct polynomial is compiled once; where[i] is the
        # position of component i among them
        distinct: dict = {}
        where = [distinct.setdefault(p, len(distinct)) for p in flat]
        # a zero polynomial becomes 0 * (the constant monomial), so that
        # every polynomial owns at least one term
        items = [p.sorted_terms() or [((0,) * self.dim, 0)] for p in distinct]
        # one row per coefficient, and a last row of zero
        coefs = np.array([[_float(c)] for terms in items for _, c in terms] + [[0.0]])
        keys = [(k, *e) for k, terms in enumerate(items) for e, _ in terms]
        # Stage s turns the rows of stage s-1, keyed (k, e_s, *tail), into
        # one Horner chain in x_s per (k, *tail), sorted by falling top degree
        # so that the chains alive at a degree come first.  A stage is the
        # row of each alive chain's coefficient at each degree from the top,
        # and (a, offsets of its degrees in those rows) for each run of
        # degrees with the same number a of chains alive.  A missing
        # coefficient reads the row just past stage s-1's rows, which is
        # zero: the last coefficient row, or the state row past the chains.
        # The last stage has one chain per polynomial.
        self._stages = []
        for _ in range(self.dim):
            zero = len(keys)
            chains: dict = {}
            for row, (k, e, *tail) in enumerate(keys):
                chains.setdefault((k, *tail), {})[e] = row
            keys = sorted(chains, key=lambda t: -max(chains[t]))
            tops = [max(chains[t]) for t in keys]
            rows, runs = [], []
            for a, run in groupby(range(tops[0], -1, -1), key=lambda j: sum(d >= j for d in tops)):
                start = len(rows)
                rows += [chains[t].get(j, zero) for j in run for t in keys[:a]]
                runs.append((a, range(start, len(rows), a)))
            self._stages.append((np.array(rows, dtype=np.intp), runs))
        # stage 0's rows are the coefficients themselves, gathered here once
        self._table = coefs.take(self._stages[0][0], axis=0)
        chains = self._stages[0][1][-1][0]
        self.width = min(MAX_WIDTH, 1 << max(0, (MAX_STATE // chains).bit_length() - 1))
        self._order = np.argsort([k for k, in keys])[where]
        self._plan = None

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        """The values at pts (..., dim), shape (..., *shape): the transposed
        view of the call's own C-contiguous (K, N) array."""
        pts = np.asarray(pts, dtype=np.float64)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points have dim {pts.shape[-1]}, expected {self.dim}")
        x = pts.reshape(-1, self.dim).T
        n = x.shape[1]
        vals = np.empty((len(self._order), n))
        if n:
            width = min(self.width, 1 << (n - 1).bit_length())
            if self._plan is None or self._plan.width != width:
                self._plan = None  # one plan alive at a time
                self._plan = _CallPlan(self._table, self._stages, self._order, width)
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(0, n, width):
                    self._plan.run(x[:, i:i + width], vals[:, i:i + width])
        return vals.T.reshape(pts.shape[:-1] + self.shape)

    def by_component(self, x: np.ndarray) -> np.ndarray:
        """The values at points given component-major, x (dim, N), shape
        (*shape, N): the C-contiguous array a call on x.T computes, of
        which the call returns the transpose."""
        return self(x.T).T


class _CallPlan:
    """A CompiledPoly's Horner workspace for blocks of at most width points,
    and the views of every Horner step into it."""

    def __init__(self, table: np.ndarray, stages: list, order: np.ndarray, width: int):
        self.width, self._order = width, order
        chains = stages[0][1][-1][0]
        later = max((len(rows) for rows, _ in stages[1:]), default=0)
        # stage 0 reads its table repeated to the width; the workspace rows
        # are the state, with a row past the chains, zero at every stage,
        # which the next stage gathers for a missing coefficient; the
        # repeated x rows, whose columns past a block's points keep values
        # of earlier blocks, finite or not, which reach no output; and the
        # later stages' coefficients
        self.table = table.repeat(width, axis=1)
        self.workspace = np.zeros((2 * chains + 1 + later, width))
        self._state, xs, gathered = np.split(self.workspace, [chains + 1, 2 * chains + 1])
        self._stages = []
        for s, (rows, runs) in enumerate(stages):
            coefs = self.table if s == 0 else gathered[:len(rows)]
            chains = runs[-1][0]
            state, steps = self._state[:chains + 1], []
            for a, offsets in runs:
                live, xa = state[:a], xs[:a]
                steps += [(live, xa, coefs[o:o + a]) for o in offsets]
            self._stages.append((rows if s else None, coefs, state, xs[:chains], steps))

    def run(self, x: np.ndarray, out: np.ndarray) -> None:
        """The polynomials at the points x (dim, m), m <= width, written to
        out (K, m)."""
        m = x.shape[1]
        for xv, (rows, coefs, state, xs, steps) in zip(x, self._stages):
            if rows is not None:
                # the indices are valid; mode "clip" lets take write
                # straight into the contiguous buffer, where "raise" would
                # stage a copy
                self._state.take(rows, 0, coefs, "clip")
            # a chain is zero until its top degree, where r * x + c_top is
            # c_top + x * 0
            state.fill(0.0)
            xs[:, :m] = xv
            for live, xa, c in steps:
                live *= xa
                live += c
        self._state[:, :m].take(self._order, 0, out, "clip")
