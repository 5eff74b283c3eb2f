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

A call's values are component-major.  Horner computes one row per
component over a block's points, and the last gather of each block writes
its rows straight into one C-contiguous (K, N) array of the call's own, with
no staging buffer and no transposing copy, so no call returns memory that
an earlier call returned.  CompiledPoly.by_component is the one place where
the two point layouts meet: it takes points component-major, (dim, N), as
the float verifier keeps them throughout, and returns that array itself.
It does so by way of a call on the transposed points, so that every
evaluation goes through __call__, where perfbench's tracer counts calls and
rows.  A call keeps the row-major contract, points (..., dim) to values
(..., K), the array's transposed view, for export-grid's P column.

Each distinct polynomial of a map is compiled and evaluated once, and equal
components read its one row of values.  Stage 0's coefficient table is
gathered at compile time and repeated once per call, to the width of the
call's blocks, and every full block reuses it; a trailing partial block
gets its own table at its own width.  So every Horner step, like every
later stage, multiplies and adds contiguous arrays of equal shapes, the
cheapest numpy dispatch (a broadcast add costs about twice as much on a
small block).  The repeated table holds (stage-0 rows x min(N, width))
doubles: 880 KB for the census field of a four-point set in R^3 (215 rows,
width 512), 23 MB for the sixteen-point plane set above (22043 rows).
At most one table is alive at a time, and each stage's arrays are released
before the next stage's are made, so that holding the table through a
call's later stages leaves its peak memory where a table per block had it
(to within two array headers, by tracemalloc, on the census fields of the
perfbench verify sets and the tests' 8200-term polynomials).
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
    maps points (dim, N) to values (*shape, N)."""

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
        # row of each alive chain's coefficient at each degree from the top
        # (-1: a row of zero), and (a, offsets of its degrees in those rows)
        # for each run of degrees with the same number a of chains alive.
        # The last stage has one chain per polynomial.
        self._stages = []
        for _ in range(self.dim):
            chains: dict = {}
            for row, (k, e, *tail) in enumerate(keys):
                chains.setdefault((k, *tail), {})[e] = row
            keys = sorted(chains, key=lambda t: -max(chains[t]))
            tops = [max(chains[t]) for t in keys]
            rows, runs = [], []
            for a, run in groupby(range(tops[0], -1, -1), key=lambda j: sum(d >= j for d in tops)):
                start = len(rows)
                rows += [chains[t].get(j, -1) for j in run for t in keys[:a]]
                runs.append((a, range(start, len(rows), a)))
            self._stages.append((np.array(rows, dtype=np.intp), runs))
        # stage 0's rows are the coefficients themselves, gathered here once
        self._table = coefs.take(self._stages[0][0], axis=0)
        chains = self._stages[0][1][-1][0]
        self.width = min(MAX_WIDTH, 1 << max(0, (MAX_STATE // chains).bit_length() - 1))
        self._order = np.argsort([k for k, in keys])[where]

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        """The values at pts (..., dim), shape (..., *shape): the transposed
        view of the call's own C-contiguous (K, N) array."""
        pts = np.asarray(pts, dtype=np.float64)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points have dim {pts.shape[-1]}, expected {self.dim}")
        x = pts.reshape(-1, self.dim).T
        vals = np.empty((len(self._order), x.shape[1]))
        table = None
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(0, x.shape[1], self.width):
                block = x[:, i:i + self.width]
                # stage 0's table, repeated once to the width of the first
                # block and reused by every block of that width; a trailing
                # partial block gets its own, made after the full one is
                # released, so that one table at most is alive
                if table is None or table.shape[1] != block.shape[1]:
                    table = None
                    table = self._table.repeat(block.shape[1], axis=1)
                self._horner(block, table, vals[:, i:i + self.width])
        return vals.T.reshape(pts.shape[:-1] + self.shape)

    def by_component(self, x: np.ndarray) -> np.ndarray:
        """The values at points given component-major, x (dim, N), shape
        (*shape, N): the C-contiguous array a call on x.T computes, of
        which the call returns the transpose."""
        return self(x.T).T

    def _horner(self, x: np.ndarray, coefs: np.ndarray, out: np.ndarray) -> None:
        """The polynomials at the points x (dim, N), written to out (K, N),
        given stage 0's table repeated to width N."""
        values = None
        for xv, (rows, runs) in zip(x, self._stages):
            # stage 0 reads the repeated table, so that every Horner add
            # below has equal shapes, which numpy dispatches fastest; a later
            # stage gathers the values of the one before
            if values is not None:
                coefs = values.take(rows, axis=0)
                # the stage before is released before this one's arrays
                # are made, so that with the table held through the call no
                # more memory is alive at once than with a table per block
                del values, r, live, xs, xa
            # a chain is zero until its top degree, where r * x + c_top is
            # c_top + x * 0; the row past the chains stays zero
            chains = runs[-1][0]
            r = np.zeros((chains + 1, len(xv)))
            xs = xv[None].repeat(chains, axis=0)  # equal shapes multiply fastest
            for a, offsets in runs:
                live, xa = r[:a], xs[:a]
                for o in offsets:
                    live *= xa
                    live += coefs[o:o + a]
            values = r
        # the indices are valid; mode "clip" lets take write straight into
        # a contiguous out, where "raise" would stage a copy
        values.take(self._order, 0, out, "clip")
