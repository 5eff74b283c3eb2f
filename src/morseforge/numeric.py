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
at finite points.  Points go through in blocks of BLOCK in every dimension.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .poly import MultiPoly, PolyMap

# points per block, which bounds each stage's table of values
BLOCK = 256


class CoefficientTooLarge(ValueError):
    """A coefficient or a point coordinate whose magnitude does not fit in a
    double."""


def _float(value, what: str = "a polynomial coefficient") -> float:
    try:
        return float(value)
    except OverflowError as exc:
        raise CoefficientTooLarge(f"{what} is too large for float evaluation") from exc


class CompiledPoly:
    """A polynomial (shape ()) or a PolyMap (shape (m,)); a call maps points
    of shape (..., dim) to values of shape (..., *shape)."""

    def __init__(self, polys):
        if isinstance(polys, MultiPoly):
            flat, self.shape, self.dim = [polys], (), polys.dim
        else:
            flat, self.shape, self.dim = polys.components, (polys.codomain_dim,), polys.domain_dim
        # a zero polynomial becomes 0 * (the constant monomial), so that
        # every polynomial owns at least one term
        items = [p.sorted_terms() or [((0,) * self.dim, 0)] for p in flat]
        # one row per coefficient, and a last row of zero
        self._coefs = np.array([[_float(c)] for terms in items for _, c in terms] + [[0.0]])
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
        self._order = np.argsort([k for k, in keys])

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points have dim {pts.shape[-1]}, expected {self.dim}")
        x = pts.reshape(-1, self.dim)
        vals = np.empty((len(x), len(self._order)))
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(0, len(x), BLOCK):
                vals[i:i + BLOCK] = self._horner(x[i:i + BLOCK].T).T
        return vals.reshape(pts.shape[:-1] + self.shape)

    def _horner(self, x: np.ndarray) -> np.ndarray:
        """The polynomials at the points x (dim, N), shape (K, N)."""
        values = self._coefs
        for xv, (rows, runs) in zip(x, self._stages):
            coefs = values.take(rows, axis=0)
            # a chain is zero until its top degree, where r * x + c_top is
            # c_top + x * 0; the row past the chains stays zero
            chains = runs[-1][0]
            r = np.zeros((chains + 1, len(xv)))
            xs = np.repeat(xv[None], chains, axis=0)  # equal shapes multiply fastest
            for a, offsets in runs:
                live, xa = r[:a], xs[:a]
                for o in offsets:
                    live *= xa
                    live += coefs[o:o + a]
            values = r
        return values[self._order]
