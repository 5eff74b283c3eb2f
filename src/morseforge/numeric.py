"""Batched float evaluation of polynomials and polynomial maps.

The exact kernel is far too slow for 10^4 Newton seeds or 10^3 flow
trajectories, so numeric routines compile polynomials to numpy data once and
evaluate whole batches of points per call.  One class, CompiledPoly, takes a
polynomial or a map and evaluates all of its components in one call; a
point's values depend on that point alone, never on the batch around it.

Plane polynomials share one zero-padded coefficient array and one polyval2d
call.  This fork stays because Horner's rule is more accurate than a sum of
expanded monomials: the finite-difference check of acceptance criterion 5
has a worst relative error of 5.4e-6 through polyval2d, inside its bound of
1e-5, and 3.3e-5 through the monomial sums.  Other dimensions build one
power table per variable, x_v ** (0, 1, ..., d_v) up to that variable's
largest exponent, so each distinct power is computed once; the monomial
table over the union of all monomials multiplies one gathered row per
variable, in variable order.  Every term of every polynomial is then one
row of monomial values times its coefficient, and one np.add.reduceat call
sums each polynomial's own rows, in its own term order, for every point on
its own: no BLAS product, whose order could depend on a point's place in
the batch, and no shared zero-padded coefficient matrix.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npp

from .poly import MultiPoly, PolyMap

# points per block outside the plane, which bounds the size of the monomial
# and term tables
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
        self._c2d = None
        if self.dim == 2:
            degs = np.array([e for terms in items for e, _ in terms])
            self._c2d = np.zeros((*(degs.max(axis=0) + 1), len(flat)))
            for k, terms in enumerate(items):
                for (ex, ey), coef in terms:
                    self._c2d[ex, ey, k] = _float(coef)
            return
        # one row per distinct monomial, and one row per term of every
        # polynomial, its terms in sorted order and its own rows contiguous
        table: dict = {}
        self._rows = np.array(
            [table.setdefault(e, len(table)) for terms in items for e, _ in terms], dtype=np.intp
        )
        self._coefs = np.array([[_float(c)] for terms in items for _, c in terms])
        self._starts = np.cumsum([0] + [len(terms) for terms in items[:-1]])
        self._exps = np.array(list(table), dtype=np.int64)
        self._powers = [np.arange(d + 1, dtype=np.int64)[:, None] for d in self._exps.max(axis=0)]

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points have dim {pts.shape[-1]}, expected {self.dim}")
        with np.errstate(over="ignore", invalid="ignore"):
            if self._c2d is not None:
                vals = np.moveaxis(npp.polyval2d(pts[..., 0], pts[..., 1], self._c2d), 0, -1)
            else:
                x = pts.reshape(-1, self.dim)
                vals = np.concatenate(
                    [self._sums(x[i:i + BLOCK]) for i in range(0, max(len(x), 1), BLOCK)],
                    axis=1,
                ).T
        return vals.reshape(pts.shape[:-1] + self.shape)

    def _sums(self, x: np.ndarray) -> np.ndarray:
        """The polynomials at the points x (N, dim), shape (K, N)."""
        # monomials by points; the product runs over variables 0, 1, ...,
        # dim-1 like np.prod(x ** exps, axis=-1), bit for bit
        mono = None
        for v, powers in enumerate(self._powers):
            col = np.take(x[:, v] ** powers, self._exps[:, v], axis=0)
            mono = col if mono is None else mono * col
        # every term of every polynomial times its coefficient; each point
        # then sums each polynomial's own term rows on its own (reduceat:
        # the first plus numpy's pairwise sum of the rest)
        terms = np.take(mono, self._rows, axis=0)
        terms *= self._coefs
        return np.add.reduceat(terms, self._starts, axis=0)
