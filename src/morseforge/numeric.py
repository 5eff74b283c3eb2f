"""Batched float evaluation of polynomials, polynomial maps and matrices.

The exact kernel is far too slow for 10^4 Newton seeds or 10^3 flow
trajectories, so numeric routines compile polynomials to numpy data once and
evaluate whole batches of points per call.  One class, CompiledPoly, takes a
polynomial, a map or a matrix of polynomials and evaluates all of them in
one call.  Plane polynomials share one zero-padded coefficient array and one
polyval2d call.  Higher dimensions build one power table per variable,
x_v ** (0, 1, ..., d_v) up to that variable's largest exponent, so each
distinct power is computed once; the monomial table over the union of all
monomials multiplies one gathered column per variable, in variable order, and
each polynomial is a product of its own columns with its coefficients.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npp

from .poly import MultiPoly, PolyMap


class CompiledPoly:
    """A polynomial (shape ()), a PolyMap (shape (m,)) or a matrix of
    polynomials such as a Jacobian (shape (r, c)), all of one dimension;
    a call maps points of shape (..., dim) to values of shape (..., *shape).
    Outside the plane each polynomial is one BLAS matrix-vector product over
    the batch, whose summation order may depend on a row's place in it, so a
    point's value can differ in the last bit between batches."""

    def __init__(self, polys):
        if isinstance(polys, MultiPoly):
            flat, self.shape = [polys], ()
        elif isinstance(polys, PolyMap):
            flat, self.shape = list(polys.components), (polys.codomain_dim,)
        else:
            flat = [p for row in polys for p in row]
            self.shape = (len(polys), len(polys[0]))
        dims = {p.dim for p in flat}
        if len(dims) != 1 or len(flat) != math.prod(self.shape):
            raise ValueError("polynomials must share one dimension and fill the shape")
        self.dim = dims.pop()
        items = [p.sorted_terms() for p in flat]
        self._c2d = None
        if self.dim == 2:
            degs = np.array([e for terms in items for e, _ in terms] or [(0, 0)])
            self._c2d = np.zeros((*(degs.max(axis=0) + 1), len(flat)))
            for k, terms in enumerate(items):
                for (ex, ey), coef in terms:
                    self._c2d[ex, ey, k] = float(coef)
            return
        # one column per distinct monomial; each polynomial keeps its terms
        # in sorted order, so its product sums in the same order as alone
        table: dict = {}
        self._cols = [
            np.array([table.setdefault(e, len(table)) for e, _ in terms], dtype=np.intp)
            for terms in items
        ]
        self._coefs = [
            np.array([float(c) for _, c in terms], dtype=np.float64) for terms in items
        ]
        self._exps = np.array(list(table), dtype=np.int64).reshape(len(table), self.dim)
        self._powers = [np.arange(d + 1, dtype=np.int64)
                        for d in self._exps.max(axis=0, initial=0)]

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points have dim {pts.shape[-1]}, expected {self.dim}")
        with np.errstate(over="ignore", invalid="ignore"):
            if self._c2d is not None:
                vals = np.moveaxis(npp.polyval2d(pts[..., 0], pts[..., 1], self._c2d), 0, -1)
            else:
                # the product runs over variables 0, 1, ..., dim-1 like
                # np.prod(pts[..., None, :] ** exps, axis=-1), bit for bit
                mono = None
                for v, powers in enumerate(self._powers):
                    col = np.take(pts[..., v, None] ** powers, self._exps[:, v], axis=-1)
                    mono = col if mono is None else mono * col
                # np.take copies the columns C-contiguously; a fancy-index
                # gather would hand BLAS strided data and change the sums
                vals = np.stack(
                    [np.take(mono, cols, axis=-1) @ coefs
                     for cols, coefs in zip(self._cols, self._coefs)],
                    axis=-1,
                )
        return vals.reshape(pts.shape[:-1] + self.shape)
