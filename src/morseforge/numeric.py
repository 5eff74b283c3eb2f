"""Batched float evaluation of polynomials and polynomial maps.

The exact kernel is far too slow for 10^4 Newton seeds or 10^3 flow
trajectories, so numeric routines compile polynomials to numpy data once and
evaluate whole batches of points per call.  Plane polynomials use a dense
coefficient matrix with polyval2d; higher dimensions use the sparse
exponent-matrix product.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npp

from .poly import MultiPoly, PolyMap


class CompiledPoly:
    """One polynomial, evaluable on arrays of shape (..., dim)."""

    def __init__(self, poly: MultiPoly):
        self.dim = poly.dim
        items = poly.sorted_terms()
        self.exps = np.array(
            [e for e, _ in items] or np.zeros((0, poly.dim)), dtype=np.int64
        ).reshape(len(items), poly.dim)
        self.coefs = np.array([float(c) for _, c in items], dtype=np.float64)
        self._c2d = None
        if poly.dim == 2 and items:
            dx = int(self.exps[:, 0].max())
            dy = int(self.exps[:, 1].max())
            c = np.zeros((dx + 1, dy + 1))
            for (ex, ey), coef in zip(self.exps, self.coefs):
                c[ex, ey] = coef
            self._c2d = c

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points have dim {pts.shape[-1]}, expected {self.dim}")
        if self.coefs.size == 0:
            return np.zeros(pts.shape[:-1])
        with np.errstate(over="ignore", invalid="ignore"):
            if self._c2d is not None:
                return npp.polyval2d(pts[..., 0], pts[..., 1], self._c2d)
            mono = np.prod(pts[..., None, :] ** self.exps, axis=-1)
            return mono @ self.coefs


class CompiledMap:
    """A polynomial map, evaluable on arrays of shape (..., domain_dim)."""

    def __init__(self, pm: PolyMap):
        self.domain_dim = pm.domain_dim
        self.codomain_dim = pm.codomain_dim
        self.components = [CompiledPoly(c) for c in pm.components]

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return np.stack([c(pts) for c in self.components], axis=-1)


class CompiledJacobian:
    """Jacobian of a map, evaluable to arrays of shape (..., codim, dim)."""

    def __init__(self, pm: PolyMap):
        self.entries = [[CompiledPoly(e) for e in row] for row in pm.jacobian()]

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        rows = [np.stack([e(pts) for e in row], axis=-1) for row in self.entries]
        return np.stack(rows, axis=-2)
