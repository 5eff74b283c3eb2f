"""Independent oracles the tests check the package against.

None of these is on a path a command runs: each recomputes a quantity by a
route the package deliberately does not take (the pullback identity for
Hessians, central differences for gradients, eigenvalues for definiteness).
"""

from typing import List, Tuple

import numpy as np

from morseforge._rat import Rat, rat
from morseforge.numeric import CompiledPoly
from morseforge.poly import MultiPoly, PolyMap
from morseforge.synth import SaddleField, SynthesisResult
from morseforge.verify import BoxSpec

Matrix = List[List[Rat]]


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
