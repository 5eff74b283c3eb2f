import random

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from conftest import rand_rat
from morseforge.numeric import CompiledPoly
from morseforge.poly import MultiPoly, PolyMap


def reference(poly: MultiPoly, pts: np.ndarray) -> np.ndarray:
    """One polynomial evaluated on its own: its own polyval2d coefficient
    matrix in the plane, its own pts ** exps monomial product elsewhere."""
    items = poly.sorted_terms()
    if not items:
        return np.zeros(pts.shape[:-1])
    exps = np.array([e for e, _ in items], dtype=np.int64)
    coefs = np.array([float(c) for _, c in items])
    if poly.dim == 2:
        c = np.zeros((exps[:, 0].max() + 1, exps[:, 1].max() + 1))
        c[exps[:, 0], exps[:, 1]] = coefs
        return npp.polyval2d(pts[..., 0], pts[..., 1], c)
    return np.prod(pts[..., None, :] ** exps, axis=-1) @ coefs


def random_poly(rng: random.Random, dim: int, degree: int, terms: int) -> MultiPoly:
    out = []
    for _ in range(terms):
        exps = [0] * dim
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(dim)] += 1
        out.append((tuple(exps), rand_rat(rng, 10 ** rng.randint(1, 6))))
    return MultiPoly(dim, out)


def components(dim: int) -> list:
    """Six polynomials of different degrees and sizes, sharing monomials,
    with a zero polynomial and a constant among them."""
    rng = random.Random(dim)
    return [
        random_poly(rng, dim, 9, 60),
        MultiPoly.zero(dim),
        random_poly(rng, dim, 4, 12),
        MultiPoly.constant(dim, rand_rat(rng, 50)),
        random_poly(rng, dim, 7, 40),
        random_poly(rng, dim, 1, 3),
    ]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("batch", [(1,), (300,), (4, 25)])
@pytest.mark.parametrize("shape", [(), (6,), (2, 3)])
def test_merged_matches_per_polynomial(dim, batch, shape):
    polys = components(dim)
    if shape == ():
        compiled, refs = CompiledPoly(polys[0]), polys[:1]
    elif shape == (6,):
        compiled, refs = CompiledPoly(PolyMap(polys, dim)), polys
    else:
        compiled, refs = CompiledPoly([polys[:3], polys[3:]]), polys
    pts = np.random.default_rng(dim).uniform(-2.0, 2.0, size=batch + (dim,))
    out = compiled(pts)
    assert out.shape == batch + shape
    expected = np.stack([reference(p, pts) for p in refs], axis=-1).reshape(out.shape)
    assert np.array_equal(out, expected)


def test_jacobian_matrix_of_a_map():
    x, y, z = (MultiPoly.variable(3, i) for i in range(3))
    pm = PolyMap([x * y - z ** 2, x ** 3, y + 1])
    jac = CompiledPoly(pm.jacobian())(np.array([[1.0, 2.0, 3.0]]))
    assert jac.tolist() == [[[2.0, 1.0, -6.0], [3.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]


def test_mixed_dimensions_rejected():
    with pytest.raises(ValueError):
        CompiledPoly([[MultiPoly.variable(2, 0), MultiPoly.variable(3, 0)]])
