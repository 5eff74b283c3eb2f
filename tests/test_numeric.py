import random

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from conftest import rand_rat
from morseforge._rat import rat
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


def lopsided(dim: int) -> MultiPoly:
    """A polynomial whose variables have very different largest exponents
    (13 in the first, 2 in the second, 1 in the last, 0 in any other), so
    the per-variable power tables have different lengths."""
    def unit(*pairs):
        exps = [0] * dim
        for i, e in pairs:
            exps[i] += e
        return tuple(exps)

    return MultiPoly(dim, [
        (unit((0, 13)), rat(3, 7)),
        (unit((0, 5), (min(1, dim - 1), 2)), rat(-5, 2)),
        (unit((dim - 1, 1)), rat(11)),
        (unit(), rat(-1, 3)),
    ])


def components(dim: int) -> list:
    """Seven polynomials of different degrees and sizes, sharing monomials,
    with a zero polynomial, a constant and a lopsided one among them."""
    rng = random.Random(dim)
    return [
        random_poly(rng, dim, 9, 60),
        MultiPoly.zero(dim),
        random_poly(rng, dim, 4, 12),
        MultiPoly.constant(dim, rand_rat(rng, 50)),
        random_poly(rng, dim, 7, 40),
        random_poly(rng, dim, 1, 3),
        lopsided(dim),
    ]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("batch", [(1,), (300,), (4, 25)])
@pytest.mark.parametrize("shape", [(), (7,), (2, 3)])
def test_merged_matches_per_polynomial(dim, batch, shape):
    polys = components(dim)
    if shape == ():
        compiled, refs = CompiledPoly(polys[0]), polys[:1]
    elif shape == (7,):
        compiled, refs = CompiledPoly(PolyMap(polys, dim)), polys
    else:
        compiled, refs = CompiledPoly([polys[:3], polys[3:6]]), polys[:6]
    pts = np.random.default_rng(dim).uniform(-2.0, 2.0, size=batch + (dim,))
    out = compiled(pts)
    assert out.shape == batch + shape
    expected = np.stack([reference(p, pts) for p in refs], axis=-1).reshape(out.shape)
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("dim", [1, 3, 4])
def test_lopsided_alone_matches(dim):
    poly = lopsided(dim)
    pts = np.random.default_rng(dim).uniform(-2.0, 2.0, size=(300, dim))
    assert np.array_equal(CompiledPoly(poly)(pts), reference(poly, pts))


def test_jacobian_matrix_of_a_map():
    x, y, z = (MultiPoly.variable(3, i) for i in range(3))
    pm = PolyMap([x * y - z ** 2, x ** 3, y + 1])
    jac = CompiledPoly(pm.jacobian())(np.array([[1.0, 2.0, 3.0]]))
    assert jac.tolist() == [[[2.0, 1.0, -6.0], [3.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]


def test_mixed_dimensions_rejected():
    with pytest.raises(ValueError):
        CompiledPoly([[MultiPoly.variable(2, 0), MultiPoly.variable(3, 0)]])
