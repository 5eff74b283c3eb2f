import math
import random
from itertools import product

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from conftest import rand_rat
from morseforge._rat import rat
from morseforge.numeric import CompiledPoly
from morseforge.poly import MultiPoly, PolyMap


def reference(poly: MultiPoly, pts: np.ndarray) -> np.ndarray:
    """One polynomial evaluated on its own: its own polyval2d coefficient
    matrix in the plane; elsewhere its own pts ** exps monomial product times
    the coefficients, each row summed on its own in term order as
    np.add.reduceat sums a segment: the first term plus numpy's pairwise sum
    of the others."""
    items = poly.sorted_terms()
    if not items:
        return np.zeros(pts.shape[:-1])
    exps = np.array([e for e, _ in items], dtype=np.int64)
    coefs = np.array([float(c) for _, c in items])
    if poly.dim == 2:
        c = np.zeros((exps[:, 0].max() + 1, exps[:, 1].max() + 1))
        c[exps[:, 0], exps[:, 1]] = coefs
        return npp.polyval2d(pts[..., 0], pts[..., 1], c)
    terms = np.prod(pts[..., None, :] ** exps, axis=-1) * coefs
    return terms[..., 0] + terms[..., 1:].sum(axis=-1)


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


def long_poly(dim: int) -> MultiPoly:
    """At least 8200 terms, more than numpy's default buffer of 8192
    elements, past which a reduction may be split into chunks."""
    side = math.ceil(8200 ** (1 / dim))
    rng = random.Random(dim)
    return MultiPoly(dim, [(e, rand_rat(rng, 100)) for e in product(range(side), repeat=dim)])


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
@pytest.mark.parametrize("shape", [(), (7,), (1,)])
def test_merged_matches_per_polynomial(dim, batch, shape):
    polys = components(dim)
    if shape == ():
        compiled, refs = CompiledPoly(polys[0]), polys[:1]
    elif shape == (7,):
        compiled, refs = CompiledPoly(PolyMap(polys, dim)), polys
    else:
        compiled, refs = CompiledPoly(PolyMap(polys[4:5], dim)), polys[4:5]
    pts = np.random.default_rng(dim).uniform(-2.0, 2.0, size=batch + (dim,))
    out = compiled(pts)
    assert out.shape == batch + shape
    expected = np.stack([reference(p, pts) for p in refs], axis=-1).reshape(out.shape)
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("dim", [1, 3, 4])
@pytest.mark.parametrize("batch", [(1,), (300,), (4, 25)])
def test_rows_do_not_depend_on_the_batch(dim, batch):
    compiled = CompiledPoly(PolyMap([*components(dim), long_poly(dim)], dim))
    rng = np.random.default_rng(dim)
    pts = rng.uniform(-1.0, 1.0, size=batch + (dim,))
    out = compiled(pts)
    rows, vals = pts.reshape(-1, dim), out.reshape(-1, 8)
    for row, val in zip(rows, vals):
        assert np.array_equal(compiled(row), val)
    for _ in range(20):
        sel = rng.choice(len(rows), size=rng.integers(1, min(len(rows), 50) + 1), replace=False)
        assert np.array_equal(compiled(rows[sel]), vals[sel])


@pytest.mark.parametrize("dim", [1, 3, 4])
def test_lopsided_alone_matches(dim):
    poly = lopsided(dim)
    pts = np.random.default_rng(dim).uniform(-2.0, 2.0, size=(300, dim))
    assert np.array_equal(CompiledPoly(poly)(pts), reference(poly, pts))
