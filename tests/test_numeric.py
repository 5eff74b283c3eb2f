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


def horner(terms: dict, pts: np.ndarray) -> np.ndarray:
    """sum(c * x ** e for e, c in terms) by Horner's rule in the last
    variable, whose coefficients are the same sums over the other variables:
    x_0 innermost.  Each chain starts at its own top degree as c + x * 0 and
    goes on as c + r * x; a missing coefficient is zero."""
    if not pts.shape[-1]:
        return next(iter(terms.values()))
    by_last: dict = {}
    for e, c in terms.items():
        by_last.setdefault(e[-1], {})[e[:-1]] = c
    coef = {e: horner(sub, pts[..., :-1]) for e, sub in by_last.items()}
    x = pts[..., -1]
    top = max(coef)
    r = coef[top] + x * 0
    for e in range(top - 1, -1, -1):
        r = coef.get(e, 0.0) + r * x
    return r


def reference(poly: MultiPoly, pts: np.ndarray) -> np.ndarray:
    """One polynomial evaluated on its own: its own polyval2d coefficient
    matrix in the plane; elsewhere its own sparse Horner scheme."""
    items = poly.sorted_terms()
    if not items:
        return np.zeros(pts.shape[:-1])
    if poly.dim != 2:
        return horner({e: float(c) for e, c in items}, pts)
    exps = np.array([e for e, _ in items], dtype=np.int64)
    coefs = np.array([float(c) for _, c in items])
    c = np.zeros((exps[:, 0].max() + 1, exps[:, 1].max() + 1))
    c[exps[:, 0], exps[:, 1]] = coefs
    return npp.polyval2d(pts[..., 0], pts[..., 1], c)


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
    its Horner chains in one variable have different lengths."""
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
    elements, so its Horner chains are long (degree 8199 at dim 1) or
    many."""
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
@pytest.mark.parametrize("batch", [(0,), (1,), (300,), (4, 25)])
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
