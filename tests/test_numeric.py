import math
import random
import tracemalloc
from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np
import pytest
from numpy.polynomial import polynomial as npp

from conftest import rand_rat
from morseforge._rat import rat
from morseforge.coord_change import PointSet
from morseforge.numeric import MAX_STATE, MAX_WIDTH, CompiledPoly
from morseforge.poly import MultiPoly, PolyMap
from morseforge.synth import synthesize


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


@cache
def long_poly(dim: int) -> MultiPoly:
    """At least 8200 terms, more than numpy's default buffer of 8192
    elements, so its Horner chains are long (degree 8199 at dim 1) or
    many."""
    side = math.ceil(8200 ** (1 / dim))
    rng = random.Random(dim)
    return MultiPoly(dim, [(e, rand_rat(rng, 100)) for e in product(range(side), repeat=dim)])


def wide(dim: int) -> PolyMap:
    """components(dim) and long_poly(dim): in dims 3 and 4 a map of
    hundreds of stage-0 chains (493 and 1073), whose block width falls below
    MAX_WIDTH."""
    return PolyMap([*components(dim), long_poly(dim)], dim)


@dataclass(frozen=True)
class Blocks:
    """A batch at the block boundary of a compiled instance: full blocks of
    its width, then extra points more (fewer when negative)."""
    full: int
    extra: int


def batch_of(batch, compiled: CompiledPoly) -> tuple:
    """batch itself, or a Blocks batch at compiled's width."""
    if isinstance(batch, Blocks):
        return (batch.full * compiled.width + batch.extra,)
    return batch


# batches at the block boundary: one short of a block, one block, one past
# it, and two full blocks followed by a partial one
BOUNDARY = [Blocks(1, -1), Blocks(1, 0), Blocks(1, 1), Blocks(2, 3)]


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
@pytest.mark.parametrize("batch", [(0,), (1,), (300,), (4, 25), *BOUNDARY])
@pytest.mark.parametrize("shape", [(), (7,), (1,), (8,)])
def test_merged_matches_per_polynomial(dim, batch, shape):
    polys = components(dim)
    if shape == ():
        compiled, refs = CompiledPoly(polys[0]), polys[:1]
    elif shape == (7,):
        compiled, refs = CompiledPoly(PolyMap(polys, dim)), polys
    elif shape == (8,):
        compiled, refs = CompiledPoly(wide(dim)), wide(dim).components
    else:
        compiled, refs = CompiledPoly(PolyMap(polys[4:5], dim)), polys[4:5]
    batch = batch_of(batch, compiled)
    # long_poly's chain of degree 8199 in dim 1 overflows past |x| = 1
    side = 1.0 if shape == (8,) else 2.0
    pts = np.random.default_rng(dim).uniform(-side, side, size=batch + (dim,))
    out = compiled(pts)
    assert out.shape == batch + shape
    expected = np.stack([reference(p, pts) for p in refs], axis=-1).reshape(out.shape)
    assert np.array_equal(out, expected)


# a dim x batch grid, except that two blocks and a partial one, at the
# width derived for the map (below MAX_WIDTH), run in dims 3 and 4 only: in
# dim 1 the long polynomial's one chain makes each of the single-row calls
# below slow
@pytest.mark.parametrize("dim, batch", [
    pytest.param(dim, batch, id=f"batch{i}-{dim}")
    for i, batch in enumerate([(1,), (300,), (4, 25), Blocks(2, 3)])
    for dim in ((1, 3, 4) if i < 3 else (3, 4))
])
def test_rows_do_not_depend_on_the_batch(dim, batch):
    compiled = CompiledPoly(wide(dim))
    batch = batch_of(batch, compiled)
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


def repeated(dim: int) -> list:
    """Components with repeats: the same object twice, an equal copy of it,
    and two distinct zero polynomials."""
    polys = components(dim)
    copy = MultiPoly(dim, dict(polys[4].terms))
    return [polys[4], polys[0], polys[4], MultiPoly.zero(dim), copy, polys[6],
            MultiPoly.zero(dim), polys[0]]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("batch", [(0,), (1,), (300,), (4, 25), *BOUNDARY])
def test_repeated_components_match(dim, batch):
    polys = repeated(dim)
    compiled = CompiledPoly(PolyMap(polys, dim))
    batch = batch_of(batch, compiled)
    pts = np.random.default_rng(dim).uniform(-2.0, 2.0, size=batch + (dim,))
    out = compiled(pts)
    assert out.shape == batch + (len(polys),)
    expected = np.stack([reference(p, pts) for p in polys], axis=-1)
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_width_from_the_stage_zero_chains(dim):
    # stage 0 runs one Horner chain per distinct polynomial and exponent
    # tail (e_1, ..., e_{n-1}); the width is the largest power of two, at
    # most MAX_WIDTH, at which those chains times the width stay within
    # MAX_STATE doubles
    for polys in (components(dim), repeated(dim), wide(dim).components):
        distinct = dict.fromkeys(polys)
        chains = len({(k, *e[1:]) for k, p in enumerate(distinct)
                      for e in (p.terms or [(0,) * dim])})
        width = MAX_WIDTH
        while width > 1 and chains * width > MAX_STATE:
            width //= 2
        assert CompiledPoly(PolyMap(polys, dim)).width == width
    assert (CompiledPoly(wide(dim)).width < MAX_WIDTH) == (dim > 2)


def test_each_distinct_polynomial_compiled_once(monkeypatch):
    calls = []
    sorted_terms = MultiPoly.sorted_terms

    def counted(self):
        calls.append(self)
        return sorted_terms(self)

    monkeypatch.setattr(MultiPoly, "sorted_terms", counted)
    polys = repeated(3)
    CompiledPoly(PolyMap(polys, 3))
    # polys[4] and its copy, polys[0] twice, and the two zeros are one each
    assert calls == [polys[0], polys[1], polys[3], polys[5]]


@pytest.mark.parametrize("shape", [(), (7,)])
@pytest.mark.parametrize("batch", [(5,), Blocks(2, 3)])
def test_successive_calls_share_no_memory(shape, batch):
    # every call writes its values into an array of its own, within one
    # block or past one, so a caller may keep or write into what a call
    # returned
    polys = components(2)
    compiled = CompiledPoly(polys[0] if shape == () else PolyMap(polys, 2))
    batch = batch_of(batch, compiled)
    pts = np.random.default_rng(2).uniform(-2.0, 2.0, size=batch + (2,))
    first, second = compiled(pts), compiled(pts)
    assert np.array_equal(first, second)
    assert not np.shares_memory(first, second)


@pytest.mark.parametrize("shape", [(), (7,)])
@pytest.mark.parametrize("batch", [(0,), (5,), *BOUNDARY])
def test_by_component_is_the_contiguous_transpose(shape, batch):
    # by_component's values are the call's array itself, C-contiguous, one
    # row per component: the layout the census reads a component at a time
    polys = components(3)
    compiled = CompiledPoly(polys[0] if shape == () else PolyMap(polys, 3))
    batch = batch_of(batch, compiled)
    x = np.random.default_rng(3).uniform(-2.0, 2.0, size=(3,) + batch)
    got = compiled.by_component(x)
    assert got.shape == shape + batch
    assert got.flags.c_contiguous
    assert np.array_equal(got, compiled(x.T).T)


def test_by_component_evaluates_through_the_call(monkeypatch):
    # perfbench's tracer counts calls and rows at __call__, so the census's
    # component-major evaluations must pass through it, once each, with
    # their points row-major
    seen = []
    call = CompiledPoly.__call__

    def counted(self, pts):
        seen.append(np.shape(pts))
        return call(self, pts)

    monkeypatch.setattr(CompiledPoly, "__call__", counted)
    compiled = CompiledPoly(PolyMap(components(3), 3))
    compiled.by_component(np.zeros((3, 11)))
    assert seen == [(11, 3)]


def sparse_field(dim: int) -> PolyMap:
    """The descent field of two points on the last axis, [[0, 0, 0], [0, 0,
    1]] in R^3 and [[0, 0, 0, 0], [0, 0, 0, 1]] in R^4: its Horner stages
    past stage 0 (stage 1 in R^3, stages 1 and 2 in R^4) miss a
    coefficient, which must read as zero, never as another chain's value."""
    points = [[0] * dim, [0] * (dim - 1) + [1]]
    return synthesize(PointSet(dim, [[rat(c) for c in p] for p in points])).grad_field


CALL_MAPS = [
    *[pytest.param(lambda dim=dim: PolyMap(components(dim), dim), id=f"components{dim}")
      for dim in (1, 2, 3, 4)],
    *[pytest.param(lambda dim=dim: wide(dim), id=f"wide{dim}") for dim in (1, 2, 3, 4)],
    *[pytest.param(lambda dim=dim: sparse_field(dim), id=f"sparse{dim}") for dim in (3, 4)],
]


@pytest.mark.parametrize("make", CALL_MAPS)
def test_calls_do_not_depend_on_earlier_calls(make):
    # an instance keeps its workspace between calls; batch sizes that cross
    # every change of plan (within a power of two, past the width, two full
    # blocks, an empty call) must each give the values of a fresh
    # evaluation, leave what earlier calls returned as it was, and share no
    # memory with another call's values or with the workspace
    polymap = make()
    compiled = CompiledPoly(polymap)
    dim, width = polymap.domain_dim, compiled.width
    rng = np.random.default_rng(dim)
    kept = []
    for n in [5, 1, width + 3, 2 * width, 3, 0, width - 1, 64, 1]:
        pts = rng.uniform(-1.0, 1.0, size=(n, dim))
        out = compiled(pts)
        expected = np.stack([reference(p, pts) for p in polymap.components], axis=-1)
        assert np.array_equal(out, expected)
        if n:
            assert not np.shares_memory(out, compiled._plan.workspace)
            assert not np.shares_memory(out, compiled._plan.table)
        for earlier, copy in kept:
            assert np.array_equal(earlier, copy)
            assert not np.shares_memory(out, earlier)
        kept.append((out, out.copy()))
    for earlier, copy in kept:
        assert np.array_equal(earlier, copy)


def test_an_instance_keeps_one_plan():
    # after calls at many plan widths an instance holds no more memory than
    # after one call at the last of them: the plan of a new width replaces
    # the old one
    polymap = PolyMap(components(3), 3)
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(700, 3))

    def held(sizes):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            compiled = CompiledPoly(polymap)
            for n in sizes:
                compiled(pts[:n])
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    held([])  # the first pass also counts one-time allocations
    smallest = held([1]) - held([])  # a plan of width 1, the least of any
    assert held([1, 2, 5, 9, 17, 33, 65, 129, 257, 700, 4]) < held([4]) + smallest / 2
