"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial of dimension n maps exponent tuples (one non-negative int per
variable) to nonzero rational coefficients; the zero polynomial is the empty
map.  All arithmetic is exact.  The canonical term order used for
serialization and printing is graded lexicographic: ascending total degree,
ties broken lexicographically on the exponent tuple.

A PolyMap bundles n-variate polynomials into a polynomial map R^m -> R^k;
composition of maps shares a power-product cache so that repeated monomial
images are computed once.

The hot loops (product, composition, partial derivative, evaluation) are
fraction-free: they work on integer numerators over one common denominator
and build each result coefficient as a Fraction once, so a result term costs
one gcd instead of one or two per multiply-add.  Exact point Hessians
(hessian_at) come from a cached integer second-partial form built in one
pass over the terms; no symbolic second partial is formed for them.

All values are immutable after construction and every operation is a pure
function, so instances are safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Sequence, Tuple

from ._rat import Rat, rat, rat_str

Exponent = Tuple[int, ...]


class DimensionMismatch(ValueError):
    """Operands live in different ambient dimensions (or wrong arity)."""


def json_int(value) -> int:
    """value, if it is a JSON integer; int() would truncate 2.5 to 2 and
    read true as 1."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_digits(value) -> int:
    """A term's num or den: a decimal string or a JSON integer."""
    if type(value) not in (str, int):
        raise TypeError(f"expected an integer or a decimal string, got {value!r}")
    return int(value)


def json_row(value) -> List[Rat]:
    """The entries of a JSON list as rationals, each a decimal string or a
    JSON integer, as in json_digits; a string would iterate as its
    characters, Fraction reads true as 1 and a float as its binary value."""
    if type(value) is not list or any(type(c) not in (str, int) for c in value):
        raise TypeError(f"expected a list of rationals, got {value!r}")
    return [rat(c) for c in value]


def grlex_key(exps: Exponent):
    """Sort key realizing the graded lexicographic canonical order."""
    return (sum(exps), exps)


class MultiPoly:
    """Exact sparse multivariate polynomial.

    terms maps exponent tuples to nonzero reduced Fractions and must not be
    mutated after construction: the integer form that the arithmetic uses,
    and the second-partial form that hessian_at uses, are computed from it
    once and cached."""

    __slots__ = ("dim", "terms", "_ints", "_seconds")

    def __init__(self, dim: int, terms=None):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        clean: Dict[Exponent, Rat] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exps, coeff in items:
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.dim:
                    raise DimensionMismatch(
                        f"exponent tuple {exps} has length {len(exps)}, expected {self.dim}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                # a Fraction is immutable and already reduced: kept as it is
                c = coeff if type(coeff) is Fraction else rat(coeff)
                if exps in clean:
                    c = clean[exps] + c
                if c:
                    clean[exps] = c
                elif exps in clean:
                    del clean[exps]
        self.terms = clean
        self._ints = None
        self._seconds = None

    @classmethod
    def _raw(cls, dim: int, terms: Dict[Exponent, Rat]) -> "MultiPoly":
        # Internal fast path: terms are already validated and zero-free.
        p = object.__new__(cls)
        p.dim = dim
        p.terms = terms
        p._ints = None
        p._seconds = None
        return p

    def _integer_form(self) -> Tuple[int, Dict[Exponent, int]]:
        """(L, {exps: c * L}) with L the lcm of the coefficient denominators,
        computed on first use and cached.  Threads racing here store equal
        values, so no lock is needed."""
        form = self._ints
        if form is None:
            terms = self.terms
            den = lcm(*[c.denominator for c in terms.values()])
            form = self._ints = (
                den,
                {e: c.numerator * (den // c.denominator) for e, c in terms.items()},
            )
        return form

    # ---------------------------------------------------------------- factories

    @classmethod
    def zero(cls, dim: int) -> "MultiPoly":
        return cls._raw(int(dim), {})

    @classmethod
    def constant(cls, dim: int, value) -> "MultiPoly":
        c = rat(value)
        if not c:
            return cls.zero(dim)
        return cls._raw(int(dim), {(0,) * int(dim): c})

    @classmethod
    def variable(cls, dim: int, index: int) -> "MultiPoly":
        if not 0 <= index < dim:
            raise IndexError(f"variable index {index} out of range for dim {dim}")
        exps = tuple(1 if i == index else 0 for i in range(dim))
        return cls._raw(int(dim), {exps: rat(1)})

    # ---------------------------------------------------------------- basic ops

    def _check_dim(self, other: "MultiPoly"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.dim, other)
        self._check_dim(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            v = out.get(exps)
            v = c if v is None else v + c
            if v:
                out[exps] = v
            elif exps in out:
                del out[exps]
        return MultiPoly._raw(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.dim, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = rat(other)
            if not c:
                return MultiPoly.zero(self.dim)
            return MultiPoly._raw(self.dim, {e: v * c for e, v in self.terms.items()})
        self._check_dim(other)
        den_a, a = self._integer_form()
        den_b, b = other._integer_form()
        return MultiPoly._raw(self.dim, _fractions(_convolve(a, b), den_a * den_b))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = MultiPoly.constant(self.dim, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n > 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if self.is_constant():
                return self.constant_value() == rat(other)
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.dim, rat(0))

    def total_degree(self) -> int:
        """Max total degree of any term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def num_terms(self) -> int:
        return len(self.terms)

    # ------------------------------------------------------------------ calculus

    def partial(self, var: int) -> "MultiPoly":
        """Exact partial derivative with respect to variable var."""
        if not 0 <= var < self.dim:
            raise IndexError(f"variable index {var} out of range for dim {self.dim}")
        # distinct exponents stay distinct, so nothing accumulates
        den, nums = self._integer_form()
        out: Dict[Exponent, Rat] = {}
        for exps, n in nums.items():
            e = exps[var]
            if e:
                out[exps[:var] + (e - 1,) + exps[var + 1 :]] = Fraction(n * e, den)
        return MultiPoly._raw(self.dim, out)

    def antiderivative(self, var: int) -> "MultiPoly":
        """The unique anti-derivative in var with zero constant term."""
        if not 0 <= var < self.dim:
            raise IndexError(f"variable index {var} out of range for dim {self.dim}")
        out: Dict[Exponent, Rat] = {}
        for exps, c in self.terms.items():
            e = exps[var]
            key = exps[:var] + (e + 1,) + exps[var + 1 :]
            out[key] = c / (e + 1)
        return MultiPoly._raw(self.dim, out)

    def hessian(self) -> List[List["MultiPoly"]]:
        """Symmetric matrix of second partials; each mixed partial is formed
        once and shared by its two entries."""
        firsts = [self.partial(i) for i in range(self.dim)]
        rows: List[List[MultiPoly]] = []
        for i in range(self.dim):
            rows.append(
                [firsts[i].partial(j) if j >= i else rows[j][i] for j in range(self.dim)]
            )
        return rows

    # --------------------------------------------------------------- composition

    def compose(self, mapping, cache=None) -> "MultiPoly":
        """Exact substitution of variable i by mapping's i-th component.

        mapping may be a PolyMap or a sequence of MultiPoly sharing one
        dimension.  A dict may be passed as cache to share monomial power
        products across several compositions against the same mapping; its
        contents are private to this method.
        """
        comps = mapping.components if isinstance(mapping, PolyMap) else tuple(mapping)
        if len(comps) != self.dim:
            raise DimensionMismatch(
                f"need {self.dim} substitution components, got {len(comps)}"
            )
        m = comps[0].dim
        for c in comps:
            if c.dim != m:
                raise DimensionMismatch("substitution components disagree in dimension")
        if cache is None:
            cache = {}
        den, nums = self._integer_form()
        images = [(n, _power_product(exps, comps, cache)) for exps, n in nums.items()]
        common = lcm(*[d for _, (d, _) in images])
        acc: Dict[Exponent, int] = {}
        for n, (d, img) in images:
            scale = n * (common // d)
            for e2, n2 in img.items():
                acc[e2] = acc.get(e2, 0) + scale * n2
        return MultiPoly._raw(m, _fractions(acc, den * common))

    def embed(self, new_dim: int, positions: Sequence[int]) -> "MultiPoly":
        """Reinterpret in a larger ambient space, sending variable i to
        variable positions[i]."""
        if len(positions) != self.dim:
            raise DimensionMismatch("positions must name every current variable")
        if len(set(positions)) != len(positions) or any(
            not 0 <= p < new_dim for p in positions
        ):
            raise ValueError(f"bad embedding positions {positions} for dim {new_dim}")
        out: Dict[Exponent, Rat] = {}
        for exps, c in self.terms.items():
            e = [0] * new_dim
            for i, p in enumerate(positions):
                e[p] = exps[i]
            out[tuple(e)] = c
        return MultiPoly._raw(int(new_dim), out)

    # ---------------------------------------------------------------- evaluation

    def eval_rational(self, xs: Sequence):
        """Exact value at a rational point.

        With the point written as a/q over one common denominator and D the
        largest total degree, L q^D times the value is the integer sum of
        N_t a^t q^(D - |t|), which is formed first and reduced once."""
        q, pows = self._scaled_powers(xs)
        den, nums = self._integer_form()
        # by_degree[s]: the sum over terms of total degree s
        by_degree: Dict[int, int] = {}
        for exps, n in nums.items():
            for table, e in zip(pows, exps):
                if e:
                    n *= table[e]
            s = sum(exps)
            by_degree[s] = by_degree.get(s, 0) + n
        top = max(by_degree, default=0)
        total = 0
        for s in range(top + 1):
            total = total * q + by_degree.get(s, 0)
        return Fraction(total, den * q**top)

    def hessian_at(self, xs: Sequence) -> List[List[Rat]]:
        """Exact matrix of second partials at a rational point.

        The second-partial form lists, once per polynomial, every term of
        every entry on or above the diagonal; with the point written as a/q
        and D the largest degree among those terms, each term adds
        N a^t q^(D - |t|) to its entry of L q^D H, and each entry is reduced
        once.  No MultiPoly is built, and no factor is divided out, so a zero
        coordinate needs no special case."""
        q, pows = self._scaled_powers(xs)
        den = self._integer_form()[0]
        top, seconds = self._second_form()
        scale = [q ** (top - s) for s in range(top + 1)]
        n = self.dim
        acc = [[0] * n for _ in range(n)]
        for i, j, s, c, support in seconds:
            c *= scale[s]
            for v, e in support:
                c *= pows[v][e]
            acc[i][j] += c
        den *= q**top
        out: List[List[Rat]] = [[rat(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                out[i][j] = out[j][i] = Fraction(acc[i][j], den)
        return out

    def _second_form(self):
        """(D, [(i, j, s, N, ((v, e), ...))]): for each term N x^t / L of
        the second partial d^2/dx_i dx_j, j >= i, its total degree s and
        its nonzero exponents, with D the largest s; computed in one pass
        over the integer form on first use and cached like it."""
        form = self._seconds
        if form is None:
            seconds = []
            for exps, c in self._integer_form()[1].items():
                s = sum(exps) - 2
                if s < 0:
                    continue
                for i, e in enumerate(exps):
                    if not e:
                        continue
                    for j in range(i, self.dim):
                        f = exps[j] - (j == i)
                        if f <= 0:
                            continue
                        t = list(exps)
                        t[i] -= 1
                        t[j] -= 1
                        support = tuple((v, g) for v, g in enumerate(t) if g)
                        seconds.append((i, j, s, c * e * f, support))
            top = max([s for _, _, s, _, _ in seconds], default=0)
            form = self._seconds = (top, seconds)
        return form

    def _scaled_powers(self, xs: Sequence) -> Tuple[int, List[List[int]]]:
        """The point's common denominator q and, per variable, the powers
        a^0 .. a^h of its numerator a over q, h the variable's top
        exponent."""
        if len(xs) != self.dim:
            raise DimensionMismatch(f"point has length {len(xs)}, expected {self.dim}")
        vals = [rat(x) for x in xs]
        q = lcm(*[v.denominator for v in vals])
        pows = []
        for v, high in zip(vals, [max(col) for col in zip(*self.terms)]):
            a = v.numerator * (q // v.denominator)
            table = [1]
            for _ in range(high):
                table.append(table[-1] * a)
            pows.append(table)
        return q, pows

    # ------------------------------------------------------------- canonical form

    def sorted_exponents(self) -> List[Exponent]:
        return sorted(self.terms, key=grlex_key)

    def sorted_terms(self) -> List[Tuple[Exponent, Rat]]:
        return [(e, self.terms[e]) for e in self.sorted_exponents()]

    def to_obj(self) -> dict:
        """JSON-ready dict with terms in graded-lex order and rationals as
        decimal strings."""
        return {
            "dimension": self.dim,
            "terms": [
                {
                    "exponents": list(e),
                    "num": str(self.terms[e].numerator),
                    "den": str(self.terms[e].denominator),
                }
                for e in self.sorted_exponents()
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "MultiPoly":
        dim = json_int(obj["dimension"])
        terms = [
            (tuple(json_int(x) for x in t["exponents"]),
             Fraction(json_digits(t["num"]), json_digits(t["den"])))
            for t in obj["terms"]
        ]
        return cls(dim, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = [rat_str(c)]
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i}")
                elif e > 1:
                    factors.append(f"x{i}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly(dim={self.dim}, {self})"


def _fractions(nums: Dict[Exponent, int], den: int) -> Dict[Exponent, Rat]:
    """The nonzero numerators over den as reduced Fractions."""
    return {e: Fraction(v, den) for e, v in nums.items() if v}


def _convolve(a: Dict[Exponent, int], b: Dict[Exponent, int]) -> Dict[Exponent, int]:
    """Integer numerators of the product of two integer forms."""
    if len(a) > len(b):
        a, b = b, a
    out: Dict[Exponent, int] = {}
    for e1, n1 in a.items():
        for e2, n2 in b.items():
            key = tuple([x + y for x, y in zip(e1, e2)])
            out[key] = out.get(key, 0) + n1 * n2
    return out


def _power_product(exps: Exponent, comps, cache) -> Tuple[int, Dict[Exponent, int]]:
    """Integer form of the image of the monomial x^exps under substitution,
    memoized so that each needed monomial is obtained from a predecessor by
    one multiplication.  The form is reduced by its content, so it equals
    the integer form of the image's reduced coefficients."""
    got = cache.get(exps)
    if got is not None:
        return got
    j = next((i for i, e in enumerate(exps) if e), None)
    if j is None:
        res = (1, {(0,) * comps[0].dim: 1})
    else:
        prev = exps[:j] + (exps[j] - 1,) + exps[j + 1 :]
        den_a, a = _power_product(prev, comps, cache)
        den_b, b = comps[j]._integer_form()
        nums = _convolve(a, b)
        den = den_a * den_b
        g = gcd(den, *nums.values())
        res = (den // g, {e: v // g for e, v in nums.items() if v})
    cache[exps] = res
    return res


class PolyMap:
    """Polynomial map R^domain_dim -> R^(number of components)."""

    __slots__ = ("domain_dim", "components")

    def __init__(self, components: Iterable[MultiPoly], domain_dim: int | None = None):
        comps = tuple(components)
        if not comps:
            raise ValueError("a PolyMap needs at least one component")
        dd = comps[0].dim if domain_dim is None else int(domain_dim)
        for c in comps:
            if c.dim != dd:
                raise DimensionMismatch("components disagree with the domain dimension")
        self.domain_dim = dd
        self.components = comps

    @property
    def codomain_dim(self) -> int:
        return len(self.components)

    @classmethod
    def identity(cls, n: int) -> "PolyMap":
        return cls([MultiPoly.variable(n, i) for i in range(n)])

    def compose(self, other: "PolyMap") -> "PolyMap":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        if self.domain_dim != other.codomain_dim:
            raise DimensionMismatch(
                f"cannot compose: inner map has codomain {other.codomain_dim}, "
                f"outer expects {self.domain_dim}"
            )
        cache: dict = {}
        return PolyMap(
            [c.compose(other.components, cache) for c in self.components],
            other.domain_dim,
        )

    def is_identity(self) -> bool:
        return self.codomain_dim == self.domain_dim and all(
            c == MultiPoly.variable(self.domain_dim, i)
            for i, c in enumerate(self.components)
        )

    def eval_rational(self, xs: Sequence):
        return tuple(c.eval_rational(xs) for c in self.components)

    def jacobian(self) -> List[List[MultiPoly]]:
        """Matrix of partials, row i = gradient of component i."""
        return [
            [c.partial(j) for j in range(self.domain_dim)] for c in self.components
        ]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMap)
            and self.domain_dim == other.domain_dim
            and self.components == other.components
        )

    def __repr__(self):
        comps = ", ".join(str(c) for c in self.components)
        return f"PolyMap({self.domain_dim} -> {self.codomain_dim}; {comps})"

    def to_obj(self) -> dict:
        return {
            "domain_dim": self.domain_dim,
            "components": [c.to_obj() for c in self.components],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "PolyMap":
        return cls(
            [MultiPoly.from_obj(c) for c in obj["components"]],
            json_int(obj["domain_dim"]),
        )
