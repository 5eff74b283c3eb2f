"""JSON schemas for the pipeline artifacts.

All rationals are carried as decimal strings ("num/den" or "num") so
arbitrary precision survives any JSON parser.  Polynomial term lists are in
graded-lex order; files round-trip bit-exactly on canonical form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring, encode_basestring_ascii
from typing import List

from . import exactmat
from ._rat import Rat, rat_str
from .coord_change import CoordChange, PointSet
from .poly import MultiPoly, PolyMap, json_row
from .synth import SaddleField, SynthesisResult, hessian_at

BUNDLE_SCHEMA = "morseforge-bundle-v1"
SADDLE_SCHEMA = "morseforge-saddle-field-v1"


def _matrix_obj(rows) -> list:
    return [[rat_str(c) for c in row] for row in rows]


def coord_change_obj(change: CoordChange) -> dict:
    return {
        "direction": [rat_str(c) for c in change.direction],
        "linear_part": _matrix_obj(change.linear_part),
        "interpolants": [p.to_obj() for p in change.interpolants],
        "forward": change.forward.to_obj(),
        "inverse": change.inverse.to_obj(),
        "axis_images": [rat_str(c) for c in change.axis_images],
    }


def bundle_obj(result: SynthesisResult) -> dict:
    """The audit bundle: input, coordinate change, every intermediate
    polynomial, the gradient field, and exact per-point Hessian data."""
    hessians = []
    minors = []
    for pt in result.input.points:
        h = hessian_at(result, pt)
        hessians.append(_matrix_obj(h))
        minors.append([rat_str(m) for m in exactmat.leading_principal_minors(h)])
    return {
        "schema": BUNDLE_SCHEMA,
        "pointset": result.input.to_obj(),
        "coord_change": coord_change_obj(result.change),
        "alpha": result.morse.alpha.to_obj(),
        "beta": result.morse.beta.to_obj(),
        "f": result.morse.f.to_obj(),
        "q": result.q.to_obj(),
        "p": result.p_poly.to_obj(),
        "grad_field": result.grad_field.to_obj(),
        "hessians": hessians,
        "minors": minors,
        "degree_audit": result.degree_audit(),
    }


@dataclass
class ParsedBundle:
    """A bundle read back from disk.  Stored claims are kept verbatim so the
    verifier can recompute and compare rather than trust them."""

    pointset: PointSet
    forward: PolyMap
    inverse: PolyMap
    p: MultiPoly
    grad_field: PolyMap
    hessians: List[List[List[Rat]]]
    minors: List[List[Rat]]
    axis_images: List[Rat]


def parse_bundle(obj: dict) -> ParsedBundle:
    if not isinstance(obj, dict) or obj.get("schema") != BUNDLE_SCHEMA:
        raise ValueError(f"not a {BUNDLE_SCHEMA} document")
    cc = obj["coord_change"]
    bundle = ParsedBundle(
        pointset=PointSet.from_obj(obj["pointset"]),
        forward=PolyMap.from_obj(cc["forward"]),
        inverse=PolyMap.from_obj(cc["inverse"]),
        p=MultiPoly.from_obj(obj["p"]),
        grad_field=PolyMap.from_obj(obj["grad_field"]),
        hessians=[[json_row(row) for row in h] for h in obj["hessians"]],
        minors=[json_row(row) for row in obj["minors"]],
        axis_images=json_row(cc["axis_images"]),
    )
    n = bundle.pointset.dimension
    maps = (bundle.forward, bundle.inverse, bundle.grad_field)
    if bundle.p.dim != n or any(m.domain_dim != n or m.codomain_dim != n for m in maps):
        raise ValueError(
            f"p, grad_field, forward and inverse must all be in the point "
            f"set's {n} variables"
        )
    return bundle


def saddle_obj(sf: SaddleField) -> dict:
    return {
        "schema": SADDLE_SCHEMA,
        "gamma": sf.gamma.to_obj(),
        "field": sf.field.to_obj(),
        "pullback": sf.pullback.to_obj(),
        "stable_set": [rat_str(a) for a in sf.stable_set],
        "saddle_set": [rat_str(b) for b in sf.saddle_set],
        "coord_change": coord_change_obj(sf.change),
    }


class _Unsupported(Exception):
    """A value the fast path leaves to the standard encoder."""


class IndentEncoder(json.JSONEncoder):
    """``json.dumps(obj, indent=..., cls=IndentEncoder)`` writes the same
    text as the standard encoder, about twice as fast.

    With ``indent`` set the standard library cannot use its C encoder and
    walks the object through one Python generator per container, yielding
    every token.  Here each container is one ``str.join`` over its encoded
    items, with the C string encoder.  The fast path takes dicts with str
    keys, lists and tuples, all of exact type, and str, int, float, bool and
    None with their subclasses.  Anything else (container subclasses, other
    keys, non-finite floats, containers too deep or circular for the
    recursion) and ``sort_keys`` send the whole object to the standard
    encoder, so its output, errors and ``default`` hook stay as documented."""

    def encode(self, o):
        if self.indent is None or self.sort_keys:
            return super().encode(o)
        unit = self.indent if isinstance(self.indent, str) else " " * self.indent
        enc_str = encode_basestring_ascii if self.ensure_ascii else encode_basestring
        try:
            return _indented(o, unit, self.item_separator, self.key_separator, enc_str)
        except (_Unsupported, RecursionError):
            return super().encode(o)


def _unsupported(o):
    raise _Unsupported


def _float(o: float) -> str:
    if not math.isfinite(o):
        raise _Unsupported
    return float.__repr__(o)


def _indented(obj, unit: str, item_sep: str, key_sep: str, enc_str) -> str:
    leaf = {
        str: enc_str,
        int: int.__repr__,
        float: _float,
        bool: {True: "true", False: "false"}.__getitem__,
        type(None): {None: "null"}.__getitem__,
    }.get

    def value(o, ind: str) -> str:
        t = type(o)
        if t is dict:
            if not o:
                return "{}"
            inner = ind + unit
            items = [
                (enc_str(k) if type(k) is str else _unsupported(k)) + key_sep
                + (f(v) if (f := leaf(type(v))) else value(v, inner))
                for k, v in o.items()
            ]
            return "{" + inner + (item_sep + inner).join(items) + ind + "}"
        if t is list or t is tuple:
            if not o:
                return "[]"
            inner = ind + unit
            items = [f(v) if (f := leaf(type(v))) else value(v, inner) for v in o]
            return "[" + inner + (item_sep + inner).join(items) + ind + "]"
        # scalar subclasses (numpy floats, IntEnum), in the standard
        # encoder's order of checks
        if isinstance(o, str):
            return enc_str(o)
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            return _float(o)
        raise _Unsupported

    f = leaf(type(obj))
    return f(obj) if f else value(obj, "\n")
