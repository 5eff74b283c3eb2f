"""Spans around morseforge's module entry points, recorded from outside.

Each hook replaces one entry point at the binding its caller uses (for
example ``serialize.hessian_at``, which serialize imported from synth) with
a wrapper that records a span: name, start, end, parent span and job.  No
source file of the package is changed; ``Tracer.remove`` puts every original
back.  A hook whose target no longer exists is skipped and its metrics are
reported as absent.

A span's self time is its duration minus the durations of its direct child
spans.  Spans nest strictly (one thread), so children never overlap.
"""

from __future__ import annotations

import json
import os
import time
import types
from typing import Callable, Dict, List, Optional, Sequence

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.jobs: List[int] = []
        self.counts: Dict[str, float] = {}
        self.job = -1
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._undo: List[tuple] = []

    # ------------------------------------------------------------ recording

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, fn: Callable, name: str, post: Optional[Callable] = None) -> Callable:
        names, parents, starts, ends, jobs, stack = (
            self.names, self.parents, self.starts, self.ends, self.jobs, self._stack)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            jobs.append(tracer.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if post is not None:
                post(tracer, args, result)
            return result

        return traced

    def hook(self, owner, attr: str, name: str, post: Optional[Callable] = None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(name)
            return
        setattr(owner, attr, self.wrap(original, name, post))
        self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        for lst in (self.names, self.parents, self.starts, self.ends, self.jobs):
            lst.clear()
        self.counts.clear()


# -------------------------------------------------------------- post hooks


def _p_stats(tracer: Tracer, args, result) -> None:
    terms = result.p_poly.terms
    tracer.count("poly.p_terms", len(terms))
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in terms.values()), default=0)
    tracer.counts["poly.p_coef_bits_max"] = max(tracer.counts.get("poly.p_coef_bits_max", 0), bits)


def _rows(tracer: Tracer, args, result) -> None:
    shape = getattr(args[1], "shape", None)
    rows = 1
    for s in (shape or (1, 1))[:-1]:
        rows *= s
    tracer.count("numeric.eval.rows", rows)


def _newton(tracer: Tracer, args, result) -> None:
    tracer.count("verify.newton.seeds", result.seeds_used)
    tracer.count("verify.newton.abandoned", result.abandoned)
    tracer.count("verify.newton.found", len(result.points))


def _flow(tracer: Tracer, args, result) -> None:
    from morseforge import verify

    timeout = result.status == verify.STATUS_TIMEOUT
    tracer.count("verify.flow.trajectories", len(result.starts))
    tracer.count("verify.flow.steps", int(result.steps.sum()))
    tracer.count("verify.flow.timeouts", int(timeout.sum()))
    tracer.count("verify.flow.timeout_steps", int(result.steps[timeout].sum()))
    tracer.count("verify.flow.diverged", result.num_diverged)


def _bundle_bytes(tracer: Tracer, args, result) -> None:
    tracer.count("serialize.bundle_bytes", os.path.getsize(args[0].output))


def install(tracer: Tracer) -> None:
    """Hook every traced entry point."""
    from morseforge import cli, exactmat, numeric, poly, serialize, synth, verify

    mp = poly.MultiPoly
    for attr, name in (("__mul__", "poly.mul"), ("__rmul__", "poly.mul"),
                       ("compose", "poly.compose"), ("partial", "poly.partial"),
                       ("eval_rational", "poly.eval_rational"),
                       ("eval_float", "poly.eval_float")):
        tracer.hook(mp, attr, name)
    tracer.hook(exactmat, "det", "exactmat.det")
    tracer.hook(synth, "build_coord_change", "coord_change.build_coord_change")
    tracer.hook(synth, "build_pair", "morse_scalar.build_pair")
    tracer.hook(synth, "synthesize", "synth.synthesize", _p_stats)
    tracer.hook(synth, "hessian_at", "synth.hessian_at")
    tracer.hook(serialize, "hessian_at", "synth.hessian_at")
    tracer.hook(synth, "build_saddle_field", "synth.build_saddle_field")
    tracer.hook(serialize, "bundle_obj", "serialize.bundle_obj")
    tracer.hook(serialize, "parse_bundle", "serialize.parse_bundle")
    tracer.hook(getattr(numeric, "CompiledPoly", None), "__call__", "numeric.eval", _rows)
    tracer.hook(verify, "newton_search", "verify.newton_search", _newton)
    tracer.hook(verify, "_dedup", "verify.dedup")
    tracer.hook(verify, "integrate_batch", "verify.integrate_batch", _flow)
    for attr, name, post in (("cmd_synthesize", "cli.synthesize", _bundle_bytes),
                             ("cmd_verify", "cli.verify", None),
                             ("cmd_flow", "cli.flow", None),
                             ("cmd_export_grid", "cli.export_grid", None),
                             ("cmd_saddle_field", "cli.saddle_field", None)):
        tracer.hook(cli, attr, name, post)
    # cli reaches json through its module global; give it a traced copy
    if isinstance(getattr(cli, "json", None), types.ModuleType):
        proxy = types.SimpleNamespace(**{k: getattr(json, k) for k in dir(json)
                                         if not k.startswith("__")})
        proxy.dumps = tracer.wrap(json.dumps, "serialize.json_encode")
        proxy.load = tracer.wrap(json.load, "serialize.json_decode")
        proxy.loads = tracer.wrap(json.loads, "serialize.json_decode")
        tracer._undo.append((cli, "json", cli.json))
        cli.json = proxy
    else:
        tracer.absent.append("cli.json")


# ----------------------------------------------------------------- metrics


def span_stats(names: Sequence[str], parents: Sequence[int],
               starts: Sequence[float], ends: Sequence[float]) -> Dict[str, dict]:
    """Per span name: calls, total seconds of outermost spans of that name
    ("s", so recursion is not counted twice) and summed self seconds."""
    n = len(names)
    dur = [ends[i] - starts[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += dur[i]
    out: Dict[str, dict] = {}
    for i in range(n):
        st = out.setdefault(names[i], {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += dur[i] - child[i]
        if not _has_ancestor(i, names[i], names, parents):
            st["s"] += dur[i]
    return out


def _has_ancestor(i: int, name: str, names, parents) -> bool:
    p = parents[i]
    while p >= 0:
        if names[p] == name:
            return True
        p = parents[p]
    return False


def seconds_under(name: str, ancestor: str, names, parents, starts, ends) -> float:
    """Total duration of outermost `name` spans that run inside an
    `ancestor` span."""
    total = 0.0
    for i, nm in enumerate(names):
        if nm == name and _has_ancestor(i, ancestor, names, parents) \
                and not _has_ancestor(i, name, names, parents):
            total += ends[i] - starts[i]
    return total


# (metric name, unit, better); the order is the order of BENCHMARK.json
PER_LAYER = [
    ("poly.mul.calls", "count", "lower"),
    ("poly.mul.self_s", "s", "lower"),
    ("poly.compose.calls", "count", "lower"),
    ("poly.compose.self_s", "s", "lower"),
    ("poly.partial.self_s", "s", "lower"),
    ("poly.eval_rational.calls", "count", "lower"),
    ("poly.eval_rational.self_s", "s", "lower"),
    ("poly.eval_float.calls", "count", "lower"),
    ("poly.eval_float.self_s", "s", "lower"),
    ("poly.p_terms", "count", "lower"),
    ("poly.p_coef_bits_max", "bits", "lower"),
    ("exactmat.det.calls", "count", "lower"),
    ("exactmat.det.self_s", "s", "lower"),
    ("coord_change.build_coord_change.s", "s", "lower"),
    ("morse_scalar.build_pair.s", "s", "lower"),
    ("synth.synthesize.self_s", "s", "lower"),
    ("synth.hessian_at.s", "s", "lower"),
    ("synth.build_saddle_field.s", "s", "lower"),
    ("serialize.bundle_obj.s", "s", "lower"),
    ("serialize.json_encode.s", "s", "lower"),
    ("serialize.bundle_bytes", "bytes", "lower"),
    ("serialize.parse_bundle.s", "s", "lower"),
    ("serialize.json_decode.s", "s", "lower"),
    ("numeric.eval.calls", "count", "lower"),
    ("numeric.eval.rows", "count", "lower"),
    ("numeric.eval.self_s", "s", "lower"),
    ("numeric.rows_per_call", "rows/call", "higher"),
    ("verify.newton_search.s", "s", "lower"),
    ("verify.newton_search.self_s", "s", "lower"),
    ("verify.newton.polish_s", "s", "lower"),
    ("verify.newton.float_s", "s", "lower"),
    ("verify.newton.dedup_s", "s", "lower"),
    ("verify.newton.seeds", "count", "higher"),
    ("verify.newton.abandoned", "count", "lower"),
    ("verify.newton.found", "count", "higher"),
    ("verify.newton.found_per_seed", "ratio", "higher"),
    ("verify.integrate_batch.s", "s", "lower"),
    ("verify.flow.trajectories", "count", "higher"),
    ("verify.flow.steps", "count", "lower"),
    ("verify.flow.steps_per_s", "1/s", "higher"),
    ("verify.flow.timeouts", "count", "lower"),
    ("verify.flow.timeout_steps", "count", "lower"),
    ("verify.flow.diverged", "count", "lower"),
    ("cli.synthesize.s", "s", "lower"),
    ("cli.verify.s", "s", "lower"),
    ("cli.flow.s", "s", "lower"),
    ("cli.export_grid.s", "s", "lower"),
    ("cli.saddle_field.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("newton_recall", "ratio", "higher"),
    ("flow_converged_frac", "ratio", "higher"),
    ("failed_frac", "ratio", "lower"),
]

# metrics read straight from span_stats: (metric, span name, field)
_FROM_SPANS = [
    (m, *m.rsplit(".", 1))
    for m, _, _ in PER_LAYER
    if m.rpartition(".")[2] in ("calls", "s", "self_s")
    and not m.startswith("verify.newton.")
]


def pass_metrics(tracer: Tracer, scale: float = 1.0) -> Dict[str, float]:
    """Per-layer metrics of one traced pass; span seconds are multiplied by
    `scale` (the pass's factor to the reference speed)."""
    args = (tracer.names, tracer.parents, tracer.starts, tracer.ends)
    stats = span_stats(*args)
    out: Dict[str, float] = {}
    for metric, span, fld in _FROM_SPANS:
        value = stats.get(span, {}).get(fld, 0.0)
        out[metric] = value if fld == "calls" else value * scale
    out.update(tracer.counts)
    search = out.get("verify.newton_search.s", 0.0)
    polish = seconds_under("poly.eval_rational", "verify.newton_search", *args) * scale
    dedup = seconds_under("verify.dedup", "verify.newton_search", *args) * scale
    out["verify.newton.polish_s"] = polish
    out["verify.newton.dedup_s"] = dedup
    out["verify.newton.float_s"] = max(search - polish - dedup, 0.0)
    for metric, num, den in (
            ("numeric.rows_per_call", "numeric.eval.rows", "numeric.eval.calls"),
            ("verify.newton.found_per_seed", "verify.newton.found", "verify.newton.seeds"),
            ("verify.flow.steps_per_s", "verify.flow.steps", "verify.integrate_batch.s")):
        den_value = out.get(den, 0)
        out[metric] = out.get(num, 0) / den_value if den_value else 0.0
    return out
