"""Command-line front end.

Exit codes are a stable contract: 0 pass, 1 verification/convergence
failure, 2 parse error, 3 hypothesis violation, 4 unsupported operation.

synthesize and saddle-field are exact and never load numpy; verify, flow
and export-grid import the float layers (verify, numeric) when they run.
The commands check input and flags, call the library and write its result:
verify's verdict is verify.certify's, and no stored claim is compared here.

The parser is built once per process, by the first main call, and every
later call reuses it; --seed's default is still read from MORSEFORGE_SEED
at each call, so main(argv) may be called repeatedly in one process.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import List, Optional

from . import serialize, synth
from ._rat import CoefficientTooLarge, GridTooLarge
from .coord_change import PointSet, PointSetError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_HYPOTHESIS = 3
EXIT_UNSUPPORTED = 4


class CommandError(Exception):
    """A command refused its input; main reports the message and exits with
    code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_json(path: str):
    """The JSON document at path; one nested past the interpreter's
    recursion limit is a parse error."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise CommandError(EXIT_PARSE, f"{path}: JSON nested too deeply") from exc


def _write_json(path: Optional[str], obj) -> None:
    text = json.dumps(obj, indent=2, cls=serialize.IndentEncoder)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _read_pointset(path: str) -> PointSet:
    try:
        obj = _load_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise CommandError(EXIT_PARSE, f"cannot read point set: {exc}") from exc
    try:
        return PointSet.from_obj(obj)
    except PointSetError as exc:
        raise CommandError(EXIT_HYPOTHESIS, str(exc)) from exc
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise CommandError(EXIT_PARSE, f"malformed point set: {exc}") from exc


def _read_bundle(path: str) -> serialize.ParsedBundle:
    try:
        return serialize.parse_bundle(_load_json(path))
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            ZeroDivisionError, OverflowError) as exc:
        raise CommandError(EXIT_PARSE, f"malformed bundle: {exc}") from exc


def _parse_box(flags: Optional[List[str]], dim: int) -> Optional[verify.BoxSpec]:
    from . import verify

    if not flags:
        return None
    if len(flags) != dim:
        raise CommandError(EXIT_PARSE, f"--box must be given once per axis ({dim} times)")
    lower, upper = [], []
    try:
        for f in flags:
            lo, hi = (float(v) for v in f.split(","))
            lower.append(lo)
            upper.append(hi)
        return verify.BoxSpec(tuple(lower), tuple(upper), derivation="cli override")
    except ValueError as exc:
        raise CommandError(EXIT_PARSE, str(exc)) from exc


def _flow_config(args) -> verify.FlowConfig:
    from . import verify

    try:
        return verify.FlowConfig(dt=args.dt, t_max=args.t_max)
    except ValueError as exc:
        raise CommandError(EXIT_PARSE, str(exc)) from exc


def cmd_synthesize(args) -> int:
    result = synth.synthesize(_read_pointset(args.input))
    _write_json(args.output, serialize.bundle_obj(result))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    bundle = _read_bundle(args.input)
    box = _parse_box(args.box, bundle.pointset.dimension)
    if args.seeds_per_axis is not None and args.seeds_per_axis < 2:
        raise CommandError(EXIT_PARSE, "--seeds-per-axis must be >= 2")
    report = verify.certify(bundle, box, args.seeds_per_axis)
    out = report.to_obj()
    out["seed"] = args.seed
    _write_json(args.output, out)
    return EXIT_OK if report.overall_pass else EXIT_FAIL


def cmd_flow(args) -> int:
    from . import verify

    bundle = _read_bundle(args.input)
    try:
        start = [float(v) for v in args.start.split(",")]
    except ValueError as exc:
        raise CommandError(EXIT_PARSE, f"malformed --start: {exc}") from exc
    n = bundle.pointset.dimension
    if len(start) != n:
        raise CommandError(EXIT_PARSE, f"--start needs {n} coordinates")
    box = verify.BoxSpec.from_points(bundle.pointset.points)
    lo, hi = box.guard()
    if not all(l <= s <= h for l, s, h in zip(lo, start, hi)):
        raise CommandError(EXIT_PARSE, "start point lies outside the 10x inflated box")
    cfg = _flow_config(args)
    trace = verify.integrate_batch(
        synth.descent_field(bundle.p), [start], box, bundle.pointset.points, cfg,
        lyap=bundle.p,
    ).traces()[0]
    _write_json(args.output, trace)
    return EXIT_OK if trace["classified"] == "converged_to" else EXIT_FAIL


def cmd_saddle_field(args) -> int:
    sf = synth.build_saddle_field(_read_pointset(args.input))
    _write_json(args.output, serialize.saddle_obj(sf))
    return EXIT_OK


def cmd_export_grid(args) -> int:
    import numpy as np

    from . import verify
    from .numeric import CompiledPoly

    bundle = _read_bundle(args.input)
    if bundle.pointset.dimension != 2:
        raise CommandError(EXIT_UNSUPPORTED, "export-grid supports n = 2 only")
    if args.resolution < 8:
        raise CommandError(EXIT_PARSE, "resolution must be >= 8")
    cfg = _flow_config(args)
    box = verify.BoxSpec.from_points(bundle.pointset.points)
    nodes = box.grid(args.resolution)
    values = CompiledPoly(bundle.p)(nodes)
    res = verify.integrate_batch(
        synth.descent_field(bundle.p), nodes, box, bundle.pointset.points, cfg
    )
    labels = np.where(res.status == verify.STATUS_CONVERGED, res.conv_idx, -1)
    out = args.output or "grid.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "P", "basin_label"])
        for (x, y), v, lab in zip(nodes, values, labels):
            w.writerow([repr(float(x)), repr(float(y)), repr(float(v)), int(lab)])
    return EXIT_OK


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser.  Its --seed default is MORSEFORGE_SEED as it is
    at each parse, not as it was when the parser was built; argparse converts
    a string default with type, so a malformed value exits 2 like a
    malformed --seed."""

    def parse_known_args(self, args=None, namespace=None):
        self.set_defaults(seed=os.environ.get("MORSEFORGE_SEED", "0"))
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="morseforge",
        description="Synthesize and verify polynomials with prescribed minima.",
    )
    sub = p.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def common(sp, output_required=False):
        sp.add_argument("-i", "--input", required=True)
        sp.add_argument("-o", "--output", required=output_required)
        sp.add_argument("--seed", type=int)

    sp = sub.add_parser("synthesize", help="point set file -> audit bundle")
    common(sp)

    sp = sub.add_parser("verify", help="recheck every claim in a bundle")
    common(sp)
    sp.add_argument("--box", action="append", metavar="LO,HI",
                    help="search box override, one flag per axis; a negative "
                    "lower bound needs the = form, --box=-3,3")
    sp.add_argument("--seeds-per-axis", type=int, default=None)

    sp = sub.add_parser("flow", help="integrate the descent flow from a point")
    common(sp)
    sp.add_argument("--start", required=True, metavar="X,Y,...")
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--t-max", type=float, default=200.0)

    sp = sub.add_parser("saddle-field", help="point set -> saddle-augmented field")
    common(sp)

    sp = sub.add_parser("export-grid", help="CSV raster of P and basin labels (n=2)")
    common(sp)
    sp.add_argument("--resolution", type=int, required=True)
    sp.add_argument("--dt", type=float, default=1e-2)
    sp.add_argument("--t-max", type=float, default=200.0)
    return p


# the parser of this process, built by the first main call
_parser: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # looked up at each call, so a wrapper set over a cmd_* function (a
    # profiler's hook) is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (GridTooLarge, CoefficientTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED


if __name__ == "__main__":
    sys.exit(main())
