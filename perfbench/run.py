"""Benchmark of the morseforge CLI: synthesize, verify, flow, export-grid
and saddle-field, driven in-process through ``morseforge.cli.main``.

    python3 perfbench/run.py --workload synth --seed 1 --seconds 10 --trace 0

Run it from the repository root.  It builds its inputs from --seed, sets up
(a fresh-interpreter ``import morseforge`` plus the program work the timed
jobs depend on, repeated and reported as the median), then repeats passes
over the workload's fixed job list for --seconds.  Every job runs under a
per-job deadline; a job stopped there is charged the deadline in later
passes without running again.  Outputs are checked after the timed passes.

Times are seconds at a reference machine speed: each job's wall time is
scaled by a reference computation timed next to it (see measure.py).  The
raw wall-clock times are in the details line.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced ones (medians)
plus the tracing overhead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The line before it
holds the details: machine facts, input digests, failure causes, per-job
times.  All load comes from this one single-threaded process.
"""

import os

# pin BLAS/OpenMP pools before numpy is imported, here and in subprocesses
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, Optional  # noqa: E402

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_REPEATS = 5

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_max_s", "s"),
    ("peak_rss_mb", "MB"),
]
# end-to-end outcome ratios; zero or undefined on some workloads, so they
# are reported in the table and as per-layer metrics rather than bounded
OUTCOMES = [
    ("failed_frac", "ratio"),
    ("newton_recall", "ratio"),
    ("flow_converged_frac", "ratio"),
]


class SetupError(RuntimeError):
    pass


@dataclass
class PassRecord:
    executions: List[measure.Execution]
    codes: list
    digests: List[Optional[str]]
    references: List[float]


def file_digest(path: Path) -> Optional[str]:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def machine_facts() -> dict:
    import numpy
    from morseforge import _rat

    rat = getattr(_rat, "Rat", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2_present": importlib.util.find_spec("gmpy2") is not None,
        "rat_type": f"{rat.__module__}.{rat.__qualname__}" if rat else None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "platform": platform.platform(),
    }


def set_up(wl, cli) -> dict:
    """Fresh-interpreter import plus the program work the jobs read,
    SETUP_REPEATS times.  Outputs must be identical each time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    totals, raws, imports, works, digests = [], [], [], [], set()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        ref_before = measure.reference_seconds()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import morseforge"], env=env,
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        t_import = time.perf_counter() - t0
        gc.collect()
        t0 = time.perf_counter()
        for argv in wl.setup:
            code = cli.main(argv)
            if code != 0:
                raise SetupError(f"set-up command {argv[0]} exited {code}")
        t_work = time.perf_counter() - t0
        reference = (ref_before + measure.reference_seconds()) / 2
        imports.append(t_import)
        works.append(t_work)
        raws.append(t_import + t_work)
        totals.append(measure.at_reference_speed(t_import + t_work, reference))
        if wl.setup_outputs:
            digests.add(digest_files(wl.setup_outputs))
    if len(digests) > 1:
        raise SetupError("set-up outputs differ between repetitions")
    return {
        "setup_s": measure.median(totals),
        "raw_setup_s": measure.median(raws),
        "import_s": measure.median(imports),
        "program_work_s": measure.median(works),
        "repeats": SETUP_REPEATS,
        "bundles_sha256": digests.pop() if digests else None,
    }


def run_pass(wl, cli, tracer=None, stopped=frozenset()) -> PassRecord:
    """One pass over the job list, with the reference timed before each job
    and after the last; a job's time is scaled by the mean of the two
    reference times around it.  Jobs in `stopped` hit the deadline in an
    earlier pass: they are charged the deadline again without running."""
    rec = PassRecord([], [], [], [])
    raws, refs = [], rec.references
    for j, job in enumerate(wl.jobs):
        job.output.unlink(missing_ok=True)
        gc.collect()
        refs.append(measure.reference_seconds())
        if j in stopped:
            raws.append((wl.deadline_s, "deadline"))
            rec.codes.append(None)
            rec.digests.append(None)
            continue
        if tracer is not None:
            tracer.job = j
        code, cause, elapsed = measure.run_with_deadline(
            lambda: cli.main(job.argv), wl.deadline_s)
        if cause is None and code not in job.expected_codes:
            cause = f"exit:{code}"
        raws.append((elapsed, cause))
        rec.codes.append(code)
        rec.digests.append(file_digest(job.output) if cause is None else None)
    gc.collect()
    refs.append(measure.reference_seconds())
    for j, (raw, cause) in enumerate(raws):
        # a stopped job ran for the deadline, which is clock time
        scaled = raw if cause == "deadline" else \
            measure.at_reference_speed(raw, (refs[j] + refs[j + 1]) / 2)
        rec.executions.append(measure.Execution(scaled, cause, raw))
    return rec


def check_outputs(wl, passes: List[PassRecord]) -> list:
    """Check each job's output from the last pass; a failed check, or output
    that changed between passes, fails that job in every pass."""
    last = passes[-1]
    checks = []
    for j, job in enumerate(wl.jobs):
        if last.executions[j].cause is None:
            chk = workloads.check(job, last.codes[j])
        else:
            chk = workloads.Check(trajectories=job.trajectories)
        seen = {p.digests[j] for p in passes if p.executions[j].cause is None}
        if chk.cause is None and len(seen) > 1:
            chk.cause = "nondeterministic output"
        checks.append(chk)
        if chk.cause is not None:
            for p in passes:
                if p.executions[j].cause is None:
                    p.executions[j].cause = chk.cause
    return checks


def outcome_ratios(checks) -> dict:
    minima = sum(c.minima for c in checks)
    trajectories = sum(c.trajectories for c in checks)
    return {
        "newton_recall": sum(c.matched for c in checks) / minima if minima else None,
        "flow_converged_frac": (sum(c.converged for c in checks) / trajectories
                                if trajectories else None),
        "minima": minima,
        "trajectories": trajectories,
    }


def run(args, work: Path) -> tuple:
    from morseforge import cli

    wl = workloads.build(args.workload, args.seed, work)
    details = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_facts(),
        "deadline_s": wl.deadline_s,
        "inputs_sha256": digest_files(wl.inputs),
        "jobs": [job.label for job in wl.jobs],
    }
    details["setup"] = set_up(wl, cli)

    tracer = spans.Tracer() if args.trace else None
    plain: List[PassRecord] = []
    traced: List[PassRecord] = []
    layer: List[dict] = []
    start = time.perf_counter()
    stopped: set = set()
    while not plain or time.perf_counter() - start < args.seconds:
        plain.append(run_pass(wl, cli, stopped=stopped))
        stopped.update(j for j, e in enumerate(plain[-1].executions) if e.cause == "deadline")
        if tracer is not None:
            tracer.reset()
            spans.install(tracer)
            try:
                traced.append(run_pass(wl, cli, tracer))
            finally:
                tracer.remove()
            refs = traced[-1].references
            layer.append(spans.pass_metrics(
                tracer, measure.at_reference_speed(1.0, sum(refs) / len(refs))))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = plain + traced
    t0 = time.perf_counter()
    checks = check_outputs(wl, passes)
    details["check_s"] = time.perf_counter() - t0
    summary = measure.summarize([p.executions for p in passes])
    timing = measure.summarize([p.executions for p in plain])
    raw_timing = measure.summarize(
        [[measure.Execution(e.raw, e.cause) for e in p.executions] for p in plain])
    ratios = outcome_ratios(checks)
    details["outputs_sha256"] = hashlib.sha256(
        "".join(d or "-" for d in passes[-1].digests).encode()).hexdigest()
    details["summary"] = {k: v for k, v in timing.items() if k not in ("attempted", "failed")}
    details["raw_wall_clock"] = {k: raw_timing[k] for k in
                                 ("wall_s", "job_p50_s", "job_max_s", "pass_walls_s")}
    details["raw_job_s"] = [[e.raw for e in p.executions] for p in plain]
    details["reference_s"] = [p.references for p in plain]
    details["failure_causes"] = summary["failure_causes"]
    details["outcomes"] = ratios
    details["job_median_s"] = {
        job.label: measure.median([p.executions[j].elapsed for p in plain])
        for j, job in enumerate(wl.jobs)
    }
    correct = all(cause == "deadline" for cause in summary["failure_causes"])

    values = {
        "setup_s": details["setup"]["setup_s"],
        "wall_s": timing["wall_s"],
        "job_p50_s": timing["job_p50_s"],
        "job_max_s": timing["job_max_s"],
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": summary["failed_frac"],
        "newton_recall": ratios["newton_recall"],
        "flow_converged_frac": ratios["flow_converged_frac"],
    }
    if math.isnan(values["job_max_s"]):
        correct = False
        values["job_max_s"] = 0.0
    if tracer is None:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        table = END_TO_END + OUTCOMES
    else:
        merged = {name: measure.median([m.get(name, 0.0) for m in layer])
                  for name, _, _ in spans.PER_LAYER}
        merged["trace.wall_s"] = measure.summarize([p.executions for p in traced])["wall_s"]
        merged["trace.overhead_frac"] = merged["trace.wall_s"] / timing["wall_s"] - 1.0
        for name, _ in OUTCOMES:
            merged[name] = values[name] if values[name] is not None else 0.0
        details["absent"] = sorted(set(tracer.absent)) + [
            name for name, _ in OUTCOMES if values[name] is None]
        metrics = {name: {"value": merged[name], "unit": unit}
                   for name, unit, _ in spans.PER_LAYER}
        table = [(name, unit) for name, unit, _ in spans.PER_LAYER]
        values = merged
    result = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    return table, values, details, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("synth", "verify", "flow"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "morseforge" / "__init__.py").is_file():
        print(f"error: no morseforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import morseforge

    if SRC.resolve() not in Path(morseforge.__file__).resolve().parents:
        print(f"error: imported morseforge from {morseforge.__file__}", file=sys.stderr)
        return 2

    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        table, values, details, result = run(args, work)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, unit in table:
        v = values.get(name)
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"  {name:<36} {shown:>14} {unit}")
    print(json.dumps({"details": details}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
