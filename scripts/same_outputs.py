"""Do two revisions give the same outputs on the benchmark's commands?

    python3 scripts/same_outputs.py PARENT CHANGE --seeds 1,101

Run it from inside the git repository.  It exports both revisions with
``git archive`` (``bench_pairs.export``) into a temporary directory, then
runs, for each tree in its own process, every set-up and job command of the
perfbench workloads synth, verify and flow at each seed, through that
tree's own ``morseforge.cli.main`` and in the same work directory, so that
both trees see the same argument lists.  For every command it records the
exit code, standard output, standard error and the sha256 of the file the
command wrote (``-o``).  It prints each command whose record differs
between the trees and exits 1 if any does, 0 if none does.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("synth", "verify", "flow")
FIELDS = ("code", "stdout", "stderr", "sha256")
# perfbench/run.py pins the BLAS and OpenMP pools to one thread; so does this
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_seeds(text: str) -> list:
    """Comma-separated seeds, "1,101"."""
    return [int(s) for s in text.split(",")]


def _run(cli, argv: list) -> dict:
    """One CLI command: its exit code, what it printed, and the sha256 of
    the file it wrote (None when it wrote none)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
    path = Path(argv[argv.index("-o") + 1]) if "-o" in argv else None
    digest = hashlib.sha256(path.read_bytes()).hexdigest() if path and path.exists() else None
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "sha256": digest}


def collect(work: str, seeds: list) -> list:
    """Every set-up and job command of every workload at every seed, run in
    this process from an empty work directory; morseforge and perfbench's
    workloads are imported from the tree on sys.path."""
    import workloads
    from morseforge import cli

    work = Path(work)
    records = []
    for name in WORKLOADS:
        for seed in seeds:
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            wl = workloads.build(name, seed, work)
            for stage, commands in (("setup", wl.setup), ("job", [j.argv for j in wl.jobs])):
                for argv in commands:
                    records.append({"workload": name, "seed": seed, "stage": stage,
                                    **_run(cli, argv)})
    return records


def run_tree(tree: Path, work: Path, seeds: list) -> list:
    """collect() in a fresh interpreter that imports the tree's own package
    and workloads."""
    code = ("import json, sys\n"
            "sys.path[:0] = sys.argv[1:4]\n"
            "from same_outputs import collect\n"
            "print(json.dumps(collect(sys.argv[4], json.loads(sys.argv[5]))))\n")
    paths = [str(Path(__file__).resolve().parent), str(tree / "src"), str(tree / "perfbench")]
    env = dict(os.environ, **dict.fromkeys(BLAS_VARS, "1"))
    proc = subprocess.run([sys.executable, "-c", code, *paths, str(work), json.dumps(seeds)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"running the commands in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def differences(parent: list, change: list) -> list:
    """One line per command whose record differs between the two lists of
    records, in order; a command run on one side only differs too."""
    lines = []
    for i in range(max(len(parent), len(change))):
        a = parent[i] if i < len(parent) else None
        b = change[i] if i < len(change) else None
        rec = a or b
        label = f"{rec['workload']} seed {rec['seed']} {rec['stage']}: {' '.join(rec['argv'])}"
        if a is None or b is None:
            lines.append(f"{label}: run by the {'change' if a is None else 'parent'} only")
        elif a["argv"] != b["argv"]:
            lines.append(f"{label}: the change ran {' '.join(b['argv'])}")
        else:
            changed = [f for f in FIELDS if a[f] != b[f]]
            if changed:
                lines.append(f"{label}: differs in {', '.join(changed)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="comma-separated, 1,101")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from bench_pairs import export

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        records = {}
        for side in ("parent", "change"):
            commit = export(getattr(args, side), tmp / side)
            print(f"{side}: {commit}", file=sys.stderr)
            records[side] = run_tree(tmp / side, tmp / "work", args.seeds)
    lines = differences(records["parent"], records["change"])
    for line in lines:
        print(line)
    total = max(len(records["parent"]), len(records["change"]))
    print(f"{len(lines)} of {total} commands differ in exit code, stdout, stderr "
          f"or output sha256")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
