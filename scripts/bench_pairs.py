"""Alternating parent/change pairs of perfbench runs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload verify \\
        --seeds 31-40 --seconds 25 --dir WORKDIR -o pairs.json

Run it from inside the git repository.  It exports both revisions with
``git archive`` into WORKDIR/parent and WORKDIR/change, then for each seed
runs ``perfbench/run.py --workload W --seed S --seconds S --trace 0`` on
both trees, one run at a time: the parent first on even seeds, the change
first on odd ones, so that a drift in the machine's speed does not favour
one side.  The JSON it writes gives, for every end-to-end metric and for the
unscaled fresh-interpreter import time (perfbench's ``details.setup.import_s``,
which the scaled ``setup_s`` is derived from), each side's median, quartiles
and individual runs, in how many pairs the change read lower, and
``claim_met``: whether the change read lower in at least nine tenths of the
pairs (ties count for neither side) and its median lies below the parent's
by more than the parent's quartile spread.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

METRICS = ("setup_s", "wall_s", "job_p50_s", "job_max_s", "peak_rss_mb", "import_s")


def parse_seeds(text: str) -> list:
    """"A-B" (inclusive) or one seed."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def export(rev: str, dest: Path) -> str:
    """Extract the tree of rev into dest; returns its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its end-to-end metrics, import_s, failed and
    correct."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {tree} at seed {seed}:\n{proc.stderr}")
    *_, details, result = proc.stdout.splitlines()
    result = json.loads(result)
    out = {name: m["value"] for name, m in result["metrics"].items()}
    out["import_s"] = json.loads(details)["details"]["setup"]["import_s"]
    out["failed"] = result["failed"]
    out["correct"] = result["correct"]
    return out


def spread(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def summarize(parent: list, change: list) -> dict:
    """Per metric, each side's spread over the paired runs (lists of dicts,
    one per seed, in the same order) and how often the change was lower or
    higher than the parent in its pair; ties count for neither.  A gain is
    claimed (claim_met) when the change is lower in at least 9/10 of the
    pairs and its median is lower by more than the parent's quartile
    spread."""
    out = {}
    for name in METRICS:
        p = [r[name] for r in parent]
        c = [r[name] for r in change]
        ps, cs = spread(p), spread(c)
        lower = sum(b < a for a, b in zip(p, c))
        diff, iqr = cs["median"] - ps["median"], ps["q3"] - ps["q1"]
        out[name] = {
            "parent": ps,
            "change": cs,
            "change_lower_in": f"{lower}/{len(p)}",
            "change_higher_in": f"{sum(b > a for a, b in zip(p, c))}/{len(p)}",
            "median_diff": diff,
            "median_rel_change": cs["median"] / ps["median"] - 1.0,
            "parent_iqr": iqr,
            "claim_met": 10 * lower >= 9 * len(p) and -diff > iqr,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True, choices=("synth", "verify", "flow"))
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, at least two seeds")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--dir", type=Path, required=True,
                    help="a directory that does not exist yet, for the two trees")
    ap.add_argument("-o", "--output", type=Path, required=True)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("--seeds needs at least two seeds")

    trees = {side: args.dir / side for side in ("parent", "change")}
    commits = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
    runs = {"parent": [], "change": []}
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(trees[side], args.workload, seed, args.seconds))
            print(f"seed {seed} {side}: wall_s {runs[side][-1]['wall_s']:.4f}", file=sys.stderr)
    report = {
        "workload": args.workload,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "commits": commits,
        "order": "parent first on even seeds, change first on odd seeds",
        "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
        "correct": all(r["correct"] for rs in runs.values() for r in rs),
        "metrics": summarize(runs["parent"], runs["change"]),
    }
    args.output.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
