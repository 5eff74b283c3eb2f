import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_separatrix_demo_runs(capsys):
    # starts at x1 = -0.1, 0, 0.1: the two off the separatrix reach a minimum
    load_script("separatrix_demo").main(["--offsets", "3", "--t-max", "30"])
    out = capsys.readouterr().out
    assert "2/3 starts converged; 1 (the separatrix itself) timed out" in out


def test_separatrix_demo_counts_off_line_timeouts(capsys):
    # at t_max = 5 no start reaches a minimum; only x1 = 0 is on the separatrix
    load_script("separatrix_demo").main(["--offsets", "3", "--t-max", "5"])
    out = capsys.readouterr().out
    assert ("0/3 starts converged; 1 (the separatrix itself) timed out; "
            "2 off the separatrix timed out.") in out


def test_bench_pairs_summary():
    pairs = load_script("bench_pairs")
    metrics = pairs.METRICS
    parent = [dict.fromkeys(metrics, v) for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [dict.fromkeys(metrics, v) for v in (0.9, 2.5, 2.0, 4.0, 4.0)]
    summary = pairs.summarize(parent, change)
    assert set(summary) == set(metrics)
    wall = summary["wall_s"]
    assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0,
                              "runs": [1.0, 2.0, 3.0, 4.0, 5.0]}
    assert wall["change"] == {"median": 2.5, "q1": 2.0, "q3": 4.0,
                              "runs": [0.9, 2.5, 2.0, 4.0, 4.0]}
    # the tie at 4.0 counts for neither side
    assert wall["change_lower_in"] == "3/5"
    assert wall["change_higher_in"] == "1/5"
    assert wall["median_diff"] == -0.5
    assert wall["median_rel_change"] == 2.5 / 3.0 - 1.0
    assert wall["parent_iqr"] == 2.0
    assert wall["claim_met"] is False

    # ten pairs, parent 10..19 (median 14.5, quartile spread 4.5); the last
    # pair ties in every case
    def verdict(drops):
        runs = [10.0 + i for i in range(10)]
        parent = [dict.fromkeys(metrics, v) for v in runs]
        change = [dict.fromkeys(metrics, v - d) for v, d in zip(runs, drops + [0.0])]
        return pairs.summarize(parent, change)["wall_s"]["claim_met"]

    assert verdict([5.0] * 9) is True  # 9/10 lower, median 5 lower
    assert verdict([4.5] * 9) is False  # median lower by the spread itself
    assert verdict([4.0] * 9) is False  # median lower by less than it
    assert verdict([9.0] * 8 + [-1.0]) is False  # lower in 8/10 only
    assert verdict([-5.0] * 9) is False  # higher in 9/10
    assert pairs.parse_seeds("31-40") == list(range(31, 41))
    assert pairs.parse_seeds("7") == [7]


def test_same_outputs_differences():
    same = load_script("same_outputs")
    assert same.parse_seeds("1,101") == [1, 101]

    def record(argv, stage="job", **fields):
        rec = {"workload": "verify", "seed": 1, "stage": stage, "argv": argv,
               "code": 0, "stdout": "", "stderr": "", "sha256": "ab"}
        return {**rec, **fields}

    setup = record(["synthesize", "-i", "a.json", "-o", "b.json"], stage="setup")
    job = record(["verify", "-i", "b.json", "-o", "r.json"])
    assert same.differences([setup, job], [setup, job]) == []
    assert same.differences([setup, job], [setup, {**job, "code": 1, "sha256": "cd"}]) == [
        "verify seed 1 job: verify -i b.json -o r.json: differs in code, sha256"]
    assert same.differences([setup, job], [{**setup, "stderr": "error: x\n"}, job]) == [
        "verify seed 1 setup: synthesize -i a.json -o b.json: differs in stderr"]
    assert same.differences([setup, job], [setup]) == [
        "verify seed 1 job: verify -i b.json -o r.json: run by the parent only"]
    assert same.differences([setup], [setup, job]) == [
        "verify seed 1 job: verify -i b.json -o r.json: run by the change only"]
    other = {**job, "argv": ["verify", "-i", "c.json", "-o", "r.json"]}
    assert same.differences([job], [other]) == [
        "verify seed 1 job: verify -i b.json -o r.json: the change ran "
        "verify -i c.json -o r.json"]
