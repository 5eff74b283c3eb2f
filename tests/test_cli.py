import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import morseforge
from morseforge import cli, serialize
from morseforge._rat import rat
from morseforge.poly import MultiPoly, PolyMap
from morseforge.synth import synthesize


def write_pointset(path, dimension, points):
    path.write_text(json.dumps({"dimension": dimension, "points": points}))
    return str(path)


@pytest.fixture
def two_point_bundle(tmp_path):
    pts = write_pointset(tmp_path / "pts.json", 2, [["-1/2", "0"], ["1/2", "1/4"]])
    bundle = tmp_path / "bundle.json"
    assert cli.main(["synthesize", "-i", pts, "-o", str(bundle)]) == 0
    return bundle


# runs in a fresh interpreter: argv[1] is a point set, argv[2] an output
# directory; prints what the exact commands left loaded and the lazy names
COLD_PATH = """
import json, sys
import morseforge, morseforge.cli
for cmd in ("synthesize", "saddle-field"):
    out = sys.argv[2] + "/" + cmd + ".json"
    assert morseforge.cli.main([cmd, "-i", sys.argv[1], "-o", out]) == 0
loaded = sorted({"numpy", "morseforge.numeric", "morseforge.verify"} & set(sys.modules))
listed = sorted(set(morseforge._VERIFY_NAMES) & set(dir(morseforge)))
resolved = [getattr(morseforge, name) is getattr(sys.modules["morseforge.verify"], name)
            for name in morseforge._VERIFY_NAMES]
print(json.dumps({"loaded": loaded, "listed": listed, "resolved": resolved}))
"""


def test_exact_commands_leave_numpy_unloaded(tmp_path):
    pts = write_pointset(tmp_path / "pts.json", 2, [["-1/2", "0"], ["1/2", "1/4"]])
    src = str(Path(morseforge.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", COLD_PATH, pts, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    seen = json.loads(run.stdout)
    assert seen["loaded"] == []
    assert seen["listed"] == sorted(morseforge._VERIFY_NAMES)
    assert seen["resolved"] == [True] * len(morseforge._VERIFY_NAMES)
    assert (tmp_path / "synthesize.json").exists() and (tmp_path / "saddle-field.json").exists()


class TestSynthesize:
    def test_round_trip_bit_exact(self, two_point_bundle):
        obj = json.loads(two_point_bundle.read_text())
        parsed = serialize.parse_bundle(obj)
        again = serialize.bundle_obj(synthesize(parsed.pointset))
        assert json.dumps(obj, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_dimension_one_rejected(self, tmp_path):
        pts = write_pointset(tmp_path / "pts.json", 1, [["0"]])
        assert cli.main(["synthesize", "-i", pts]) == 3

    def test_malformed_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["synthesize", "-i", str(bad)]) == 2

    def test_missing_file_rejected(self, tmp_path):
        assert cli.main(["synthesize", "-i", str(tmp_path / "nope.json")]) == 2

    def test_duplicate_points_rejected(self, tmp_path):
        pts = write_pointset(tmp_path / "pts.json", 2, [["0", "1"], ["0", "1"]])
        assert cli.main(["synthesize", "-i", pts]) == 3


class TestVerify:
    def test_fresh_bundle_passes(self, two_point_bundle, tmp_path):
        report = tmp_path / "report.json"
        code = cli.main(["verify", "-i", str(two_point_bundle),
                         "-o", str(report), "--seeds-per-axis", "30"])
        assert code == 0
        obj = json.loads(report.read_text())
        assert obj["overall_pass"] is True
        assert obj["grad_field_consistent"] is True
        assert obj["minors_match_bundle"] is True
        assert list(obj) == [
            "per_point", "spurious_search", "box", "overall_pass", "minors_match_bundle",
            "hessians_match_bundle", "grad_field_consistent", "seed",
        ]
        assert list(obj["spurious_search"]) == [
            "seeds_used", "converged_points", "all_within_tol_of_X", "tol", "abandoned",
            "singular", "blind", "polish_failed", "newton_recall", "coverage", "degraded",
        ]

    def test_tampered_polynomial_fails(self, two_point_bundle, tmp_path):
        obj = json.loads(two_point_bundle.read_text())
        p = MultiPoly.from_obj(obj["p"]) + MultiPoly.variable(2, 0)
        obj["p"] = p.to_obj()
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(obj))
        code = cli.main(["verify", "-i", str(bad),
                         "-o", str(tmp_path / "r.json"), "--seeds-per-axis", "30"])
        assert code == 1

    def test_flipped_minor_fails(self, two_point_bundle, tmp_path):
        obj = json.loads(two_point_bundle.read_text())
        first = obj["minors"][0][0]
        obj["minors"][0][0] = "-" + first if not first.startswith("-") else first[1:]
        bad = tmp_path / "flipped.json"
        bad.write_text(json.dumps(obj))
        code = cli.main(["verify", "-i", str(bad),
                         "-o", str(tmp_path / "r.json"), "--seeds-per-axis", "30"])
        assert code == 1

    def test_tampered_hessian_fails(self, two_point_bundle, tmp_path):
        obj = json.loads(two_point_bundle.read_text())
        obj["hessians"][0] = [["-7", "0"], ["0", "-7"]]
        bad = tmp_path / "hessian.json"
        bad.write_text(json.dumps(obj))
        report = tmp_path / "r.json"
        code = cli.main(["verify", "-i", str(bad),
                         "-o", str(report), "--seeds-per-axis", "30"])
        assert code == 1
        assert json.loads(report.read_text())["hessians_match_bundle"] is False

    @pytest.mark.parametrize("keep", [1, 0])
    def test_truncated_claims_fail(self, two_point_bundle, tmp_path, keep):
        obj = json.loads(two_point_bundle.read_text())
        obj["minors"] = obj["minors"][:keep]
        if keep == 0:
            obj["hessians"] = []
        bad = tmp_path / "truncated.json"
        bad.write_text(json.dumps(obj))
        code = cli.main(["verify", "-i", str(bad),
                         "-o", str(tmp_path / "r.json"), "--seeds-per-axis", "30"])
        assert code == 1

    def test_non_object_bundle_rejected(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[]")
        assert cli.main(["verify", "-i", str(bad)]) == 2

    def test_wrong_schema_rejected(self, two_point_bundle, tmp_path):
        obj = json.loads(two_point_bundle.read_text())
        obj["schema"] = "something-else"
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps(obj))
        assert cli.main(["verify", "-i", str(bad)]) == 2

    def test_box_override_arity_checked(self, two_point_bundle, tmp_path):
        code = cli.main(["verify", "-i", str(two_point_bundle),
                         "--box=-1,1"])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--seeds-per-axis", "1"],
        ["--seeds-per-axis", "0"],
        ["--box=-inf,inf", "--box=-1,1"],
    ])
    def test_bad_search_flags_rejected(self, two_point_bundle, tmp_path, flags):
        code = cli.main(["verify", "-i", str(two_point_bundle),
                         "-o", str(tmp_path / "r.json"), *flags])
        assert code == 2
        assert not (tmp_path / "r.json").exists()


    def test_report_has_recall_and_singular(self, two_point_bundle, tmp_path):
        # the plane set [[0, 0]] at the default 45 seeds per axis pins the
        # counts: 47 seeds meet an exactly singular Jacobian or a non-finite
        # Newton step
        one_point = tmp_path / "one.json"
        pts = write_pointset(tmp_path / "one.points.json", 2, [["0", "0"]])
        assert cli.main(["synthesize", "-i", pts, "-o", str(one_point)]) == 0
        for bundle, counts in [(two_point_bundle, None), (one_point, (2025, 47, 1385))]:
            report = tmp_path / "report.json"
            assert cli.main(["verify", "-i", str(bundle), "-o", str(report)]) == 0
            search = json.loads(report.read_text())["spurious_search"]
            assert search["newton_recall"] == 1.0
            assert isinstance(search["singular"], int)
            if counts is not None:
                assert (search["seeds_used"], search["singular"], search["abandoned"]) == counts

    def test_overflowing_polish_residual_is_not_converged(self, two_point_bundle,
                                                         tmp_path, capsys):
        # over this box the exact gradient at some float candidates passes
        # 1e154, whose norm overflows; those polishes fail quietly
        report = tmp_path / "report.json"
        assert cli.main(["verify", "-i", str(two_point_bundle), "-o", str(report),
                         "--box=-1e20,1e20", "--box=-1e20,1e20"]) == 0
        assert capsys.readouterr().err == ""
        search = json.loads(report.read_text())["spurious_search"]
        assert (search["newton_recall"], search["polish_failed"]) == (0.0, 7)

    def test_polish_residual_past_the_double_range_fails_the_polish(
            self, two_point_bundle, tmp_path, capsys):
        # with p = x^41/41 + x/10^7 + y^2/2, a Newton step of the polish
        # from near x = 0 lands far out, where the exact residual x^40 +
        # 10^-7 is past the largest double: that polish fails, and verify
        # exits 1 since the stored claims do not hold for this p
        obj = json.loads(two_point_bundle.read_text())
        x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        p = x ** 41 * rat(1, 41) + x * rat(1, 10 ** 7) + y * y * rat(1, 2)
        obj["p"] = p.to_obj()
        bad = tmp_path / "steep.json"
        bad.write_text(json.dumps(obj))
        report = tmp_path / "report.json"
        assert cli.main(["verify", "-i", str(bad), "-o", str(report),
                         "--box=-1,1", "--box=-1,1"]) == 1
        assert capsys.readouterr().err == ""
        assert json.loads(report.read_text())["spurious_search"]["polish_failed"] >= 1

    def test_low_recall_is_reported_not_failed(self, two_point_bundle, tmp_path):
        report = tmp_path / "report.json"
        code = cli.main(["verify", "-i", str(two_point_bundle), "-o", str(report),
                         "--seeds-per-axis", "2"])
        assert code == 0
        obj = json.loads(report.read_text())
        assert obj["spurious_search"]["newton_recall"] < 1.0
        assert obj["overall_pass"] is True

    def test_oversized_seed_grid_unsupported(self, tmp_path):
        pts = write_pointset(tmp_path / "pts.json", 3,
                             [["0", "0", "0"], ["1", "0", "0"]])
        bundle = tmp_path / "b3.json"
        assert cli.main(["synthesize", "-i", pts, "-o", str(bundle)]) == 0
        out = tmp_path / "report.json"
        code = cli.main(["verify", "-i", str(bundle), "-o", str(out),
                         "--seeds-per-axis", "100000"])
        assert code == 4
        assert not out.exists()

    def test_oversized_default_seed_grid_unsupported(self, tmp_path):
        # default seeds at n = 21 are 2 per axis, 2^21 rows
        n = 21
        pts = write_pointset(tmp_path / "pts.json", n,
                             [["0"] * n, ["1"] + ["0"] * (n - 1)])
        bundle = tmp_path / "b21.json"
        assert cli.main(["synthesize", "-i", pts, "-o", str(bundle)]) == 0
        out = tmp_path / "report.json"
        assert cli.main(["verify", "-i", str(bundle), "-o", str(out)]) == 4
        assert not out.exists()


# x1 values near +-10^40 (integers): synthesize succeeds, but P has
# coefficients past the largest double, about 2^1024; the one point at
# 10^400 has a coordinate past it too
HUGE = 10 ** 40
HUGE_SETS = {
    2: [[HUGE + 1, 0], [-HUGE + 7, 1], [0, 0]],
    3: [[HUGE + 1, 0, 0], [-HUGE + 7, 1, 0], [3 * HUGE, 0, 1], [0, 0, 0]],
    "coordinate": [[10 ** 400, 0]],
}


@pytest.mark.parametrize("command, case", [
    ("verify", 2), ("verify", 3), ("flow", 2), ("flow", 3), ("export-grid", 2),
    ("verify", "coordinate"), ("flow", "coordinate"), ("export-grid", "coordinate"),
])
def test_coefficient_past_double_range_unsupported(command, case, tmp_path, capsys):
    dim = len(HUGE_SETS[case][0])
    pts = write_pointset(tmp_path / "pts.json", dim, HUGE_SETS[case])
    bundle = tmp_path / "bundle.json"
    assert cli.main(["synthesize", "-i", pts, "-o", str(bundle)]) == 0
    extra = {
        "verify": [],
        "flow": ["--start", ",".join(["0"] * dim)],
        "export-grid": ["--resolution", "8"],
    }[command]
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main([command, "-i", str(bundle), "-o", str(out), *extra]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


class TestFlow:
    def test_descent_converges(self, two_point_bundle, tmp_path):
        out = tmp_path / "trace.json"
        code = cli.main(["flow", "-i", str(two_point_bundle),
                         "-o", str(out), "--start", "0.4,0.2",
                         "--dt", "0.01"])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["classified"] == "converged_to"
        assert obj["converged_index"] in (0, 1)
        assert obj["timeout_reason"] is None

    def test_timeout_reason_in_trace(self, two_point_bundle, tmp_path):
        out = tmp_path / "trace.json"
        code = cli.main(["flow", "-i", str(two_point_bundle), "-o", str(out),
                         "--start", "0.4,0.2", "--t-max", "0.01"])
        assert code == 1
        obj = json.loads(out.read_text())
        assert obj["classified"] == "max_time_reached"
        assert obj["timeout_reason"] == "t_max"

    def test_negative_start_with_equals_form(self, two_point_bundle, tmp_path):
        # argparse reads "--start -0.6,0.9" as an option; the = form passes it
        code = cli.main(["flow", "-i", str(two_point_bundle),
                         "-o", str(tmp_path / "trace.json"), "--start=-0.6,0.9"])
        assert code != 2
        assert json.loads((tmp_path / "trace.json").read_text())["start"] == [-0.6, 0.9]

    def test_far_start_rejected(self, two_point_bundle):
        code = cli.main(["flow", "-i", str(two_point_bundle),
                         "--start", "1000,1000"])
        assert code == 2

    def test_wrong_arity_rejected(self, two_point_bundle):
        code = cli.main(["flow", "-i", str(two_point_bundle),
                         "--start", "0.1"])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--dt", "0"], ["--dt", "-1"], ["--dt", "nan"], ["--t-max", "0"],
        ["--t-max", "inf"],
    ])
    def test_bad_step_flags_rejected(self, two_point_bundle, tmp_path, flags):
        code = cli.main(["flow", "-i", str(two_point_bundle), "-o",
                         str(tmp_path / "t.json"), "--start", "0.4,0.2", *flags])
        assert code == 2
        assert not (tmp_path / "t.json").exists()


class TestSaddleField:
    def test_output_schema(self, tmp_path):
        pts = write_pointset(tmp_path / "pts.json", 2, [["-1", "0"], ["1", "0"]])
        out = tmp_path / "sf.json"
        assert cli.main(["saddle-field", "-i", pts, "-o", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["schema"] == "morseforge-saddle-field-v1"
        assert obj["stable_set"] == ["-1", "1"]
        assert obj["saddle_set"] == ["0"]
        # gamma = x - x^3 for stable set {-1, 1} with midpoint saddle 0
        gamma = MultiPoly.from_obj(obj["gamma"])
        x = MultiPoly.variable(1, 0)
        assert gamma == x - x ** 3

    def test_dimension_one_rejected(self, tmp_path):
        pts = write_pointset(tmp_path / "pts.json", 1, [["0"]])
        assert cli.main(["saddle-field", "-i", pts]) == 3


class TestExportGrid:
    def test_csv_shape_and_values(self, two_point_bundle, tmp_path):
        out = tmp_path / "grid.csv"
        code = cli.main(["export-grid", "-i", str(two_point_bundle),
                         "-o", str(out), "--resolution", "8",
                         "--t-max", "50"])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "P", "basin_label"]
        assert len(rows) == 1 + 64
        bundle = serialize.parse_bundle(json.loads(two_point_bundle.read_text()))
        for x, y, v, lab in rows[1:]:
            exact = float(bundle.p.eval_rational([float(x), float(y)]))
            assert abs(float(v) - exact) <= 1e-12 * max(1.0, abs(exact))
            assert int(lab) in (-1, 0, 1)

    def test_basin_labels_match_reference(self, tmp_path):
        # reference labels at t = 50 from an implicit Radau integration at
        # rtol 1e-11 and again at 1e-9 (computed offline; both agree on every
        # node), then the export-grid rule: a basin when |grad P| < 1e-6 within
        # 1e-3 of a minimum, else -1.  Rows are x nodes, columns y nodes.
        reference = [
            [0, 0, 0, 0, 0, 0, 0, -1],
            [-1, 0, 0, 0, 0, 0, 0, -1],
            [-1, -1, 0, 0, 0, 0, -1, -1],
            [-1, -1, 0, 0, 0, 0, -1, -1],
            [-1, -1, 1, 1, 1, 1, -1, -1],
            [-1, -1, 1, 1, 1, 1, 1, 1],
            [1, 1, 1, 1, 1, 1, 1, 1],
            [1, 1, 1, 1, 1, 1, 1, 1],
        ]
        pts = write_pointset(tmp_path / "pts.json", 2, [["-5/8", "1/2"], ["3/8", "3/4"]])
        bundle = tmp_path / "bundle.json"
        assert cli.main(["synthesize", "-i", pts, "-o", str(bundle)]) == 0
        out = tmp_path / "grid.csv"
        assert cli.main(["export-grid", "-i", str(bundle), "-o", str(out),
                         "--resolution", "8", "--t-max", "50"]) == 0
        with open(out) as fh:
            labels = [int(row[3]) for row in list(csv.reader(fh))[1:]]
        assert labels == [lab for row in reference for lab in row]

    def test_small_resolution_rejected(self, two_point_bundle):
        code = cli.main(["export-grid", "-i", str(two_point_bundle),
                         "--resolution", "4"])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--dt", "0"], ["--dt", "-1"], ["--t-max", "0"], ["--t-max", "-5"],
        ["--t-max", "inf"],
    ])
    def test_bad_step_flags_rejected(self, two_point_bundle, tmp_path, flags):
        code = cli.main(["export-grid", "-i", str(two_point_bundle), "-o",
                         str(tmp_path / "g.csv"), "--resolution", "8", *flags])
        assert code == 2
        assert not (tmp_path / "g.csv").exists()

    def test_oversized_raster_unsupported(self, two_point_bundle, tmp_path):
        out = tmp_path / "g.csv"
        code = cli.main(["export-grid", "-i", str(two_point_bundle),
                         "-o", str(out), "--resolution", "10000000"])
        assert code == 4
        assert not out.exists()

    def test_higher_dimension_unsupported(self, tmp_path):
        pts = write_pointset(tmp_path / "pts.json", 3,
                             [["0", "0", "0"], ["1", "0", "0"]])
        bundle = tmp_path / "b3.json"
        assert cli.main(["synthesize", "-i", pts, "-o", str(bundle)]) == 0
        code = cli.main(["export-grid", "-i", str(bundle),
                         "-o", str(tmp_path / "g.csv"), "--resolution", "8"])
        assert code == 4


BUNDLE_COMMANDS = [
    ("verify", []),
    ("flow", ["--start", "0.4,0.2"]),
    ("export-grid", ["--resolution", "8"]),
]
EVERY_COMMAND = [("synthesize", []), ("saddle-field", []), *BUNDLE_COMMANDS]


@pytest.mark.parametrize("command, extra", EVERY_COMMAND)
def test_zero_denominator_rejected(command, extra, two_point_bundle, tmp_path):
    if command in ("synthesize", "saddle-field"):
        src = write_pointset(tmp_path / "zero.json", 2, [["1/0", "0"], ["1", "0"]])
    else:
        obj = json.loads(two_point_bundle.read_text())
        obj["p"]["terms"][-1]["den"] = "0"
        src = tmp_path / "zero.json"
        src.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert cli.main([command, "-i", str(src), "-o", str(out), *extra]) == 2
    assert not out.exists()


# int() would truncate these to 2 (or read true as 1) and run the command
@pytest.mark.parametrize("value", [2.5, True])
@pytest.mark.parametrize("command, extra", EVERY_COMMAND)
def test_non_integer_dimension_rejected(command, extra, value, two_point_bundle, tmp_path):
    if command in ("synthesize", "saddle-field"):
        src = write_pointset(tmp_path / "dim.json", value, [["-1/2", "0"], ["1/2", "1/4"]])
    else:
        obj = json.loads(two_point_bundle.read_text())
        obj["pointset"]["dimension"] = value
        src = tmp_path / "dim.json"
        src.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert cli.main([command, "-i", str(src), "-o", str(out), *extra]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command, extra", BUNDLE_COMMANDS)
def test_fractional_exponent_rejected(command, extra, two_point_bundle, tmp_path):
    # int() would truncate e + 1/2 back to e and run the command on P
    obj = json.loads(two_point_bundle.read_text())
    obj["p"]["terms"][-1]["exponents"][0] += 0.5
    src = tmp_path / "exp.json"
    src.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert cli.main([command, "-i", str(src), "-o", str(out), *extra]) == 2
    assert not out.exists()


# JSON that breaks the schema, as (where, path, value): where is "pointset"
# (the point set file, or a bundle's pointset) or "bundle".  int() would read
# 1.9 and true as 1, Fraction reads true as 1 and fails on infinity with an
# OverflowError, a string where a list belongs iterates as its characters,
# and Fraction reads a float as its binary value: each float below equals
# the value it replaces, so only its JSON type breaks the schema.
SCHEMA_BREAKS = [
    ("pointset", ["points"], ["12", "34"]),
    ("pointset", ["points", 0, 0], True),
    ("pointset", ["points", 0, 0], float("inf")),
    ("bundle", ["p", "terms", -1, "num"], 1.9),
    ("bundle", ["p", "terms", -1, "num"], True),
    ("bundle", ["grad_field", "components", 0, "terms", 0, "den"], 1.0),
    ("bundle", ["hessians", 0], ["12", "34"]),
    ("bundle", ["minors", 0], "12"),
    ("bundle", ["minors", 0, 0], True),
    ("bundle", ["coord_change", "axis_images"], "12"),
    ("pointset", ["points", 0, 0], -0.5),
    ("bundle", ["hessians", 0, 0, 1], 1.5),
    ("bundle", ["minors", 0, 0], 2.125),
    ("bundle", ["coord_change", "axis_images", 0], -0.5),
]


@pytest.mark.parametrize("command, extra, where, path, value", [
    pytest.param(command, extra, where, path, value,
                 id=f"{command}-{where}.{'.'.join(map(str, path))}="
                 f"{json.dumps(value, separators=(',', ':'))}")
    for where, path, value in SCHEMA_BREAKS
    for command, extra in EVERY_COMMAND
    if where == "pointset" or (command, extra) in BUNDLE_COMMANDS
])
def test_schema_break_rejected(command, extra, where, path, value, two_point_bundle,
                               tmp_path):
    if command in ("synthesize", "saddle-field"):
        obj = target = {"dimension": 2, "points": [["-1/2", "0"], ["1/2", "1/4"]]}
    else:
        obj = json.loads(two_point_bundle.read_text())
        target = obj["pointset"] if where == "pointset" else obj
    *head, last = path
    for key in head:
        target = target[key]
    target[last] = value
    src = tmp_path / "broken.json"
    src.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert cli.main([command, "-i", str(src), "-o", str(out), *extra]) == 2
    assert not out.exists()


@pytest.mark.parametrize("tamper", ["pointset", "p", "grad_field", "forward"])
@pytest.mark.parametrize("command", ["verify", "flow", "export-grid"])
def test_dimension_disagreement_rejected(command, tamper, two_point_bundle, tmp_path):
    # the point set, P, or a stored map moved to 3 variables; everything
    # else stays in 2
    obj = json.loads(two_point_bundle.read_text())
    if tamper == "pointset":
        points = [p + ["0"] for p in obj["pointset"]["points"]]
        obj["pointset"] = {"dimension": 3, "points": points}
    elif tamper == "p":
        obj["p"] = MultiPoly.from_obj(obj["p"]).embed(3, (0, 1)).to_obj()
    else:
        owner = obj if tamper == "grad_field" else obj["coord_change"]
        m = PolyMap.from_obj(owner[tamper])
        owner[tamper] = PolyMap([c.embed(3, (0, 1)) for c in m.components], 3).to_obj()
    extra = {
        "verify": [],
        "flow": ["--start", "0,0,0" if tamper == "pointset" else "0.4,0.2"],
        "export-grid": ["--resolution", "8"],
    }[command]
    src = tmp_path / "mixed.json"
    src.write_text(json.dumps(obj))
    out = tmp_path / "out"
    assert cli.main([command, "-i", str(src), "-o", str(out), *extra]) == 2
    assert not out.exists()


def test_negated_stored_field_is_only_a_claim(two_point_bundle, tmp_path):
    # flow and export-grid integrate -grad P derived from p, so an ascent
    # field stored in the bundle changes neither output; only verify, which
    # compares the stored field with the derived one, fails the bundle.
    # Every command runs twice on its input in this one process, through the
    # one parser that main reuses, and repeats its exit code and bytes
    def run_twice(command, src, extra):
        runs = []
        for _ in range(2):
            out = tmp_path / f"{command}.{src.stem}.out"
            out.unlink(missing_ok=True)
            code = cli.main([command, "-i", str(src), "-o", str(out), *extra])
            runs.append((code, out.read_bytes()))
        assert runs[0] == runs[1]
        return runs[0]

    pts = tmp_path / "pts.json"
    assert run_twice("synthesize", pts, []) == (0, two_point_bundle.read_bytes())
    assert run_twice("saddle-field", pts, [])[0] == 0
    obj = json.loads(two_point_bundle.read_text())
    ascent = PolyMap.from_obj(obj["grad_field"])
    obj["grad_field"] = PolyMap([-c for c in ascent.components], 2).to_obj()
    negated = tmp_path / "negated.json"
    negated.write_text(json.dumps(obj))
    for command, extra in BUNDLE_COMMANDS[1:]:
        outputs = [run_twice(command, bundle, extra) for bundle in (two_point_bundle, negated)]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0
    code, report = run_twice("verify", negated, ["--seeds-per-axis", "30"])
    assert code == 1
    obj = json.loads(report)
    assert obj["grad_field_consistent"] is False
    assert obj["overall_pass"] is False


class TestSeedPlumbing:
    def test_parser_built_once(self, tmp_path, monkeypatch):
        build_parser, builds = cli.build_parser, []

        def counted():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        pts = write_pointset(tmp_path / "pts.json", 2, [["-1", "0"], ["1", "0"]])
        for command in ("synthesize", "saddle-field", "synthesize"):
            assert cli.main([command, "-i", pts, "-o", str(tmp_path / "out.json")]) == 0
        assert len(builds) == 1

    def test_env_seed_lands_in_report(self, two_point_bundle, tmp_path, monkeypatch):
        # the default is read at each call, not when the parser was built
        report = tmp_path / "report.json"
        for env, seed in (("42", 42), ("7", 7), (None, 0)):
            if env is None:
                monkeypatch.delenv("MORSEFORGE_SEED")
            else:
                monkeypatch.setenv("MORSEFORGE_SEED", env)
            code = cli.main(["verify", "-i", str(two_point_bundle),
                             "-o", str(report), "--seeds-per-axis", "30"])
            assert code == 0
            assert json.loads(report.read_text())["seed"] == seed

    def test_malformed_env_seed_rejected(self, two_point_bundle, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.setenv("MORSEFORGE_SEED", "abc")
        report = tmp_path / "report.json"
        argv = ["verify", "-i", str(two_point_bundle), "-o", str(report),
                "--seeds-per-axis", "30"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            "morseforge verify: error: argument --seed: invalid int value: 'abc'"
        assert not report.exists()
        monkeypatch.setenv("MORSEFORGE_SEED", "5")
        assert cli.main(argv) == 0
        assert json.loads(report.read_text())["seed"] == 5

    def test_box_override_not_carried_over(self, two_point_bundle, tmp_path):
        report = tmp_path / "report.json"
        boxes = []
        for flags in ([], ["--box=-1,1", "--box=-2,2"], []):
            assert cli.main(["verify", "-i", str(two_point_bundle), "-o", str(report),
                             "--seeds-per-axis", "30", *flags]) == 0
            boxes.append(json.loads(report.read_text())["box"])
        assert boxes[1] == {"lower": [-1, -2], "upper": [1, 2], "derivation": "cli override"}
        assert boxes[2] == boxes[0] != boxes[1]
