"""The indented JSON writer must produce the standard library's bytes."""

import enum
import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseforge import cli
from morseforge.serialize import IndentEncoder, _indented

class Color(enum.IntEnum):
    RED = 1


class Tagged(list):
    pass


PLANE_PAIR = [["-1/2", "0"], ["1/2", "1/4"]]
SHEARED_N3 = [["0", "0", "1/2"], ["0", "1", "0"], ["0", "-1/3", "1"]]

SCALARS = {
    "empty_list": [],
    "empty_dict": {},
    "nested_empties": [[], {}, [[]], {"a": {}}, [{}]],
    "bools": [True, False],
    "none": None,
    "ints": [0, -1, 2 ** 80, -(10 ** 30)],
    "floats": [0.0, -0.0, 0.1, -2.5, 1e300, 5e-324, 1 / 3],
    "strings": ["", "plain", "é", "日本語", "\U0001f600", "q\"b\\s/",
                "\n\t\r\x00\x1f\x7f", "[1, {\"a\": 2}]"],
    "tuple": (1, "two", (3.0, None)),
    "non_ascii_kéy": {"ключ": "значение"},
    "scalar_subclasses": [np.float64(0.25), np.float64(-1e-300), Color.RED],
}


def stdlib(obj, **kw):
    return json.dumps(obj, indent=2, **kw)


def fast(obj, **kw):
    return json.dumps(obj, indent=2, cls=IndentEncoder, **kw)


def _captured_outputs(tmp_path, monkeypatch):
    """Every JSON document the CLI writes, as the object passed to the
    writer: bundles, saddle fields, a verify report and a flow trace."""
    seen = []
    write = cli._write_json
    monkeypatch.setattr(cli, "_write_json", lambda path, obj: (seen.append(obj), write(path, obj)))
    for tag, points in (("plane", PLANE_PAIR), ("sheared", SHEARED_N3)):
        src = tmp_path / f"{tag}.points.json"
        src.write_text(json.dumps({"dimension": len(points[0]), "points": points}))
        bundle = tmp_path / f"{tag}.bundle.json"
        assert cli.main(["synthesize", "-i", str(src), "-o", str(bundle)]) == 0
        assert cli.main(["saddle-field", "-i", str(src), "-o", str(tmp_path / "s.json")]) == 0
    bundle = tmp_path / "plane.bundle.json"
    assert cli.main(["verify", "-i", str(bundle), "-o", str(tmp_path / "r.json"),
                     "--seeds-per-axis", "4"]) in (0, 1)
    assert cli.main(["flow", "-i", str(bundle), "-o", str(tmp_path / "t.json"),
                     "--start=0.1,0.2", "--dt", "1e-2"]) in (0, 1)
    return seen


def test_cli_outputs_match_stdlib(tmp_path, monkeypatch):
    outputs = _captured_outputs(tmp_path, monkeypatch)
    assert len(outputs) == 6
    assert outputs[0]["schema"] == "morseforge-bundle-v1"
    assert outputs[1]["schema"] == "morseforge-saddle-field-v1"
    assert "spurious_search" in outputs[4] and "classified" in outputs[5]
    for obj in outputs:
        assert fast(obj) == stdlib(obj)
        assert _indented(obj, "  ", ",", ": ", encode_basestring_ascii) == stdlib(obj)


def test_written_file_is_stdlib_text(tmp_path):
    path = tmp_path / "out.json"
    cli._write_json(str(path), SCALARS)
    assert path.read_text() == stdlib(SCALARS) + "\n"


@pytest.mark.parametrize("key", sorted(SCALARS))
def test_scalars_and_empties_take_the_fast_path(key):
    obj = {key: SCALARS[key]}
    assert _indented(obj, "  ", ",", ": ", encode_basestring_ascii) == stdlib(obj)
    assert fast(obj) == stdlib(obj)
    assert fast(SCALARS[key]) == stdlib(SCALARS[key])


@pytest.mark.parametrize("kw", [
    {"indent": 0}, {"indent": 4}, {"indent": "\t"}, {"indent": 2, "ensure_ascii": False},
    {"indent": 2, "separators": (", ", " = ")}, {"indent": None},
])
def test_other_settings(kw):
    assert json.dumps(SCALARS, cls=IndentEncoder, **kw) == json.dumps(SCALARS, **kw)


@pytest.mark.parametrize("obj", [
    [math.nan, math.inf, -math.inf],
    {3: "int key", 2.5: "float key", False: "bool key"},
    [Tagged([1]), {"a": Tagged([2])}],
    {"sorted": 1, "keys": 2},
], ids=["non-finite", "non-str-keys", "container-subclasses", "sort-keys"])
def test_fallbacks_match_stdlib(obj):
    assert fast(obj) == stdlib(obj)
    assert fast(obj, sort_keys=True) == stdlib(obj, sort_keys=True)


def test_errors_and_default_match_stdlib():
    assert fast({None: 1, True: 2, "s": 3}) == stdlib({None: 1, True: 2, "s": 3})
    with pytest.raises(ValueError, match="allowed|compliant"):
        fast([math.nan], allow_nan=False)
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular"):
        fast(loop)
    with pytest.raises(TypeError):
        fast({"x": object()})
    assert fast({"x": {1, 2}}, default=sorted) == stdlib({"x": {1, 2}}, default=sorted)
    deep = []
    for _ in range(5000):
        deep = [deep]
    with pytest.raises(RecursionError):
        stdlib(deep)
    with pytest.raises(RecursionError):
        fast(deep)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=30,
)


@given(json_values)
@settings(max_examples=200, deadline=None)
def test_random_documents_match_stdlib(obj):
    assert _indented(obj, "  ", ",", ": ", encode_basestring_ascii) == stdlib(obj)
