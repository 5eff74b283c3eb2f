"""Byte-for-byte pins of the exact outputs.

`synthesize` and `saddle-field` use rational arithmetic only, so their output
files must not change under a refactoring: a pinned sha256 that changes
means the output contract changed.  TWO_POINT, AXIS_N3_K3 and AXIS_N2_K8
have distinct first coordinates, so the separating direction is e1 and no
linear change enters; AXIS_N2_K8's interpolant has degree 7.  The points of
SHEARED_N3_K4 share x1 and x2 is repeated, so the direction is (0, 1, 1),
and its interpolants are one constant and one cubic.
Float outputs (`verify`, `flow`, `export-grid`) depend on the BLAS build
and are not pinned.
"""

import hashlib
import json

import pytest

from morseforge import cli

TWO_POINT = [["-1/2", "0"], ["1/2", "1/4"]]
AXIS_N3_K3 = [["-1", "0", "1/2"], ["0", "1/3", "0"], ["1", "-1/2", "1/4"]]
SHEARED_N3_K4 = [["1/3", "0", "0"], ["1/3", "1/2", "0"], ["1/3", "0", "-1"], ["1/3", "1/2", "-1"]]
AXIS_N2_K8 = [["-2", "1"], ["-3/2", "0"], ["-1", "-1/2"], ["-1/3", "2"],
              ["0", "0"], ["1/2", "-3/4"], ["1", "5/3"], ["2", "-1"]]


@pytest.mark.parametrize("command, points, digest", [
    ("synthesize", TWO_POINT,
     "1aea16db874ab059391ae80de9cb5fff97b371cb5ec78575503106031a9c644f"),
    ("synthesize", AXIS_N3_K3,
     "f429e4ef5cdcdc3f6247299948a2e5b9ea4a043857c144c73c9472e7cf86233e"),
    ("saddle-field", TWO_POINT,
     "ce6be08d919ca612f1d2d45c6171daeeae76d801256b4695eea584a38c899e89"),
    ("synthesize", SHEARED_N3_K4,
     "2c2d6adf21dfa4e2d1a63f11e9e57fef993f2868220d45e6ee0287e40441f5cd"),
    ("synthesize", AXIS_N2_K8,
     "e5346ce96537d11af03a9882a37525ab3c0a73f70daba5ba3bb5676db01549e4"),
    ("saddle-field", SHEARED_N3_K4,
     "cab851b7ec5705eea2db40560cbadf02eb25595af14d6beebb3ed12436f695f9"),
    ("saddle-field", AXIS_N2_K8,
     "69b598eb9de4d4dd3b94aa2ffbf6ca60a11120cc9752a5b718b914e8c01fc47c"),
])
def test_exact_output_bytes(command, points, digest, tmp_path):
    src = tmp_path / "points.json"
    src.write_text(json.dumps({"dimension": len(points[0]), "points": points}))
    out = tmp_path / "out.json"
    assert cli.main([command, "-i", str(src), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
