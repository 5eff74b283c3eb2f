"""Byte-for-byte pins of the exact outputs.

`synthesize` and `saddle-field` use rational arithmetic only, so their output
files must not change under a refactoring: a pinned sha256 that changes
means the output contract changed.  Both point sets have distinct first
coordinates, so the separating direction is e1 and no linear shear enters.
Float outputs (`verify`, `flow`, `export-grid`) depend on the BLAS build
and are not pinned.
"""

import hashlib
import json

import pytest

from morseforge import cli

TWO_POINT = [["-1/2", "0"], ["1/2", "1/4"]]
AXIS_N3_K3 = [["-1", "0", "1/2"], ["0", "1/3", "0"], ["1", "-1/2", "1/4"]]


@pytest.mark.parametrize("command, points, digest", [
    ("synthesize", TWO_POINT,
     "1aea16db874ab059391ae80de9cb5fff97b371cb5ec78575503106031a9c644f"),
    ("synthesize", AXIS_N3_K3,
     "f429e4ef5cdcdc3f6247299948a2e5b9ea4a043857c144c73c9472e7cf86233e"),
    ("saddle-field", TWO_POINT,
     "ce6be08d919ca612f1d2d45c6171daeeae76d801256b4695eea584a38c899e89"),
])
def test_exact_output_bytes(command, points, digest, tmp_path):
    src = tmp_path / "points.json"
    src.write_text(json.dumps({"dimension": len(points[0]), "points": points}))
    out = tmp_path / "out.json"
    assert cli.main([command, "-i", str(src), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
