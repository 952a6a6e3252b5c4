"""Canonical serialization and atomic output files."""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from tmlab import records
from tmlab.errors import UsageError


def test_floats_round_trip_exactly():
    values = [0.1, 1.0 / 3.0, 1e-300, 1e300, -0.0, 2.0, math.pi]
    text = records.canonical_json(values)
    back = json.loads(text)
    for a, b in zip(values, back):
        assert a == b


def test_nested_layout_deterministic():
    doc = {"b": [1, 2.5, {"x": True}], "a": None, "s": "hi"}
    t1 = records.canonical_json(doc)
    t2 = records.canonical_json(doc)
    assert t1 == t2
    assert json.loads(t1) == {"b": [1, 2.5, {"x": True}], "a": None, "s": "hi"}


def test_numpy_scalars_and_arrays_serialize():
    doc = {
        "arr": np.array([1.5, 2.5]),
        "i": np.int64(7),
        "f": np.float64(0.25),
        "flag": np.bool_(True),
    }
    back = json.loads(records.canonical_json(doc))
    assert back == {"arr": [1.5, 2.5], "i": 7, "f": 0.25, "flag": True}


def test_non_finite_rejected():
    with pytest.raises(UsageError):
        records.canonical_json({"x": float("nan")})
    with pytest.raises(UsageError):
        records.canonical_json([float("inf")])


def test_write_json_embeds_run_record(tmp_path):
    path = tmp_path / "out.json"
    rec = records.RunRecord("demo", {"p": 1})
    records.write_json(str(path), {"value": 2.5}, rec)
    doc = json.loads(path.read_text())
    assert doc["run_record"]["command"] == "demo"
    assert doc["run_record"]["elapsed_seconds"] is None
    assert doc["value"] == 2.5


def test_write_json_byte_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    rec = records.RunRecord("demo", {"p": [1.5, "x"]}, {"m": "00ff"})
    payload = {"xs": np.linspace(0, 1, 7), "n": 4}
    records.write_json(str(p1), payload, rec)
    records.write_json(str(p2), payload, rec)
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_write_leaves_no_file(tmp_path):
    path = tmp_path / "bad.json"
    rec = records.RunRecord("demo", {})
    with pytest.raises(UsageError):
        records.write_json(str(path), {"x": float("nan")}, rec)
    assert not path.exists()
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    assert leftovers == []


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    rec = records.RunRecord("sweep", {"n": 2})
    records.write_csv(
        str(path), ["a", "b"], [[1.5, "x"], [0.25, "y"]], rec
    )
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# run_record: ")
    assert lines[1] == "a,b"
    assert lines[2] == "1.5,x"
    assert lines[3] == "0.25,y"


def test_hash_file_stable(tmp_path):
    p = tmp_path / "x.bin"
    p.write_bytes(b"abc")
    assert records.hash_file(str(p)) == records.hash_file(str(p))
    q = tmp_path / "y.bin"
    q.write_bytes(b"abd")
    assert records.hash_file(str(p)) != records.hash_file(str(q))


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_written_files_respect_umask(tmp_path, umask):
    path = tmp_path / "out.json"
    old = os.umask(umask)
    try:
        records.write_json(str(path), {"x": 1.5}, records.RunRecord("t", {}))
    finally:
        os.umask(old)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask
    assert json.loads(path.read_text())["x"] == 1.5
