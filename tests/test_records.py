"""Canonical serialization and atomic output files."""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pytest

from tmlab import records
from tmlab.errors import UsageError
from tmlab.surface import DomainSpec, build_domain, refine


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


@pytest.mark.parametrize("value", [
    np.array(2.5), np.array(-0.0), np.array(1e16), np.array(np.float32(0.1)),
    np.array(np.float32(3.0)), np.array(-7, dtype=np.int64),
    np.array(2**63 - 1, dtype=np.int64), np.array(True), np.array(False),
], ids=lambda v: f"{v.dtype}:{v.item()!r}")
def test_zero_dim_array_writes_as_its_scalar(value):
    scalar = value.item()
    for wrap in (lambda x: x, lambda x: {"a": x, "b": [1, x]}, lambda x: [x, x]):
        want = records.canonical_json(wrap(scalar))
        assert records.canonical_json(wrap(value)) == want
    assert records.canonical_json(value) == records.canonical_json(value[()])


@pytest.mark.parametrize("bad", [
    np.array(np.nan), np.array(np.inf), np.array(1 + 2j), np.array({1}, dtype=object),
    {"x": np.array(np.float32(-np.inf))}, [np.array(1j)], object(),
], ids=["nan", "inf", "complex", "object-array", "float32-inf-in-dict",
        "complex-in-list", "plain-object"])
def test_unserializable_raises_usage_error(bad):
    with pytest.raises(UsageError):
        records.canonical_json(bad)


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


# ---------------------------------------------------------------------------
# One-pass numeric arrays against the per-value recursion
# ---------------------------------------------------------------------------


def _recursive_fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise UsageError("non-finite value cannot be serialized")
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def _recursive_json(obj, indent: int = 0) -> str:
    """The serializer before numeric arrays took a one-pass path."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad_in}{json.dumps(str(k))}: {_recursive_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        scalar = all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
        if scalar:
            return "[" + ", ".join(_recursive_json(v) for v in seq) + "]"
        items = [f"{pad_in}{_recursive_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _recursive_fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise UsageError(f"cannot serialize object of type {type(obj).__name__}")


def _random_float(rng: np.random.Generator) -> float:
    kind = rng.integers(6)
    if kind == 0:
        return float(rng.integers(-5, 6))  # integral, incl. 0.0
    if kind == 1:
        return float(rng.choice([-0.0, 1e16, -1e16, 1e16 - 2, 2.0**53, 1e300]))
    if kind == 2:
        return float(rng.choice([5e-324, -2.5e-310, 2.2250738585072014e-308]))
    if kind == 3:
        return float(rng.standard_normal() * 10.0 ** rng.integers(-20, 21))
    return float(rng.uniform(-1, 1))


def _random_scalar(rng: np.random.Generator):
    kind = rng.integers(7)
    if kind == 0:
        return int(rng.integers(-10**6, 10**6))
    if kind == 1:
        return bool(rng.integers(2))
    if kind == 2:
        return None
    if kind == 3:
        return "s" + str(rng.integers(100))
    if kind == 4:
        return np.float64(_random_float(rng))
    return _random_float(rng)


def _random_array(rng: np.random.Generator):
    """A flat list or matrix that is numeric most of the time."""
    rows, cols = int(rng.integers(0, 5)), int(rng.integers(0, 5))
    make = (lambda: _random_float(rng)) if rng.integers(2) else (
        lambda: int(rng.integers(-10**12, 10**12)))
    if rng.integers(2):
        out = [make() for _ in range(cols)]
    else:
        out = [[make() for _ in range(cols)] for _ in range(rows)]
        if out and rng.integers(4) == 0:
            out[int(rng.integers(len(out)))].append(make())  # ragged
    if out and rng.integers(5) == 0:
        out[int(rng.integers(len(out)))] = _random_scalar(rng)  # mixed
    return out


_SHAPES = [(0,), (0, 2), (3, 0), (1,), (7,), (1, 3), (4, 2), (5, 1), (2, 2, 2)]


def _random_ndarray(rng: np.random.Generator) -> np.ndarray:
    """An array of one of the dtypes and shapes the one-pass path sees."""
    shape = _SHAPES[int(rng.integers(len(_SHAPES)))]
    n = math.prod(shape)
    kind = rng.integers(5)
    if kind == 0:
        out = np.array([_random_float(rng) for _ in range(n)], dtype=np.float64)
    elif kind == 1:
        out = (rng.standard_normal(n) * 10.0 ** rng.integers(-42, 30, n))
        out[: n // 3] = np.round(out[: n // 3])
        out = out.astype(np.float32)
    elif kind == 2:
        out = rng.integers(-2**63, 2**63 - 1, n, dtype=np.int64, endpoint=True)
    elif kind == 3:
        out = rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True)
        out[: n // 2] |= np.uint64(2**63)
    else:
        out = rng.integers(0, 2, n).astype(bool)
    return out.reshape(shape)


def _random_doc(rng: np.random.Generator, depth: int = 0):
    kind = rng.integers(5) if depth < 3 else 4
    if kind == 0:
        return {f"k{i}": _random_doc(rng, depth + 1)
                for i in range(int(rng.integers(0, 4)))}
    if kind == 1:
        return [_random_doc(rng, depth + 1) for _ in range(int(rng.integers(0, 4)))]
    if kind == 2:
        return _random_array(rng)
    if kind == 3:
        return _random_ndarray(rng)
    return _random_scalar(rng)


@pytest.mark.parametrize("seed", range(40))
def test_numeric_arrays_match_recursive_serializer(seed):
    rng = np.random.default_rng(seed)
    doc = {"doc": [_random_doc(rng) for _ in range(6)]}
    assert records.canonical_json(doc) == _recursive_json(doc)


@pytest.mark.parametrize("seed", range(40))
def test_ndarrays_match_recursive_serializer(seed):
    rng = np.random.default_rng(seed)
    for _ in range(6):
        a = _random_ndarray(rng)
        assert records.canonical_json(a) == _recursive_json(a)
        assert records.canonical_json({"a": a}) == _recursive_json({"a": a})


EDGE_CASES = {
    "negative_zero": [-0.0, 0.0, -0.0],
    "around_1e16": [1e16 - 2, 1e16, -1e16, 1e16 + 2, 9999999999999998.0],
    "huge": [1e300, -1e300, 1.7976931348623157e308],
    "subnormal": [5e-324, -5e-324, 2.2250738585072009e-308],
    "big_ints": [2**63, -(2**63) - 1, 10**40, 0],
    "int_then_float": [1, 2.0],
    "bool_then_int": [True, 1],
    "bools": [True, False],
    "np_float64": [np.float64(0.5), np.float64(2.0)],
    "np_mixed": [0.5, np.float64(2.0)],
    "tuple_rows": [(1.0, 2.5), (3.0, 4.5)],
    "tuple_of_floats": (1.0, 0.25),
    "ragged_rows": [[1.0, 2.0], [3.0]],
    "empty_rows": [[], []],
    "empty_and_full_rows": [[], [1.0]],
    "one_row_matrix": [[0.5, 1.0, -0.0]],
    "int_matrix": [[0, 1, 2], [3, 4, 2**70]],
    "mixed_type_rows": [[1, 2], [1.5, 2.5]],
    "three_levels": [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.5]]],
    "matrix_in_dict": {"a": {"b": [[0.1, 0.2], [0.3, 0.4]]}},
    "array_2d": np.array([[1.0, 0.5], [-0.0, 3e-310]]),
    "array_int": np.arange(5, dtype=np.int64),
    "array_bool": np.array([True, False]),
    "array_bool_matrix": np.array([[True, False], [False, True]]),
    "array_negative_zero": np.array([-0.0, 0.0, -0.0]),
    "array_around_1e16": np.array([[1e16 - 2, 1e16], [-1e16, 1e16 + 2]]),
    "array_subnormal": np.array([5e-324, -5e-324, 2.2250738585072009e-308]),
    "array_float32": np.array([0.1, -0.0, 3.0, 1e-40, 3e38], dtype=np.float32),
    "array_float32_matrix": np.array([[0.5, 2.0], [1e7, -1.5e-3]],
                                     dtype=np.float32),
    "array_int64_extremes": np.array([[-(2**63), 2**63 - 1]], dtype=np.int64),
    "array_uint64_big": np.array([2**63, 2**64 - 1, 0], dtype=np.uint64),
    "array_empty": np.zeros(0),
    "array_0x2": np.zeros((0, 2)),
    "array_3x0": np.zeros((3, 0)),
    "array_3d": np.arange(8.0).reshape(2, 2, 2),
    "array_one_column": np.array([[1.5], [2.0]]),
    "array_transposed": np.arange(6.0).reshape(2, 3).T,
}


def _template_cases() -> dict:
    """Arrays that exercise each branch of the one-template path."""
    rng = np.random.default_rng(7)
    long = rng.standard_normal(100_001)
    long[::7] = np.round(long[::7] * 1e3)  # integral cells among the rest
    row_kinds = rng.standard_normal((6, 3))
    row_kinds[0] = [0.0, -3.0, 1e15]  # every cell integral
    row_kinds[2] = [2.0, 0.5, -0.0]  # integral and fractional
    row_kinds[4] = [1e16, 4.25, 7.0]  # 1e16 is integral but takes .17g
    return {
        "1d_100001": long,
        "width_1": rng.standard_normal((5, 1)),
        "width_1_integral": np.array([[3.0], [-0.0], [1e15]]),
        "width_4": long[:40].reshape(10, 4),
        "int_width_4": rng.integers(-10**9, 10**9, (5, 4)),
        "float_row_kinds": row_kinds,
        "int64_extremes_2d": np.array(
            [[-(2**63), 2**63 - 1], [0, -1], [2**62, -(2**62)]],
            dtype=np.int64),
        "uint64_big_2d": np.array(
            [[2**63, 2**64 - 1, 0], [1, 2**63 + 1, 2**63 - 1]],
            dtype=np.uint64),
    }


TEMPLATE_CASES = _template_cases()


def _assert_same_text(got: str, want: str) -> None:
    """``got == want``, reporting the first difference: pytest's own diff
    of two long one-line strings does not finish in useful time."""
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        pytest.fail(f"texts differ at {i}: {got[i - 30:i + 30]!r} "
                    f"!= {want[i - 30:i + 30]!r}")


@pytest.mark.parametrize("name", sorted(TEMPLATE_CASES))
def test_template_cases_match_recursive(name):
    a = TEMPLATE_CASES[name]
    _assert_same_text(records.canonical_json(a), _recursive_json(a))
    _assert_same_text(records.canonical_json({"x": {"y": a}}),
                      _recursive_json({"x": {"y": a}}))


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_numeric_array_edge_cases_match_recursive(name):
    obj = EDGE_CASES[name]
    assert records.canonical_json(obj) == _recursive_json(obj)
    assert records.canonical_json({"x": obj}) == _recursive_json({"x": obj})


def test_fine_mesh_document_matches_recursive():
    """A whole mesh file: the twice-refined h = 0.05 half-disk with
    f = 0.05·x1·x2, 13 041 vertices and 25 600 triangles."""
    spec = DomainSpec("half_disk", (1.0,), "0.05*x1*x2")
    surf = refine(refine(build_domain(spec, 0.05)))
    assert surf.num_vertices == 13041
    doc = {"run_record": records.RunRecord("mesh", {"times": 2}).to_dict()}
    doc.update(surf.to_dict())
    _assert_same_text(records.canonical_json(doc), _recursive_json(doc))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_in_numeric_arrays_rejected(bad):
    with pytest.raises(UsageError, match="non-finite"):
        records.canonical_json([0.5, bad, 1.0])
    with pytest.raises(UsageError, match="non-finite"):
        records.canonical_json({"m": [[0.5, 1.0], [2.0, bad]]})
    for dtype in (np.float64, np.float32):
        with pytest.raises(UsageError, match="non-finite"):
            records.canonical_json(np.array([0.5, bad, 1.0], dtype=dtype))
        with pytest.raises(UsageError, match="non-finite"):
            records.canonical_json({"m": np.array([[0.5, 1.0], [2.0, bad]],
                                                  dtype=dtype)})
