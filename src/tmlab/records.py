"""Deterministic, reproducible output files.

Every file the command-line tool emits carries a run record (command,
parameters, input content hashes, tool version) and is written through a
canonical JSON serializer: fixed key order (insertion order of the
constructing code), floats rendered with ``%.17g`` (round-trip exact),
and atomic replace-on-write so readers never observe partial files.
Wall-clock timing is omitted unless explicitly requested, keeping default
outputs byte-identical across runs.

The serializer formats numeric arrays in one pass: a flat list whose
elements are all exactly ``float`` or all exactly ``int``, and a matrix of
equal-length ``list`` rows of one such type (vertices, triangles, field
values), are checked for finiteness once and joined without recursing per
value.  Every other shape takes the recursive path, and both paths apply
the same scalar rule, so the bytes do not depend on which one ran.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import __version__
from .errors import UsageError


@dataclass
class RunRecord:
    """Provenance stamp embedded in every emitted file."""

    command: str
    params: dict
    input_hashes: dict = field(default_factory=dict)
    tool_version: str = __version__
    elapsed_seconds: float | None = None

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "input_hashes": self.input_hashes,
            "tool_version": self.tool_version,
            "elapsed_seconds": self.elapsed_seconds,
        }


def hash_file(path: str) -> str:
    """sha256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


_NON_FINITE = "non-finite value cannot be serialized"


def require_finite(values) -> np.ndarray:
    """``values`` as a float array; UsageError if any of them is NaN or inf."""
    a = np.asarray(values, dtype=float)
    if not np.isfinite(a).all():
        raise UsageError(_NON_FINITE)
    return a


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise UsageError(_NON_FINITE)
    if x == int(x) and abs(x) < 1e16:
        # Keep integral floats readable but unambiguous.
        return f"{x:.1f}"
    return format(x, ".17g")


def _fmt_floats(values: list) -> list:
    """``_fmt_float`` of every element of a list of floats, vectorized.

    For a finite float, ``x == int(x)`` holds exactly when
    ``x == trunc(x)``, so the integral mask selects the same elements as
    the scalar rule, and both format each element with the same spec.
    """
    a = require_finite(values)
    cells = list(map("{:.17g}".format, values))
    integral = (a == np.trunc(a)) & (np.abs(a) < 1e16)
    for i in np.flatnonzero(integral).tolist():
        cells[i] = "{:.1f}".format(values[i])
    return cells


def _fmt_scalars(values: list, types: set) -> list | None:
    """Cells of a list whose element types are ``types``, or None unless
    they are all exactly ``int`` or all exactly ``float``."""
    if types == {int}:
        return list(map(str, values))
    if types == {float}:
        return _fmt_floats(values)
    return None


def _numeric_array(seq: list, pad: str, pad_in: str) -> str | None:
    """The bytes the recursive path gives for a flat numeric list or a
    matrix of equal-length numeric ``list`` rows; None for any other shape."""
    types = set(map(type, seq))
    if types != {list}:
        cells = _fmt_scalars(seq, types)
        return None if cells is None else "[" + ", ".join(cells) + "]"
    widths = set(map(len, seq))
    if len(widths) != 1 or 0 in widths:
        return None
    flat = list(chain.from_iterable(seq))
    cells = _fmt_scalars(flat, set(map(type, flat)))
    if cells is None:
        return None
    (k,) = widths
    rows = [
        f"{pad_in}[" + ", ".join(cells[i:i + k]) + "]"
        for i in range(0, len(cells), k)
    ]
    return "[\n" + ",\n".join(rows) + "\n" + pad + "]"


def canonical_json(obj, indent: int = 0) -> str:
    """Serialize with deterministic layout and round-trip-exact floats.

    Lists, tuples and arrays of exactly-``float`` or exactly-``int``
    elements, and lists of equal-length, non-empty ``list`` rows of one
    such type, are formatted in one pass by ``_numeric_array``.  Bools,
    numpy scalars, mixed ``int``/``float``, tuple rows, ragged or empty
    rows and dicts recurse per value.  Both paths give the same bytes.
    """
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad_in}{json.dumps(str(k))}: {canonical_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        fast = _numeric_array(seq, pad, pad_in)
        if fast is not None:
            return fast
        scalar = all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq)
        if scalar:
            return "[" + ", ".join(canonical_json(v) for v in seq) + "]"
        items = [f"{pad_in}{canonical_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise UsageError(f"cannot serialize object of type {type(obj).__name__}")


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then atomically replace.

    ``mkstemp`` creates the temp file with mode 0600; it is widened to the
    mode a plain ``open`` would give, 0666 less the process umask.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, payload: dict, record: RunRecord) -> None:
    """Emit a canonical JSON document with the run record first."""
    doc = {"run_record": record.to_dict()}
    doc.update(payload)
    write_text_atomic(path, canonical_json(doc) + "\n")


def _comment_header(record: RunRecord) -> str:
    """The run record as one compact JSON comment line, for text outputs."""
    return "# run_record: " + json.dumps(record.to_dict(), separators=(",", ":"))


def write_csv(path: str, header: list, rows: list, record: RunRecord) -> None:
    """Emit CSV whose first line carries the run record as a comment."""
    lines = [_comment_header(record), ",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(_fmt_float(float(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_profile(path: str, xs, ys, record: RunRecord) -> None:
    """Two-column whitespace-separated plot data with a comment header."""
    rows = zip(require_finite(xs).tolist(), require_finite(ys).tolist())
    lines = [_comment_header(record)] + [f"{x:.17g} {y:.17g}" for x, y in rows]
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
