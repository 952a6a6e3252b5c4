"""Self-test of the benchmark tracer.

Run from the root of a checkout:  python3 -m pytest bench/test_tracer.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import scipy.sparse.linalg as spla  # noqa: E402

from tmlab import cli, records, spectrum, surface, witness  # noqa: E402
from tmlab.surface import DomainSpec, build_domain  # noqa: E402

import tracer as T  # noqa: E402


def test_self_time_of_nested_spans():
    # op [0, 10] > a [1, 4] > b [2, 3];  op > c [5, 9]
    spans = [
        ["op", 0.0, 10.0, -1],
        ["witness.ladder_states", 1.0, 4.0, 0],
        ["surface.refine_local", 2.0, 3.0, 1],
        ["lu.splu", 5.0, 9.0, 0],
    ]
    assert T.self_times(spans) == [3.0, 2.0, 1.0, 4.0]

    tr = T.Tracer()
    tr.spans = spans
    m = T.op_metrics(tr)
    assert m["untraced.self_s"] == 3.0
    assert m["witness.ladder_states.self_s"] == 2.0
    assert m["surface.self_s"] == 1.0
    assert m["lu.splu.calls"] == 1 and m["lu.self_s"] == 4.0
    # refine_local under ladder_states is not an adaptation round
    assert m["surface.adapt.rounds"] == 0


def test_spans_close_in_order():
    ticks = iter(range(100))
    tr = T.Tracer(clock=lambda: float(next(ticks)))
    outer = tr.open("op")
    inner = tr.open("moser.gradient")
    with pytest.raises(RuntimeError):
        tr.close(outer)
    assert tr.spans[inner][3] == outer


def trace(fn) -> T.Tracer:
    """Run ``fn`` as one traced op; return the tracer."""
    tr = T.Tracer()
    installed = T.install(tr)
    try:
        root = tr.open(T.ROOT)
        fn()
        tr.close(root)
    finally:
        installed.remove()
    return tr


def test_recursive_canonical_json_is_one_span():
    doc = {"a": [1.5, [2, 3]], "b": {"c": [[0.25, 4.0], [1e-300, -2]]}}
    expected = records.canonical_json(doc)
    original = records.canonical_json
    out = []
    tr = trace(lambda: out.append(records.canonical_json(doc)))
    assert out == [expected]
    assert records.canonical_json is original
    assert [sp[0] for sp in tr.spans] == ["op", "records.canonical_json"]
    assert T.op_metrics(tr)["records.canonical_json.calls"] == 1


def test_adapt_span_under_ladder_states():
    s = build_domain(DomainSpec("rectangle", (2.0, 1.0)), 0.25)
    vertex = witness.smooth_boundary_vertex(s, (0.0, 0.5))
    tr = trace(lambda: witness.ladder_states(s, vertex, (1e-2,), adapt=True))
    adapt = [sp for sp in tr.spans if sp[0] == "surface.adapt_for_point"]
    assert len(adapt) == 1
    assert tr.spans[adapt[0][3]][0] == "witness.ladder_states"
    m = T.op_metrics(tr)
    assert m["surface.adapt.rounds"] >= 1
    assert m["surface.adapt.rounds"] == m["surface.refine_local.calls"]
    assert m["surface.adapt.distinct_ratio"] == 1.0
    assert m["surface.adapt.triangles_out"] > s.num_triangles


def test_splu_and_cli_commands_are_wrapped(tmp_path, monkeypatch):
    s = build_domain(DomainSpec("rectangle", (1.0, 1.0)), 0.25)
    monkeypatch.chdir(tmp_path)
    argv = ["mesh", "--shape", "rectangle", "--width", "1", "--height", "1",
            "--h", "0.25", "--out", "m.json"]
    codes = []
    tr = trace(lambda: (spectrum.first_eigenpair(s),
                        codes.append(cli.main(argv))))
    assert codes == [0]
    edges = {(sp[0], tr.spans[sp[3]][0]) for sp in tr.spans[1:]}
    assert ("lu.splu", "spectrum.first_eigenpair") in edges
    assert ("lu.splu", "assembly.km_solver") in edges
    assert ("cli.cmd_mesh", "op") in edges
    assert ("records.write_json", "cli.cmd_mesh") in edges
    m = T.op_metrics(tr)
    assert m["records.bytes_written"] == (tmp_path / "m.json").stat().st_size
    assert m["lu.factor_nnz"] > 0
    assert m["spectrum.sweeps"] >= 1


def test_remove_restores_every_site():
    def sites():
        return (surface.adapt_for_point, witness.adapt_for_point, spla.splu,
                cli.cmd_mesh, surface.Surface.__dict__["from_dict"])

    before = sites()
    installed = T.install(T.Tracer())
    assert witness.adapt_for_point is surface.adapt_for_point is not before[0]
    installed.remove()
    assert all(a is b for a, b in zip(before, sites()))
