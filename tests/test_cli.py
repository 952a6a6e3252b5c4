"""Command-line driver: file outputs, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from tmlab import cli, records
from tmlab.errors import UsageError
from tmlab.surface import DomainSpec, Surface, build_domain


def run(*argv) -> int:
    return cli.main(list(argv))


@pytest.fixture()
def square_mesh(tmp_path):
    path = tmp_path / "sq.json"
    assert run("mesh", "--shape", "rectangle", "--width", "1", "--height", "1",
               "--h", "0.2", "--out", str(path)) == 0
    return path


@pytest.fixture()
def half_disk_mesh(tmp_path):
    path = tmp_path / "hd.json"
    assert run("mesh", "--shape", "half-disk", "--radius", "1",
               "--h", "0.2", "--out", str(path)) == 0
    return path


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------


def test_mesh_file_round_trips(square_mesh):
    doc = records.read_json(str(square_mesh))
    surf = Surface.from_dict(doc)
    surf.validate()
    for key, value in surf.to_dict().items():
        if isinstance(value, np.ndarray):
            value = value.tolist()
        assert value == doc[key], key


def test_mesh_refine_quadruples(square_mesh, tmp_path):
    out = tmp_path / "sq2.json"
    assert run("mesh", "--refine", str(square_mesh), "--out", str(out)) == 0
    d1 = records.read_json(str(square_mesh))
    d2 = records.read_json(str(out))
    assert len(d2["triangles"]) == 4 * len(d1["triangles"])


def test_mesh_and_help_import_no_scipy(tmp_path):
    """The solver modules, and with them scipy, load only in the
    subcommands that solve."""
    script = (
        "import contextlib, io, sys\n"
        "from tmlab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['mesh', '--shape', 'half-disk', '--h', '0.2',\n"
        "                     '--out', 'm.json']) == 0\n"
        "    try:\n"
        "        cli.main(['--help'])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
    assert (tmp_path / "m.json").is_file()


def test_mesh_usage_errors(tmp_path):
    out = str(tmp_path / "x.json")
    assert run("mesh", "--out", out) == 2
    assert run("mesh", "--shape", "rectangle", "--h", "0.2", "--out", out) == 2
    assert run("mesh", "--shape", "rectangle", "--width", "1", "--height",
               "1", "--h", "0.2", "--refine", "y.json", "--out", out) == 2
    assert run("mesh", "--shape", "half-disk", "--radius", "nan", "--h", "0.2",
               "--out", out) == 2
    assert run("mesh", "--shape", "rectangle", "--width", "inf", "--height",
               "1", "--h", "0.2", "--out", out) == 2
    assert not os.path.exists(out)


def test_mesh_disk_sector_writes_the_library_mesh(tmp_path):
    out = tmp_path / "sector.json"
    assert run("mesh", "--shape", "disk-sector", "--angle", "2", "--h", "0.1",
               "--out", str(out)) == 0
    surf = build_domain(DomainSpec("disk_sector", (1, 2)), 0.1)
    params = {"shape": "disk-sector", "params": [1.0, 2.0], "h": 0.1, "f": None,
              "times": 0}
    want = tmp_path / "want.json"
    records.write_json(str(want), surf.to_dict(), records.RunRecord("mesh", params))
    assert out.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("argv, option", [
    (("--shape", "disk-sector"), "--angle"),
    (("--shape", "rectangle", "--width", "1"), "--height"),
])
def test_mesh_missing_shape_parameter_exits_2(tmp_path, capfd, argv, option):
    out = tmp_path / "x.json"
    assert run("mesh", *argv, "--h", "0.1", "--out", str(out)) == 2
    err = capfd.readouterr().err
    assert err.startswith("error: ") and option in err
    assert not out.exists()


@pytest.mark.parametrize("expr", [
    "foo(x1)",
    "x1^2",
    "__import__('sys').stdout.write('EVALUATED\\n') and x1",
])
def test_mesh_rejects_bad_conformal_factor(tmp_path, capfd, expr):
    out = tmp_path / "c.json"
    assert run("mesh", "--shape", "rectangle", "--width", "1", "--height",
               "1", "--h", "0.5", "--f", expr, "--out", str(out)) == 2
    captured = capfd.readouterr()
    assert "conformal factor" in captured.err
    assert "EVALUATED" not in captured.out
    assert not out.exists()


def test_mesh_conformal_factor_flag(tmp_path):
    out = tmp_path / "c.json"
    assert run("mesh", "--shape", "rectangle", "--width", "1", "--height",
               "1", "--h", "0.5", "--f", "x1*x2", "--out", str(out)) == 0
    doc = records.read_json(str(out))
    surf = Surface.from_dict(doc)
    want = surf.vertices[:, 0] * surf.vertices[:, 1]
    assert np.allclose(surf.f_nodal, want, atol=1e-12)


# ---------------------------------------------------------------------------
# eigen
# ---------------------------------------------------------------------------


def test_eigen_output_schema(square_mesh, tmp_path):
    out = tmp_path / "eig.json"
    assert run("eigen", "--mesh", str(square_mesh), "--out", str(out)) == 0
    doc = records.read_json(str(out))
    assert doc["run_record"]["command"] == "eigen"
    assert abs(doc["lambda1"] - math.pi**2) <= 0.05 * math.pi**2
    assert doc["residual"] <= 1e-10
    field = records.read_json(doc["u0_file"])
    assert field["mesh_hash"] == doc["run_record"]["input_hashes"]["mesh"]
    assert len(field["values"]) == len(records.read_json(str(square_mesh))["vertices"])


def test_eigen_deterministic_bytes(square_mesh, tmp_path):
    out = tmp_path / "eig.json"
    run("eigen", "--mesh", str(square_mesh), "--out", str(out))
    first = out.read_bytes()
    run("eigen", "--mesh", str(square_mesh), "--out", str(out))
    assert out.read_bytes() == first


def test_eigen_unreachable_tol_exits_4(square_mesh, tmp_path):
    out = tmp_path / "eig.json"
    assert run("eigen", "--mesh", str(square_mesh), "--tol", "1e-18",
               "--out", str(out)) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == [square_mesh.name]


def test_eigen_missing_mesh_is_usage_error(tmp_path):
    assert run("eigen", "--mesh", str(tmp_path / "none.json"),
               "--out", str(tmp_path / "o.json")) == 2


@pytest.mark.parametrize("data, message", [
    (b'\xff\xfe{"format_version": 1}', "is not UTF-8 text"),
    (b"[1, 2]", "a mesh document must be a JSON object, not list"),
    (b"[" * 200000, "nests too deeply to read"),
], ids=["not-utf8", "top-level-list", "nested-past-recursion-limit"])
def test_eigen_rejects_mesh_file_that_is_not_a_utf8_json_object(
        tmp_path, capfd, data, message):
    mesh = tmp_path / "bad.json"
    mesh.write_bytes(data)
    capfd.readouterr()
    assert run("eigen", "--mesh", str(mesh), "--out", str(tmp_path / "e.json"),
               "--field", str(tmp_path / "e.u0.json")) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [mesh.name]
    err = capfd.readouterr().err
    assert err.startswith("error: ") and message in err


def _set_first(rows, value):
    rows[0][0] = value


def _replace_index(rows, old, new):
    """Write ``new`` over the first entry of ``rows`` that reads ``old``."""
    row = next(r for r in rows if old in r)
    row[row.index(old)] = new


@pytest.mark.parametrize("alter", [
    lambda d: _set_first(d["triangles"], 0.4),
    lambda d: _set_first(d["triangles"], 2**70),
    lambda d: d.update(boundary_edges=[[True, False]] * len(d["boundary_edges"])),
    lambda d: _replace_index(d["triangles"], 1, True),
    lambda d: _replace_index(d["boundary_edges"], 0, False),
    lambda d: _set_first(d["vertices"], 2**1100),
    lambda d: _set_first([d["f_nodal"]], 2**1100),
    lambda d: d.update(triangles=[r + r[:1] for r in d["triangles"]]),
    lambda d: d.update(triangles=[1, 2]),
    lambda d: d.update(boundary_edges=[r + r[:1] for r in d["boundary_edges"]]),
], ids=["fractional-index", "huge-index", "bool-indices", "true-among-indices",
        "false-among-edges", "huge-vertex", "huge-f", "triangle-rows-of-4",
        "flat-triangles", "edge-rows-of-3"])
def test_eigen_rejects_bad_mesh_numbers(square_mesh, tmp_path, capfd, alter):
    doc = json.loads(square_mesh.read_text())
    alter(doc)
    square_mesh.write_text(json.dumps(doc))
    capfd.readouterr()
    assert run("eigen", "--mesh", str(square_mesh),
               "--out", str(tmp_path / "eig.json")) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [square_mesh.name]
    assert capfd.readouterr().err.startswith("error: malformed mesh")


def _fold(doc):
    """Two CCW triangles on one side of edge 0-1, both running it 0 → 1."""
    doc.update(vertices=[[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.4, 0.5]],
               triangles=[[0, 1, 2], [0, 1, 3]], f_nodal=[0.0] * 4,
               boundary_edges=[[1, 2], [1, 3], [2, 0], [3, 0]])


def _annulus_and_island(doc):
    """A square annulus of 8 triangles (χ = 0) and a separate triangle
    (χ = 1): V − E + F = 1, but two pieces."""
    outer = [[0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [0.0, 3.0]]
    inner = [[1.0, 1.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0]]
    tris = []
    for k in range(4):
        o0, o1, i0, i1 = k, (k + 1) % 4, 4 + k, 4 + (k + 1) % 4
        tris += [[o0, o1, i1], [o0, i1, i0]]
    doc.update(vertices=outer + inner + [[4.0, 0.0], [5.0, 0.0], [4.0, 1.0]],
               triangles=tris + [[8, 9, 10]], f_nodal=[0.0] * 11,
               boundary_edges=[[0, 1], [1, 2], [2, 3], [3, 0], [5, 4], [6, 5],
                               [7, 6], [4, 7], [8, 9], [9, 10], [10, 8]])


def _bow_tie(doc):
    """Two triangles that share only vertex 0: 5 − 6 + 2 = 1."""
    doc.update(vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                         [0.0, -1.0]],
               triangles=[[0, 1, 2], [0, 3, 4]], f_nodal=[0.0] * 5,
               boundary_edges=[[0, 1], [1, 2], [2, 0], [0, 3], [3, 4], [4, 0]])


@pytest.mark.parametrize("alter, error", [
    (lambda d: d.update(boundary_edges=[r[::-1] for r in d["boundary_edges"]]),
     "boundary_edges do not match"),
    (lambda d: d["boundary_edges"].append(d["boundary_edges"][3]),
     "boundary_edges do not match"),
    (_fold, "triangles fold over a shared edge"),
    (_annulus_and_island, "not connected through shared edges"),
    (_bow_tie, "boundary pinched at a vertex"),
    (lambda d: d.update(boundary_edges=np.random.default_rng(5).permutation(
        d["boundary_edges"]).tolist()), None),
], ids=["reversed-boundary", "repeated-boundary-row", "fold", "annulus-and-island",
        "bow-tie", "shuffled-boundary"])
def test_eigen_checks_mesh_topology(square_mesh, tmp_path, capfd, alter, error):
    """A wrong boundary, a fold, two pieces or a pinch exits 3 and writes
    nothing; boundary rows in any order are accepted."""
    doc = json.loads(square_mesh.read_text())
    alter(doc)
    square_mesh.write_text(json.dumps(doc))
    capfd.readouterr()
    code = run("eigen", "--mesh", str(square_mesh), "--out", str(tmp_path / "eig.json"))
    if error is None:
        assert code == 0
        return
    assert code == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == [square_mesh.name]
    assert error in capfd.readouterr().err


# ---------------------------------------------------------------------------
# maximize
# ---------------------------------------------------------------------------


def test_maximize_reports_both_seeds(half_disk_mesh, tmp_path):
    out = tmp_path / "max.json"
    assert run("maximize", "--mesh", str(half_disk_mesh), "--alpha", "0",
               "--eps", "0.5", "--out", str(out)) == 0
    doc = records.read_json(str(out))
    assert set(doc["seeds"]) == {"eigen", "bubble"}
    assert doc["best_seed"] in doc["seeds"]
    assert doc["converged"] is True
    area = math.pi / 2
    assert doc["F_value"] >= area * 0.99
    field = records.read_json(doc["u_file"])
    assert len(field["values"]) == len(
        records.read_json(str(half_disk_mesh))["vertices"]
    )


def test_maximize_warns_when_the_peak_is_a_corner(tmp_path, capfd):
    # The max0 configuration: its maximizer peaks at the corner (0, 1).
    mesh, out = tmp_path / "half.json", tmp_path / "max0.json"
    assert run("mesh", "--shape", "half-disk", "--radius", "1", "--h", "0.05",
               "--out", str(mesh)) == 0
    capfd.readouterr()
    assert run("maximize", "--mesh", str(mesh), "--alpha", "0",
               "--eps", "0.5", "--out", str(out)) == 0
    err = capfd.readouterr().err.splitlines()
    doc = records.read_json(str(out))
    vertex = doc["peak_vertex"]
    assert doc["peak_is_corner"] is True
    xy = records.read_json(str(mesh))["vertices"][vertex]
    assert np.allclose(xy, [0.0, 1.0], atol=1e-12)
    assert len(err) == 1
    assert "corner (0, 1)" in err[0] and f"vertex {vertex}" in err[0]


def test_maximize_alpha_above_threshold_exits_3(half_disk_mesh, tmp_path):
    assert run("maximize", "--mesh", str(half_disk_mesh), "--alpha", "50",
               "--eps", "0.5", "--out", str(tmp_path / "m.json")) == 3


def test_maximize_factors_the_bordered_k_once(tmp_path, splu_sizes):
    # The eigen seed keeps the LU of K bordered with M·1, the eigen solve
    # borrows it and the maximizer reuses it, Newton steps included.  The
    # n-row LU is the eigen residual's K + M.
    mesh, out = tmp_path / "half.json", tmp_path / "max0.json"
    assert run("mesh", "--shape", "half-disk", "--radius", "1", "--h", "0.05",
               "--out", str(mesh)) == 0
    assert run("maximize", "--mesh", str(mesh), "--alpha", "0",
               "--eps", "0.5", "--out", str(out)) == 0
    assert Counter(splu_sizes) == {862: 1, 861: 1}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_csv_rows(tmp_path):
    mesh = tmp_path / "r.json"
    assert run("mesh", "--shape", "rectangle", "--width", "2", "--height",
               "1", "--h", "0.2", "--out", str(mesh)) == 0
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--mesh", str(mesh), "--alphas", "0,1.2",
               "--relative", "--eps-ladder", "1e-2,1e-3",
               "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[1].split(",")[0] == "alpha"
    data = [ln.split(",") for ln in lines[2:]]
    assert len(data) == 4  # one row per (alpha, level)
    growth = {row[0]: row[7] for row in data}
    assert set(growth.values()) <= {"True", "False"}


def test_sweep_rejects_negative_alpha(half_disk_mesh, tmp_path):
    assert run("sweep", "--mesh", str(half_disk_mesh), "--alphas", "-1",
               "--eps-ladder", "1e-2,1e-3",
               "--out", str(tmp_path / "s.csv")) == 2


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def test_witness_bubble_matches_closed_form(tmp_path):
    out = tmp_path / "b.json"
    plot = tmp_path / "b.dat"
    assert run("witness", "--kind", "bubble", "--rho-max", "2",
               "--samples", "41", "--out", str(out),
               "--plot", str(plot)) == 0
    doc = records.read_json(str(out))
    lines = [ln for ln in plot.read_text().splitlines()
             if not ln.startswith("#")]
    assert len(lines) == 41
    for ln in (lines[0], lines[20], lines[40]):
        rho, phi = (float(tok) for tok in ln.split())
        want = -math.log(1.0 + 0.5 * math.pi * rho**2) / (2.0 * math.pi)
        assert abs(phi - want) <= 1e-12
    assert doc["phi_at_zero"] == 0.0


def test_witness_glued_reports_constants(half_disk_mesh, tmp_path):
    out = tmp_path / "g.json"
    assert run("witness", "--kind", "glued", "--mesh", str(half_disk_mesh),
               "--eps", "1e-3", "--out", str(out)) == 0
    doc = records.read_json(str(out))
    for key in ("b", "c_sq", "A", "value", "bound", "margin", "passed",
                "prenorm"):
        assert key in doc
    assert isinstance(doc["passed"], bool)


def test_witness_moser_emits_params(half_disk_mesh, tmp_path):
    out = tmp_path / "w.json"
    assert run("witness", "--kind", "moser", "--mesh", str(half_disk_mesh),
               "--eps", "1e-3", "--out", str(out)) == 0
    doc = records.read_json(str(out))
    assert doc["t"] > 0
    assert doc["delta"] > 0
    assert doc["F_value"] > 0


# On the h = 0.2 half-disk: 100000 is out of range, 65 is the corner
# (0, 1) and 30 is an interior vertex.
@pytest.mark.parametrize("kind", ["moser", "glued"])
@pytest.mark.parametrize("vertex,code", [(100000, 2), (65, 3), (30, 3)])
def test_witness_vertex_must_be_smooth_boundary(half_disk_mesh, tmp_path,
                                                kind, vertex, code):
    out = tmp_path / "w.json"
    assert run("witness", "--kind", kind, "--mesh", str(half_disk_mesh),
               "--vertex", str(vertex), "--out", str(out)) == code
    assert not out.exists()


def test_profile_rejects_non_finite_values(tmp_path):
    path = tmp_path / "p.dat"
    record = records.RunRecord("witness", {})
    with pytest.raises(UsageError, match="non-finite"):
        records.write_profile(str(path), [0.0, 0.5], [1.0, float("nan")], record)
    with pytest.raises(UsageError, match="non-finite"):
        records.write_profile(str(path), [float("inf")], [1.0], record)
    assert not path.exists()


def test_witness_non_finite_profile_leaves_no_files(tmp_path, monkeypatch):
    from tmlab import witness

    phi = witness.bubble_phi
    monkeypatch.setattr(
        witness, "bubble_phi",
        lambda rho: np.where(np.asarray(rho) > 1.5, np.nan, phi(rho)),
    )
    out, plot = tmp_path / "b.json", tmp_path / "b.dat"
    assert run("witness", "--kind", "bubble", "--rho-max", "2",
               "--out", str(out), "--plot", str(plot)) == 2
    assert not out.exists() and not plot.exists()


def test_witness_overflow_exits_4(half_disk_mesh, tmp_path):
    assert run("witness", "--kind", "moser", "--mesh", str(half_disk_mesh),
               "--eps", "1e-3", "--beta", "5000",
               "--out", str(tmp_path / "o.json")) == 4


# ---------------------------------------------------------------------------
# green
# ---------------------------------------------------------------------------


def test_green_output_schema(half_disk_mesh, tmp_path):
    mesh2 = tmp_path / "hd2.json"
    assert run("mesh", "--refine", str(half_disk_mesh), "--times", "3",
               "--out", str(mesh2)) == 0
    out = tmp_path / "g.json"
    assert run("green", "--mesh", str(mesh2), "--point", "1,0",
               "--out", str(out)) == 0
    doc = records.read_json(str(out))
    assert doc["residual"] <= 1e-10
    assert len(doc["A_estimates"]) == 2
    assert doc["A_spread"] >= 0
    assert len(doc["A_reports"]) == 2
    field = records.read_json(doc["G_file"])
    assert len(field["values"]) == len(records.read_json(str(mesh2))["vertices"])


def test_green_alpha_above_threshold_exits_3(half_disk_mesh, tmp_path):
    assert run("green", "--mesh", str(half_disk_mesh), "--point", "1,0",
               "--alpha", "100", "--out", str(tmp_path / "g.json")) == 3


def test_green_checks_annuli_before_solving(half_disk_mesh, tmp_path, capfd,
                                           monkeypatch):
    from tmlab import green, spectrum

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the annuli were checked")

    for module, name in ((spectrum, "first_eigenpair"),
                         (green, "green_function")):
        monkeypatch.setattr(module, name, no_solve)
    capfd.readouterr()
    assert run("green", "--mesh", str(half_disk_mesh), "--point", "1,0",
               "--annuli", "0.001:0.002", "--alpha", "0.5",
               "--out", str(tmp_path / "g.json")) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == [half_disk_mesh.name]
    assert "holds only 0 vertices" in capfd.readouterr().err


def test_green_requires_exactly_one_pole_flag(half_disk_mesh, tmp_path):
    out = str(tmp_path / "g.json")
    assert run("green", "--mesh", str(half_disk_mesh), "--out", out) == 2
    assert run("green", "--mesh", str(half_disk_mesh), "--point", "1,0",
               "--vertex", "3", "--out", out) == 2


@pytest.mark.parametrize("point", ["nan,0", "inf,0", "0,-inf"])
def test_green_rejects_non_finite_point(half_disk_mesh, tmp_path, point):
    out = tmp_path / "g.json"
    assert run("green", "--mesh", str(half_disk_mesh), "--point", point,
               "--out", str(out)) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [half_disk_mesh.name]


@pytest.mark.parametrize("argv, named", [
    (["green", "--point", "1,0", "--annuli", "0.1:inf"], "annulus '0.1:inf'"),
    (["maximize", "--eps", "0.5", "--tol", "nan"], "--tol"),
    (["eigen", "--tol", "nan"], "--tol"),
    (["witness", "--kind", "bubble", "--rho-max", "inf"], "--rho-max"),
], ids=["green-annuli", "maximize-tol", "eigen-tol", "bubble-rho-max"])
def test_non_finite_float_options_rejected_up_front(
        half_disk_mesh, tmp_path, capfd, monkeypatch, argv, named):
    from tmlab import green, moser, spectrum, witness

    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached with a non-finite option")

    for module, name in ((spectrum, "first_eigenpair"),
                         (moser, "maximize_subcritical"),
                         (green, "green_function"), (witness, "bubble_phi")):
        monkeypatch.setattr(module, name, no_solve)
    mesh = [] if argv[0] == "witness" else ["--mesh", str(half_disk_mesh)]
    capfd.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, *mesh, "--out", str(tmp_path / "o.json")) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [half_disk_mesh.name]
    captured = capfd.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert "Warning" not in captured.out + captured.err


# Vertex 55 of the h = 0.2 half-disk is its boundary vertex at (1, 0).
@pytest.mark.parametrize("argv, named", [
    (["sweep", "--alphas", "0", "--eps-ladder", "1e-2,1e-3", "--beta", "-1"],
     "beta must be positive"),
    (["sweep", "--alphas", "0", "--eps-ladder", "1e-2,1e-3", "--q", "0.7"],
     "q must lie in (1/4, 1/2)"),
    (["sweep", "--alphas", "0", "--eps-ladder", "1e-2,1e-3", "--q", "0.2"],
     "q must lie in (1/4, 1/2)"),
    (["sweep", "--alphas", "1", "--relative", "--eps-ladder", "1e-4,1e-2"],
     "strictly decreasing"),
    (["witness", "--kind", "moser", "--alpha", "-1"], "alpha must be"),
    (["witness", "--kind", "moser", "--beta", "0"], "beta must be positive"),
    (["witness", "--kind", "moser", "--q", "0.7"], "q must lie in (1/4, 1/2)"),
    (["witness", "--kind", "glued", "--vertex", "55", "--alpha", "-1"],
     "alpha must be"),
    (["witness", "--kind", "glued", "--alpha", "-1"], "alpha must be"),
    (["eigen", "--tol", "0"], "tol must be positive"),
    (["maximize", "--eps", "0.5", "--tol", "-1"], "tol must be positive"),
], ids=["sweep-beta", "sweep-q-high", "sweep-q-low", "sweep-ladder",
        "moser-alpha", "moser-beta", "moser-q", "glued-vertex-alpha",
        "glued-alpha", "eigen-tol-zero", "maximize-tol-negative"])
def test_invalid_parameters_rejected_before_solving(
        half_disk_mesh, tmp_path, capfd, monkeypatch, argv, named):
    from tmlab import spectrum, witness

    def no_solve(*args, **kwargs):
        raise AssertionError("solved or adapted with an invalid parameter")

    for module, name in ((spectrum, "first_eigenpair"),
                         (witness, "adapt_for_point")):
        monkeypatch.setattr(module, name, no_solve)
    capfd.readouterr()
    assert run(*argv, "--mesh", str(half_disk_mesh),
               "--out", str(tmp_path / "o.csv")) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [half_disk_mesh.name]
    captured = capfd.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err


@pytest.mark.parametrize("argv, named", [
    (["eigen", "--out", "e.json", "--field", "e.json"], ("--out", "--field")),
    (["witness", "--kind", "moser", "--eps", "1e-3", "--out", "w.json",
      "--plot", "w.json"], ("--out", "--plot")),
    (["eigen", "--out", "x.u.json"], ("--mesh", "--out")),
    (["maximize", "--eps", "0.5", "--out", "x.json"], ("--mesh", "--field")),
], ids=["eigen-out-field", "witness-out-plot", "eigen-out-mesh",
        "maximize-default-field-mesh"])
def test_output_sharing_a_file_rejected_up_front(
        half_disk_mesh, tmp_path, capfd, monkeypatch, argv, named):
    from tmlab import moser, spectrum

    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached with clashing paths")

    for module, name in ((spectrum, "first_eigenpair"), (spectrum, "lambda1"),
                         (moser, "maximize_subcritical")):
        monkeypatch.setattr(module, name, no_solve)
    mesh = tmp_path / "x.u.json"
    half_disk_mesh.rename(mesh)
    before = mesh.read_bytes()
    capfd.readouterr()
    back = os.getcwd()
    os.chdir(tmp_path)
    try:
        assert run(*argv, "--mesh", mesh.name) == 2
    finally:
        os.chdir(back)
    assert sorted(p.name for p in tmp_path.iterdir()) == [mesh.name]
    assert mesh.read_bytes() == before
    err = capfd.readouterr().err
    assert err.startswith("error: ") and all(opt in err for opt in named)


def test_run_record_holds_no_clock(square_mesh, tmp_path, capsys):
    """No subcommand takes ``--timing``, and the run record of a JSON, a CSV
    and a plot file holds the command, its parameters, the input hashes and
    the tool version, nothing else."""
    mesh, out = str(square_mesh), str(tmp_path / "out.json")
    argvs = [
        ["mesh", "--shape", "rectangle", "--width", "1", "--height", "1",
         "--h", "0.2"],
        ["eigen", "--mesh", mesh],
        ["maximize", "--mesh", mesh, "--eps", "0.5"],
        ["sweep", "--mesh", mesh, "--alphas", "0", "--eps-ladder", "1e-2,1e-3"],
        ["witness", "--kind", "bubble", "--plot", str(tmp_path / "out.dat")],
        ["green", "--mesh", mesh, "--point", "1,0"],
    ]
    for argv in argvs:
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", out, "--timing")
        assert exc.value.code == 2
        assert "unrecognized arguments: --timing" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [square_mesh.name]

    assert run(*argvs[4], "--out", out) == 0
    assert run(*argvs[3], "--out", str(tmp_path / "out.csv")) == 0
    docs = [records.read_json(out)["run_record"]]
    for name in ("out.dat", "out.csv"):
        line = (tmp_path / name).read_text().splitlines()[0]
        docs.append(json.loads(line.removeprefix("# run_record: ")))
    for doc in docs:
        assert list(doc) == ["command", "params", "input_hashes", "tool_version"]


# ---------------------------------------------------------------------------
# golden bytes
# ---------------------------------------------------------------------------

# Relative paths, run from one directory: the run record embeds the path
# arguments, so these bytes do not depend on where the suite runs.
GOLDEN_COMMANDS = [
    ["mesh", "--shape", "half-disk", "--radius", "1", "--h", "0.05",
     "--out", "half.json"],
    ["eigen", "--mesh", "half.json", "--out", "eig.json"],
    ["maximize", "--mesh", "half.json", "--alpha", "0", "--eps", "0.5",
     "--out", "max0.json"],
    ["maximize", "--mesh", "half.json", "--alpha", "1.0", "--eps", "0.5",
     "--out", "max1.json"],
    ["mesh", "--shape", "half-disk", "--radius", "1", "--h", "0.1",
     "--out", "hd.json"],
    ["mesh", "--refine", "hd.json", "--times", "2", "--out", "hd2.json"],
    ["green", "--mesh", "hd2.json", "--point", "1,0", "--alpha", "0",
     "--out", "g0.json"],
    ["green", "--mesh", "hd2.json", "--point", "1,0", "--alpha", "0.5",
     "--out", "g05.json"],
    ["mesh", "--shape", "rectangle", "--width", "2", "--height", "1",
     "--h", "0.2", "--out", "r.json"],
    ["sweep", "--mesh", "r.json", "--alphas", "0,1.2", "--relative",
     "--eps-ladder", "1e-2,1e-3", "--out", "sweep.csv"],
    ["witness", "--kind", "bubble", "--out", "wb.json", "--plot", "wb.dat"],
    ["witness", "--kind", "moser", "--mesh", "hd.json", "--out", "wm.json",
     "--plot", "wm.dat"],
    # Vertex 210 of hd.json is its boundary vertex at (1, 0).
    ["witness", "--kind", "glued", "--mesh", "hd.json", "--vertex", "210",
     "--out", "wg.json", "--plot", "wg.dat"],
]

# sha256 of each output file; for sweep.csv, of the lines after the run
# record (the header and the data rows).
GOLDEN_OUTPUTS = {
    "half.json": "6cfed5b9a5d783c61cb8324f2d4189612299faeda1e1a219b94962b3e0a96e87",
    "hd.json": "dc3427d004f1bd296586d224dd5ffb56bfb2f98ad8ad94df5d4f1d9abc2d845c",
    "hd2.json": "4163471f058276d1b6a98920cfb0f95d51dcf1712ae6f352bb38f771ad1b2f12",
    "r.json": "78cd21f1eac09d2539aba734531de86209080a27f8d9f0611755e64004fb78a3",
    "eig.json": "4a18df2a2a3af24a9828b5f7d50917f6155a4f3f1495deaf11d7da66d153fa8e",
    "eig.u0.json": "1c65727317bd633870f6b0e9aba71b99a1c773d4ced876108d8860bd62683df6",
    "max0.json": "3a725591cdcc6734d4e35fb48be37832ffac1a28342801a6ac84b52ed170d851",
    "max0.u.json": "c0b13bb4c03765f2e58850e32eb09702755055048a5e4c6a7ef0d5e6278dbf25",
    "max1.json": "07c5c507701e934dfa35b7bb566f3d9fe9a58fd810e886704b7133cc16f78eb3",
    "max1.u.json": "92dd0a38cafdd75623a126b488e62cbdb491efa61788531e01661dae94108bf7",
    "g0.json": "f535a2230ea86a8f149aa7a1df28084556d93187656a8e047c7bcab61ded555b",
    "g0.G.json": "d7e25ea487492efd861eea90def3a92cf3415697417d1a9ba61a8318bf8137d9",
    "g05.json": "f08bbfdb793fc7362d56efec33c7a0d1ed34d17e9492337c56a62791ccb103b6",
    "g05.G.json": "65a2c78575067059dcfb8d53c636d315a4bca04cbb475be538282e2680c70b0c",
    "sweep.csv": "6ad2cfd5b591ae19f879952940c5db040d810ddc6d55d9586fcac40f379fa9f6",
    "wb.json": "271febd392d3bb649360b12ff234caabb648ea1d8c86be368df94f07415d3e62",
    "wb.dat": "159da8093d694bde0eb36045cc02261847f1002ca9f0ee6e4a52e6c2d9898e45",
    "wm.json": "5097b740b2fa48a2d2022c717c67fe259690bcd949773b07a11a0e1a796d0591",
    "wm.dat": "ff0fad5e6896472d5f35448af5578d35c5b584e8602be3ad78b9dc41f4f21bf2",
    "wg.json": "b46e4ae80e9f4e5943d8c027b82850ddc29fed34d345cc40035902bdf5db2d6b",
    "wg.dat": "7d5513d7d4f8286e3651c1ac048b86bbd60e941c2b8e84718bb4a7efe3ad55b3",
}


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    back = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in GOLDEN_COMMANDS:
            assert run(*argv) == 0, argv
    finally:
        os.chdir(back)
    return workdir


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_golden_output_bytes(golden_dir, name):
    data = (golden_dir / name).read_bytes()
    if name.endswith(".csv"):
        data = data.split(b"\n", 1)[1]
    assert hashlib.sha256(data).hexdigest() == GOLDEN_OUTPUTS[name]
