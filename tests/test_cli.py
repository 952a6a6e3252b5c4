"""Command-line driver: file outputs, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from collections import Counter

import numpy as np
import pytest

from tmlab import cli, records
from tmlab.errors import UsageError
from tmlab.surface import Surface


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


def _set_first(rows, value):
    rows[0][0] = value


@pytest.mark.parametrize("alter", [
    lambda d: _set_first(d["triangles"], 0.4),
    lambda d: _set_first(d["triangles"], 2**70),
    lambda d: d.update(boundary_edges=[[True, False]] * len(d["boundary_edges"])),
    lambda d: _set_first(d["vertices"], 2**1100),
    lambda d: _set_first([d["f_nodal"]], 2**1100),
], ids=["fractional-index", "huge-index", "bool-indices", "huge-vertex",
        "huge-f"])
def test_eigen_rejects_bad_mesh_numbers(square_mesh, tmp_path, capfd, alter):
    doc = json.loads(square_mesh.read_text())
    alter(doc)
    square_mesh.write_text(json.dumps(doc))
    capfd.readouterr()
    assert run("eigen", "--mesh", str(square_mesh),
               "--out", str(tmp_path / "eig.json")) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [square_mesh.name]
    assert capfd.readouterr().err.startswith("error: malformed mesh")


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
], ids=["sweep-beta", "sweep-q-high", "sweep-q-low", "sweep-ladder",
        "moser-alpha", "moser-beta", "moser-q", "glued-vertex-alpha",
        "glued-alpha"])
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


@pytest.mark.parametrize("timing", [False, True])
def test_timing_flag_records_elapsed_seconds(tmp_path, timing):
    out = tmp_path / "b.json"
    flag = ["--timing"] if timing else []
    assert run("witness", "--kind", "bubble", "--out", str(out), *flag) == 0
    elapsed = records.read_json(str(out))["run_record"]["elapsed_seconds"]
    if timing:
        assert isinstance(elapsed, float) and elapsed >= 0.0
    else:
        assert elapsed is None


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
    "half.json": "b72f691123898590b9b2b3e908c78fdf74fb02bc91054f7a7ab8057cffffba77",
    "hd.json": "e62df9444ea9f77f2e96e5fc4f9b54ec8098139cc9f000504d99382a19010da1",
    "hd2.json": "0871d3fdd531ea51f51ec5636f3896c1f278a3b83298773e1316cdfb09b22759",
    "r.json": "4eca5819c5b707410df111f21532b5d716556743f88556e1d03f03aae2a9bb22",
    "eig.json": "58dc9f194a47b27339b4b9fcdf4c88c388a842b419d4a7c8a61ac78eadfb9b33",
    "eig.u0.json": "d346be98e518824c537a83e2f27321d18dae208b06bd482ad2946b8d797dd65a",
    "max0.json": "5a5c6f9ef42dfddb9f566e72edef574f399630cb93c1b57c8778ad022a9e9e98",
    "max0.u.json": "2c1a3de1ef98519e5d0a755a82557d3435974df0f24c4e2779526b4250326af9",
    "max1.json": "da4b78bc44a59394393eac8c4f1d4982efc80a497fcbd5c7d402b736ac6f79cb",
    "max1.u.json": "cd8769b7e925425aa95e48e57e4fc247885ee0ffe038b3863fac7ca15e83ae7c",
    "g0.json": "390365b06cc91b7711e43348eca1f44d09f7c9d45191eb73aacf40f1e1b089ac",
    "g0.G.json": "e2de9a86d149cde17c08bfbe059650f8f45f0edfd1cd3808cd49c98a4909e69d",
    "g05.json": "72ed46b8fec2760c4469e4f30694f0356b2e0b90722bafecfb93eedbd95c72e3",
    "g05.G.json": "2f8586087e92c21cc79530f4d496d1a876e59cb51de75ae2a60266a433c963fe",
    "sweep.csv": "8208a7bcf3b15c029dd4f266e00bc2f678d655955efc1225afad7288f784b36a",
    "wb.json": "9869dadaa8fa922ca18b4f60d548066dffca85450ec1887cb98fd64a22ce2612",
    "wb.dat": "23be5030ebfba36c79fd14a7354fc396aad5f72ff2a0bb24abf931047c2e6e9d",
    "wm.json": "35b6fe9e7427d6364ff0f66f7f7cd7e3d12c159daf17e6464754b221a610628b",
    "wm.dat": "9789ea51b3ec9641d8622c7865934fa44d3d32091cdcdfabc50b5e694b45f186",
    "wg.json": "f58d1d64482c4277001eddd543891b299fee41575697e3705ff1fb39f645fdff",
    "wg.dat": "7bc3b13241f3b0838ac173aba7cbaf24106c89e3951c9c6302670a0f09a1df8c",
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
