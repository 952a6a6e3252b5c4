"""Command-line driver: file outputs, exit codes, determinism."""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np
import pytest

from tmlab import cli, records
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
    assert surf.to_dict() == {k: doc[k] for k in surf.to_dict()}


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


def test_eigen_missing_mesh_is_usage_error(tmp_path):
    assert run("eigen", "--mesh", str(tmp_path / "none.json"),
               "--out", str(tmp_path / "o.json")) == 2


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


def test_maximize_alpha_above_threshold_exits_3(half_disk_mesh, tmp_path):
    assert run("maximize", "--mesh", str(half_disk_mesh), "--alpha", "50",
               "--eps", "0.5", "--out", str(tmp_path / "m.json")) == 3


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


def test_green_requires_exactly_one_pole_flag(half_disk_mesh, tmp_path):
    out = str(tmp_path / "g.json")
    assert run("green", "--mesh", str(half_disk_mesh), "--out", out) == 2
    assert run("green", "--mesh", str(half_disk_mesh), "--point", "1,0",
               "--vertex", "3", "--out", out) == 2


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
    "eig.json": "9955bff9fe2c84c8a91da483e7fe4814247d654f6f772a4013e54644f82a03a8",
    "eig.u0.json": "bea9628b8610ac9b9fa3c38a86550451b0ac1a6f6580840af5d081ff64b719a8",
    "max0.json": "080208e04c33c56458e908494e7f0dcde2d11ec6b2dcc59f1ca2f918a7d4b7e1",
    "max0.u.json": "55cbf569018d72722ebde1999c823d8ea3463250b3f22492fc0e5fdfbeaf0d36",
    "max1.json": "c2cfb5a3362b0fc1cb77cfb9d47bbe6ad57278ff33d5279b75a6592b2374dda5",
    "max1.u.json": "51e7924844ae77e45f0af874cf3a151833faac01723470d36c5f1afdef45c581",
    "g0.json": "e18d8666d5b639efa941c2c1bbe21e5b1d94596d18a569280ba90e132f67baf3",
    "g0.G.json": "e2de9a86d149cde17c08bfbe059650f8f45f0edfd1cd3808cd49c98a4909e69d",
    "g05.json": "f99b934417f9fdfde1b9c7a4bee9912d50eee92268a4e144906c995f47d5d1a9",
    "g05.G.json": "e00341b90b004388512626e358ebb5daffed70c12d553367d56ca2ead2da146c",
    "sweep.csv": "ca08334476c8b02cbabd972b71f1f0b9a4d83f5dec00e90592c5efb8ecd4b604",
    "wb.json": "9869dadaa8fa922ca18b4f60d548066dffca85450ec1887cb98fd64a22ce2612",
    "wb.dat": "23be5030ebfba36c79fd14a7354fc396aad5f72ff2a0bb24abf931047c2e6e9d",
    "wm.json": "67ca15f1d92319075cca428e7d73d889c5ed4f76e50bd9fede918a9567d93865",
    "wm.dat": "e60168543bba694ac724a1adbd1d665ef083b0d2b9e5211778d42e67fab3ccec",
    "wg.json": "1478f784ec8bce3e202399acb981de5b80f7435e449dd44c2882d12f4b2f9f05",
    "wg.dat": "313a27f66c3055a516f12c632753127af81b9872836678d6b6df57ca70bc0ad7",
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
