"""Mesh construction, refinement, and metric area."""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import tmlab

from tmlab.assembly import area
from tmlab.errors import PreconditionError, UsageError
from tmlab.surface import (
    _BISECTION,
    _SNAP,
    DomainSpec,
    Surface,
    _arc_chord,
    _arc_radius,
    _bisection,
    _edge_topology,
    _extract_boundary,
    _new_f,
    adapt_for_point,
    build_domain,
    prolong,
    refine,
    refine_local,
)

PI = math.pi


# ---------------------------------------------------------------------------
# build_domain
# ---------------------------------------------------------------------------


def test_coarse_square_has_positive_orientation():
    s = build_domain(DomainSpec("rectangle", (1.0, 1.0)), 0.5)
    assert s.num_triangles >= 8
    assert np.all(s.euclidean_tri_areas() > 0)


def test_half_disk_boundary_vertices_on_analytic_curve():
    s = build_domain(DomainSpec("half_disk", (1.0,)), 0.1)
    for i in s.boundary_vertex_indices():
        x, y = s.vertices[i]
        on_diameter = abs(x) <= 1e-12
        on_arc = abs(math.hypot(x, y) - 1.0) <= 1e-12
        assert on_diameter or on_arc


def test_rectangle_flat_area_exact():
    s = build_domain(DomainSpec("rectangle", (2.0, 1.0)), 0.1)
    assert abs(s.euclidean_tri_areas().sum() - 2.0) <= 1e-12


def test_disk_sector_builds_and_validates():
    s = build_domain(DomainSpec("disk_sector", (1.0, PI / 2)), 0.1)
    s.validate()
    assert np.all(s.euclidean_tri_areas() > 0)


def test_degenerate_specs_rejected():
    with pytest.raises(UsageError):
        DomainSpec("rectangle", (0.0, 1.0))
    with pytest.raises(UsageError):
        DomainSpec("half_disk", (-1.0,))
    with pytest.raises(UsageError):
        DomainSpec("disk_sector", (1.0, 7.0))


@pytest.mark.parametrize("kind, params", [("half_disk", [math.nan]),
                                          ("rectangle", [math.inf, 1.0]),
                                          ("disk_sector", [-math.inf, 1.0])])
def test_non_finite_domain_params_rejected(half_disk, kind, params):
    with pytest.raises(UsageError, match="must be finite"):
        DomainSpec(kind, tuple(params))
    d = half_disk.to_dict()
    d["domain"].update(kind=kind, params=params)
    with pytest.raises(UsageError, match="must be finite"):
        Surface.from_dict(d)


def test_max_edge_length_bounded_by_target():
    h = 0.1
    s = build_domain(DomainSpec("half_disk", (1.0,)), h)
    assert s.edge_lengths().max() <= 1.5 * h


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------


def test_refine_quadruples_triangles_and_halves_edges(half_disk):
    r = refine(half_disk)
    assert r.num_triangles == 4 * half_disk.num_triangles
    # Boundary projection can only lengthen arc chords marginally.
    assert r.edge_lengths().max() <= 0.51 * half_disk.edge_lengths().max()


def test_refine_preserves_flat_polygon_area(unit_square):
    r = refine(unit_square)
    assert abs(
        r.euclidean_tri_areas().sum() - unit_square.euclidean_tri_areas().sum()
    ) <= 1e-12


def test_refine_grows_half_disk_area_toward_target(half_disk):
    target = PI / 2
    areas = [half_disk.euclidean_tri_areas().sum()]
    s = half_disk
    for _ in range(2):
        s = refine(s)
        areas.append(s.euclidean_tri_areas().sum())
    assert areas[0] < areas[1] < areas[2] < target
    assert target - areas[-1] < target - areas[0]


def test_refine_resamples_conformal_factor():
    s = build_domain(DomainSpec("rectangle", (1.0, 1.0), "x1 + 2*x2"), 0.5)
    r = refine(s)
    expect = r.vertices[:, 0] + 2.0 * r.vertices[:, 1]
    assert np.allclose(r.f_nodal, expect, atol=1e-12)


# ---------------------------------------------------------------------------
# conformal-factor expressions
# ---------------------------------------------------------------------------

# Each accepted name and operator next to the numpy expression it stands
# for, written out in the same order.
F_VALUES = [
    ("x1 + x2", lambda x1, x2: x1 + x2),
    ("x1 - x2", lambda x1, x2: x1 - x2),
    ("x1 * x2", lambda x1, x2: x1 * x2),
    ("x1 / x2", lambda x1, x2: x1 / x2),
    ("x1 ** x2", lambda x1, x2: x1**x2),
    ("-x1 + +x2", lambda x1, x2: -x1 + +x2),
    ("-x1**2", lambda x1, x2: -(x1**2)),
    ("2**-x1 - 3", lambda x1, x2: 2.0 ** -x1 - 3.0),
    ("1.5e-3*x1/7", lambda x1, x2: 1.5e-3 * x1 / 7.0),
    ("exp(x1)", lambda x1, x2: np.exp(x1)),
    ("log(x2)", lambda x1, x2: np.log(x2)),
    ("sqrt(x1)", lambda x1, x2: np.sqrt(x1)),
    ("sin(x1) + cos(x2)", lambda x1, x2: np.sin(x1) + np.cos(x2)),
    ("tan(x1)", lambda x1, x2: np.tan(x1)),
    ("sinh(x1) - cosh(x2)", lambda x1, x2: np.sinh(x1) - np.cosh(x2)),
    ("tanh(x2)", lambda x1, x2: np.tanh(x2)),
    ("arctan(x1) + atan(x2)", lambda x1, x2: np.arctan(x1) + np.arctan(x2)),
    ("arctan2(x2, x1) * atan2(x1, x2)",
     lambda x1, x2: np.arctan2(x2, x1) * np.arctan2(x1, x2)),
    ("hypot(x1, x2)", lambda x1, x2: np.hypot(x1, x2)),
    ("abs(x1 - 0.5) + Abs(0.5 - x2)",
     lambda x1, x2: np.abs(x1 - 0.5) + np.abs(0.5 - x2)),
    ("pi*x1 + E**x2", lambda x1, x2: math.pi * x1 + math.e**x2),
    ("0.1*(x1**2+x2**2)", lambda x1, x2: 0.1 * (x1**2 + x2**2)),
    ("x2/3", lambda x1, x2: x2 / 3.0),
]


@pytest.mark.parametrize("expr, fn", F_VALUES, ids=[e for e, _ in F_VALUES])
def test_conformal_factor_values(rng, expr, fn):
    x1, x2 = rng.uniform(0.05, 0.95, size=(2, 1000))
    got = DomainSpec("rectangle", (1.0, 1.0), expr).f_callable()(x1, x2)
    assert got.dtype == float and got.shape == x1.shape
    assert np.array_equal(got, np.broadcast_to(fn(x1, x2), x1.shape))


# The expressions of the golden meshes and of the benchmark; sympy's
# evaluation of each was bit-equal to the written order.
F_GOLDEN = [
    ("0.2*x1*x2 + 0.1*x1**2", lambda x1, x2: 0.2 * x1 * x2 + 0.1 * x1**2),
    ("0.3*x1 - x2**2", lambda x1, x2: 0.3 * x1 - x2**2),
    ("0.5*x1*x2 - 0.3*x2", lambda x1, x2: 0.5 * x1 * x2 - 0.3 * x2),
    ("x1 + 2*x2", lambda x1, x2: x1 + 2.0 * x2),
    ("0.5*x2", lambda x1, x2: 0.5 * x2),
    ("x1*x2", lambda x1, x2: x1 * x2),
    ("1", lambda x1, x2: np.ones_like(x1)),
    ("3", lambda x1, x2: np.full_like(x1, 3.0)),
    ("0.0731*x1*x2", lambda x1, x2: 0.0731 * x1 * x2),
]


@pytest.mark.parametrize("expr, fn", F_GOLDEN, ids=[e for e, _ in F_GOLDEN])
def test_golden_conformal_factors_bit_equal(expr, fn):
    s = build_domain(DomainSpec("half_disk", (1.0,), expr), 0.2)
    s = adapt_for_point(refine(s), (0.6, 0.8), 1e-2, 0.3)
    assert np.array_equal(s.f_nodal, fn(*s.vertices.T))


_PAYLOAD = "__import__('sys').stdout.write('EVALUATED\\n') and x1"
_PARSE = "cannot parse conformal factor"
_UNKNOWN = "conformal factor uses unknown symbols"
F_REJECTED = [
    ("x1.real", _PARSE),
    ("x1[0]", _PARSE),
    ("lambda: x1", _PARSE),
    ("[x1 for x1 in x2]", _PARSE),
    ("exp(x=x1)", _PARSE),
    ("'x1'", _PARSE),
    ("2j*x1", _PARSE),
    ("x1^2", _PARSE + ".*write '\\*\\*' for a power"),
    ("x1 and x2", _PARSE),
    ("x1 < x2", _PARSE),
    ("log(x1, x2)", _PARSE),
    ("x1(2)", _PARSE),
    ("exp", _PARSE),
    ("", _PARSE),
    ("1" + "0" * 400, _PARSE),
    ("x1+" * 100000, _PARSE),
    ("x1+" * 100000 + "x1", _PARSE),
    ("-" * 100000 + "x1", _PARSE),
    (_PAYLOAD, _UNKNOWN + ": __import__"),
    ("foo(x1)", _UNKNOWN + ": foo$"),
    ("y + z*x1", _UNKNOWN + ": y, z$"),
]


@pytest.mark.parametrize("expr, match", F_REJECTED,
                         ids=[e[:20] for e, _ in F_REJECTED])
def test_conformal_factor_rejected(capfd, expr, match):
    with pytest.raises(UsageError, match=match):
        DomainSpec("rectangle", (1.0, 1.0), expr)
    assert "EVALUATED" not in capfd.readouterr().out


_NO_SYMPY = f"""
import sys
sys.modules["sympy"] = None
from tmlab.errors import UsageError
from tmlab.surface import DomainSpec, Surface, adapt_for_point, build_domain, refine

s = build_domain(DomainSpec("half_disk", (1.0,), "0.2*x1*x2 + 0.1*x1**2"), 0.2)
s = adapt_for_point(refine(s), (0.6, 0.8), 1e-3, 0.3)
d = s.to_dict()
assert Surface.from_dict(d).content_hash() == s.content_hash()
d["domain"]["f_expr"] = {_PAYLOAD!r}
try:
    Surface.from_dict(d)
except UsageError:
    pass
else:
    raise SystemExit("payload accepted")
assert sys.modules["sympy"] is None
assert not [m for m in sys.modules if m.startswith("sympy.")]
print("OK")
"""


def test_conformal_factors_need_no_sympy():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(tmlab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _NO_SYMPY], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "OK\n"


# ---------------------------------------------------------------------------
# area (metric-weighted)
# ---------------------------------------------------------------------------


def test_area_unit_square_flat(unit_square):
    assert abs(area(unit_square) - 1.0) <= 1e-12


def test_area_constant_factor_scales_exponentially():
    s0 = build_domain(DomainSpec("rectangle", (1.0, 1.0)), 0.25)
    s1 = build_domain(DomainSpec("rectangle", (1.0, 1.0), "1"), 0.25)
    assert abs(area(s1) - math.e**2 * area(s0)) <= 1e-10


def test_area_half_disk_converges():
    s = build_domain(DomainSpec("half_disk", (1.0,)), 0.02)
    assert abs(area(s) - PI / 2) <= 1e-3


def test_area_invariant_under_relabeling(half_disk):
    base = area(half_disk)
    rng = np.random.default_rng(7)
    perm = rng.permutation(half_disk.num_vertices)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    tri_order = rng.permutation(half_disk.num_triangles)
    shuffled = Surface(
        vertices=half_disk.vertices[perm],
        triangles=inv[half_disk.triangles][tri_order],
        boundary_edges=inv[half_disk.boundary_edges],
        f_nodal=half_disk.f_nodal[perm],
        spec=half_disk.spec,
    )
    shuffled.validate()
    assert abs(area(shuffled) - base) <= 1e-12


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_mesh_dict_round_trip(half_disk):
    d = half_disk.to_dict()
    back = Surface.from_dict(d)
    for key, value in back.to_dict().items():
        if isinstance(value, np.ndarray):
            assert value.dtype == d[key].dtype, key
            assert np.array_equal(value, d[key]), key
        else:
            assert value == d[key], key
    assert back.content_hash() == half_disk.content_hash()


def test_to_dict_arrays_are_copies(half_disk):
    before = half_disk.content_hash()
    d = half_disk.to_dict()
    back = Surface.from_dict(d)
    for key in ("vertices", "triangles", "boundary_edges", "f_nodal"):
        d[key][0] += 1
    assert half_disk.content_hash() == before
    assert back.content_hash() == before


def test_malformed_mesh_dict_rejected(half_disk):
    d = half_disk.to_dict()
    d.pop("triangles")
    with pytest.raises(UsageError):
        Surface.from_dict(d)
    d2 = half_disk.to_dict()
    d2["format_version"] = 99
    with pytest.raises(UsageError):
        Surface.from_dict(d2)


# ---------------------------------------------------------------------------
# validate: one broken mesh per failure
# ---------------------------------------------------------------------------


def _flat_surface(verts, tris, bedges=None):
    tris = np.asarray(tris, dtype=np.int64)
    return Surface(
        vertices=np.asarray(verts, dtype=float),
        triangles=tris,
        boundary_edges=_extract_boundary(tris) if bedges is None else bedges,
        f_nodal=np.zeros(len(verts)),
        spec=DomainSpec("rectangle", (1.0, 1.0)),
    )


def _square_annulus():
    """Outer square [0, 3]², inner hole [1, 2]²: 8 vertices, 8 triangles."""
    outer = [(0.0, 0.0), (3.0, 0.0), (3.0, 3.0), (0.0, 3.0)]
    inner = [(1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)]
    tris = []
    for k in range(4):
        o0, o1, i0, i1 = k, (k + 1) % 4, 4 + k, 4 + (k + 1) % 4
        tris += [(o0, o1, i1), (o0, i1, i0)]
    return outer + inner, tris


def test_validate_rejects_non_manifold_edge():
    verts = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -1.0), (0.5, 2.0)]
    s = _flat_surface(verts, [(0, 1, 2), (1, 0, 3), (0, 1, 4)])
    with pytest.raises(PreconditionError, match="non-manifold edge"):
        s.validate()


def test_validate_rejects_boundary_mismatch(unit_square):
    for bedges in (unit_square.boundary_edges[1:], unit_square.boundary_edges + 1):
        s = Surface(
            unit_square.vertices,
            unit_square.triangles,
            bedges,
            unit_square.f_nodal,
            unit_square.spec,
        )
        with pytest.raises(PreconditionError, match="boundary_edges do not match"):
            s.validate()


def test_validate_rejects_wrong_euler_characteristic():
    verts, tris = _square_annulus()
    with pytest.raises(PreconditionError, match="Euler characteristic 0"):
        _flat_surface(verts, tris).validate()


def test_validate_rejects_unreferenced_vertex():
    # Annulus (V - E + F = 0) plus one stray vertex restores the disk count.
    verts, tris = _square_annulus()
    s = _flat_surface(verts + [(5.0, 5.0)], tris)
    with pytest.raises(PreconditionError, match="unreferenced vertices"):
        s.validate()


def test_extract_boundary_sorted_and_oriented(half_disk):
    b = half_disk.boundary_edges
    assert [tuple(e) for e in b] == sorted(tuple(e) for e in b)
    # Domain on the left: the boundary encloses positive area.
    p, q = half_disk.vertices[b[:, 0]], half_disk.vertices[b[:, 1]]
    shoelace = 0.5 * np.sum(p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0])
    assert abs(shoelace - half_disk.euclidean_tri_areas().sum()) <= 1e-12


# ---------------------------------------------------------------------------
# refine_local / adapt_for_point
# ---------------------------------------------------------------------------

# content_hash values of adapted meshes, recorded with the whole-array
# refine_local; any drift means the mesh or its numbering changed.
GOLDEN_ADAPT = {
    "rectangle": (
        DomainSpec("rectangle", (1.0, 1.0)),
        (1.0, 0.5),
        "763b685b79da15f60ff7c003a94e164f998ff5aee23739d18b8ab6d4a3c4a8fc",
    ),
    "half_disk_arc": (
        DomainSpec("half_disk", (1.0,)),
        (math.cos(0.3), math.sin(0.3)),
        "f50b80dee2a3cc3f8ac70e05eec92b9eb042fce1dfeed0dd6ea8ca83c6ddc2fe",
    ),
    "f_expr": (
        DomainSpec("half_disk", (1.0,), "0.2*x1*x2 + 0.1*x1**2"),
        (0.6, 0.8),
        "840d2b5280482bd2ccfcaf09d805a18f43ff5f8d948b334da156d9f7ed532d42",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_ADAPT))
def test_adapt_for_point_golden_hash(case):
    spec, center, digest = GOLDEN_ADAPT[case]
    s = adapt_for_point(build_domain(spec, 0.1), center, 1e-3, 0.3)
    assert s.content_hash() == digest


def test_adapted_surface_holds_no_bisection_record(half_disk):
    s = adapt_for_point(half_disk, (1.0, 0.0), 1e-3, 0.3)
    assert s is not half_disk and _BISECTION not in s.cache
    # Already graded: no round runs and the input comes back, without the
    # record its marks were read from.
    assert adapt_for_point(s, (1.0, 0.0), 1e-3, 0.3) is s
    assert _BISECTION not in s.cache


def _geometry_digest(s):
    """sha256 of the mesh geometry, independent of vertex and triangle
    numbering: the lexsorted (x, y, f) vertex rows, then each triangle's
    corners sorted by (x, y) and the resulting 6-coordinate rows lexsorted."""
    rows = np.column_stack([s.vertices, s.f_nodal])
    rows = rows[np.lexsort(rows.T[::-1])]
    pts = s.vertices[s.triangles]
    order = np.lexsort((pts[:, :, 1], pts[:, :, 0]), axis=1)
    pts = np.take_along_axis(pts, order[:, :, None], axis=1).reshape(-1, 6)
    pts = pts[np.lexsort(pts.T[::-1])]
    return hashlib.sha256(rows.tobytes() + pts.tobytes()).hexdigest()


# Geometry digests of adapted right-isosceles grids, recorded with the
# dict-based longest-edge propagation; on these grids any longest-edge
# bisection with conformity closure splits the same edges.
GOLDEN_GEOMETRY = {
    "rectangle": (
        DomainSpec("rectangle", (1.0, 1.0)), 0.1, (1.0, 0.5), 1e-3,
        "ba1a5fc9af7ea7c44b56f2671f999ce127ec98f58c599a5fc51e0ca14ce32a77",
    ),
    "ladder_rectangle": (
        DomainSpec("rectangle", (2.0, 1.0)), 0.05, (0.0, 0.45), 1e-7,
        "f7e28db36e751eca6ed084701eb45e91d66d36760fed4d022990060e96528e22",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_GEOMETRY))
def test_adapt_for_point_golden_geometry(case):
    spec, h, center, inner, digest = GOLDEN_GEOMETRY[case]
    s = adapt_for_point(build_domain(spec, h), center, inner, 0.3)
    assert _geometry_digest(s) == digest


def test_refine_golden_hash():
    s = refine(refine(build_domain(DomainSpec("half_disk", (1.0,)), 0.2)))
    assert s.content_hash() == (
        "27dbe3727a12df1c88c3ef124b648456d1c3c02249ac3f483ea072fdf3546adb"
    )


def _assert_graded(s, center, inner, outer, ratio=8.0):
    """The postcondition stated in the adapt_for_point docstring."""
    cc = s.tri_coords().mean(axis=1)
    d = np.hypot(cc[:, 0] - center[0], cc[:, 1] - center[1])
    longest = s.edge_lengths().max(axis=1)
    near = d <= outer
    bound = np.maximum(inner, np.minimum(d, outer)) / ratio
    assert near.any()
    assert np.all(longest[near] <= bound[near])


def _assert_boundary_on_half_disk(s):
    x, y = s.vertices[s.boundary_vertex_indices()].T
    on_diameter = np.abs(x) <= 1e-12
    on_arc = np.abs(np.hypot(x, y) - 1.0) <= 1e-12
    assert np.all(on_diameter | on_arc)


def test_adapt_rectangle_properties(rng):
    base = build_domain(DomainSpec("rectangle", (2.0, 1.0)), 0.2)
    x1, x2 = base.vertices.T
    # Flat spec with a non-constant f: new vertices take the parent average,
    # which reproduces a linear function.
    linear = Surface(base.vertices, base.triangles, base.boundary_edges,
                     x1 + 2.0 * x2, base.spec)
    for _ in range(3):
        center = (rng.uniform(0.0, 2.0), rng.choice([0.0, rng.uniform(0.0, 1.0)]))
        inner = 10.0 ** rng.uniform(-6.0, -2.0)
        outer = rng.uniform(0.1, 0.4)
        s = adapt_for_point(linear, center, inner, outer)
        s.validate()
        _assert_graded(s, center, inner, outer)
        assert abs(s.euclidean_tri_areas().sum() - 2.0) <= 1e-12
        assert np.allclose(s.f_nodal, s.vertices[:, 0] + 2.0 * s.vertices[:, 1],
                           rtol=0.0, atol=1e-12)


def test_adapt_half_disk_arc_properties(rng):
    base = build_domain(DomainSpec("half_disk", (1.0,)), 0.1)
    for _ in range(3):
        th = rng.uniform(-1.2, 1.2)
        center = (math.cos(th), math.sin(th))
        inner = 10.0 ** rng.uniform(-6.0, -2.0)
        outer = rng.uniform(0.1, 0.4)
        s = adapt_for_point(base, center, inner, outer)
        s.validate()
        _assert_graded(s, center, inner, outer)
        _assert_boundary_on_half_disk(s)
        # New arc vertices were projected, so the area can only grow.
        assert s.euclidean_tri_areas().sum() >= base.euclidean_tri_areas().sum()


def test_adapt_resamples_f_expr(rng):
    spec = DomainSpec("half_disk", (1.0,), "0.2*x1*x2 + 0.1*x1**2")
    s = adapt_for_point(build_domain(spec, 0.1), (rng.uniform(0.1, 0.9), 0.0),
                        1e-4, 0.3)
    s.validate()
    x1, x2 = s.vertices.T
    assert np.allclose(s.f_nodal, 0.2 * x1 * x2 + 0.1 * x1**2, rtol=0.0, atol=1e-15)


def _assert_marked_replaced(before, marks, after):
    """No marked triangle survives; unmarked survivors keep their input
    order at the front."""
    kept = {tuple(t) for t in after.triangles.tolist()}
    assert not any(tuple(t) in kept for t in before.triangles[marks].tolist())
    survivors = [t for t in before.triangles.tolist() if tuple(t) in kept]
    assert after.triangles[: len(survivors)].tolist() == survivors


def test_refine_local_random_marks(rng, half_disk):
    marks = rng.random(half_disk.num_triangles) < 0.1
    s = refine_local(half_disk, marks)
    s.validate()
    _assert_boundary_on_half_disk(s)
    assert s.num_triangles >= half_disk.num_triangles + marks.sum()
    _assert_marked_replaced(half_disk, marks, s)


def _min_angle(s):
    c = s.tri_coords()
    u = c[:, [1, 2, 0]] - c
    w = c[:, [2, 0, 1]] - c
    cos = np.sum(u * w, axis=2) / (np.linalg.norm(u, axis=2) * np.linalg.norm(w, axis=2))
    return float(np.arccos(np.clip(cos, -1.0, 1.0)).min())


@pytest.mark.parametrize(
    "spec",
    [
        DomainSpec("rectangle", (2.0, 1.0)),
        DomainSpec("half_disk", (1.0,), "0.2*x1*x2 + 0.1*x1**2"),
        DomainSpec("disk_sector", (1.0, 1.0)),
    ],
    ids=["rect21", "half_disk_f_expr", "sector_1rad"],
)
def test_refine_local_multi_round_properties(rng, spec):
    s = build_domain(spec, 0.25)
    angle0 = _min_angle(s)
    f = spec.f_callable()
    for _ in range(12):
        marks = rng.random(s.num_triangles) < 0.15
        out = refine_local(s, marks)
        _assert_record_fresh(out)
        _assert_marked_replaced(s, marks, out)
        assert np.array_equal(out.f_nodal, f(out.vertices[:, 0], out.vertices[:, 1]))
        # Rivara's bound for longest-edge bisection.
        assert _min_angle(out) >= 0.5 * angle0
        s = out


def _assert_record_fresh(s):
    """The bisection record ``refine_local`` left on ``s`` is the one a
    whole-mesh pass builds, its boundary is ``_extract_boundary``'s, and the
    mesh is valid."""
    fresh = Surface(s.vertices, s.triangles, s.boundary_edges, s.f_nodal, s.spec)
    carried = s.cache[_BISECTION]
    for name, x, y in zip(carried._fields, carried, _bisection(fresh)):
        assert np.array_equal(x, y), name
    assert np.array_equal(s.boundary_edges, _extract_boundary(s.triangles))
    s.validate()


def _reference_refine_local(surface, marked):
    """Whole-mesh longest-edge bisection, as ``refine_local`` did it before
    the bisection record: an edge sort and a closure loop over every triangle
    each round.  The reference the incremental version must match bit for bit."""
    nv, nt = surface.num_vertices, surface.num_triangles
    verts, tris = surface.vertices, surface.triangles
    nxt = np.roll(tris, -1, axis=1)
    d = verts[tris] - verts[nxt]
    sq = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    pair = np.minimum(tris, nxt) * nv + np.maximum(tris, nxt)
    first = np.lexsort((pair, sq))[:, -1]
    rot = np.take_along_axis(tris, (first[:, None] + np.arange(3)) % 3, axis=1)

    _, keys, inverse, counts = _edge_topology(rot, nv)
    eid = inverse.reshape(3, nt)
    split = np.zeros(keys.size, dtype=bool)
    split[eid[0, marked]] = True
    while True:
        grow = (split[eid[1]] | split[eid[2]]) & ~split[eid[0]]
        if not grow.any():
            break
        split[eid[0, grow]] = True

    cut = split[eid[0]]
    ref, at = np.unique(eid[0, cut], return_index=True)
    sid = ref[np.argsort(at)]
    ends = np.column_stack(np.divmod(keys[sid], nv))
    mids = 0.5 * (verts[ends[:, 0]] + verts[ends[:, 1]])
    radius = _arc_radius(surface.spec)
    if radius is not None:
        arc = (counts[sid] == 1) & _arc_chord(verts[ends[:, 0]], verts[ends[:, 1]],
                                               radius)
        if arc.any():
            x, y = mids[arc, 0], mids[arc, 1]
            r = np.frompyfunc(math.hypot, 2, 1)(x, y).astype(float)
            mids[arc] = np.column_stack([x * radius / r, y * radius / r])
    mids[np.abs(mids) < _SNAP] = 0.0
    mid = np.full(keys.size, -1, dtype=np.int64)
    mid[sid] = nv + np.arange(sid.size)
    new_verts = np.concatenate([verts, mids])
    f_new = _new_f(surface.spec, surface.f_nodal, new_verts, slice(nv, None), ends)

    v0, v1, v2 = rot[cut].T
    m0, m1, m2 = mid[eid[:, cut]]
    s1, s2 = split[eid[1, cut]], split[eid[2, cut]]

    def tri(a, b, c):
        return np.column_stack([a, b, c])

    kids = np.stack(
        [
            np.where(s2[:, None], tri(v2, m2, m0), tri(v0, m0, v2)),
            tri(m2, v0, m0),
            np.where(s1[:, None], tri(v1, m1, m0), tri(m0, v1, v2)),
            tri(m1, v2, m0),
        ]
    )
    used = np.stack([np.ones_like(s2), s2, np.ones_like(s1), s1])
    new_tris = np.concatenate([tris[~cut], kids[used]])
    return Surface(new_verts, new_tris, _extract_boundary(new_tris),
                   np.concatenate([surface.f_nodal, f_new]), surface.spec)


def _assert_same_mesh(a, b):
    for name in ("vertices", "triangles", "boundary_edges", "f_nodal"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


REFERENCE_SPECS = [
    DomainSpec("rectangle", (2.0, 1.0)),
    DomainSpec("rectangle", (1.0, 1.0), "0.3*x1 - x2**2"),
    DomainSpec("half_disk", (1.0,)),
    DomainSpec("half_disk", (1.0,), "0.2*x1*x2 + 0.1*x1**2"),
    DomainSpec("disk_sector", (1.0, 1.0)),
    DomainSpec("disk_sector", (1.0, 2.5), "0.5*x2"),
]
REFERENCE_IDS = ["rect21", "square_f_expr", "half_disk", "half_disk_f_expr",
                 "sector_1rad", "sector_f_expr"]


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=REFERENCE_IDS)
def test_refine_local_matches_whole_mesh_reference(rng, spec):
    s = build_domain(spec, 0.2)
    for density in (0.02, 0.3, 0.1, 0.05, 0.2, 0.01, 0.1, 0.15):
        marks = rng.random(s.num_triangles) < density
        marks[rng.integers(s.num_triangles)] = True
        out = refine_local(s, marks)
        _assert_same_mesh(out, _reference_refine_local(s, marks))
        _assert_record_fresh(out)
        s = out


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=REFERENCE_IDS)
def test_refine_local_long_closure_chains_match_reference(spec):
    # Marking only the triangle nearest one point grades the mesh steeply,
    # so each new mark's closure walks a long chain of reference edges.
    s = build_domain(spec, 0.25)
    point = np.array([0.7, 0.3]) if spec.kind == "rectangle" else np.array([0.3, 0.1])
    growth = []
    for _ in range(30):
        d = np.hypot(*(s.tri_coords().mean(axis=1) - point).T)
        marks = np.zeros(s.num_triangles, dtype=bool)
        marks[np.argmin(d)] = True
        out = refine_local(s, marks)
        _assert_same_mesh(out, _reference_refine_local(s, marks))
        _assert_record_fresh(out)
        growth.append(out.num_triangles - s.num_triangles)
        s = out
    # Each bisected triangle adds at least one: some closures cut 10+.
    assert max(growth) >= 10


def test_refine_local_takes_a_triangle_mask(half_disk):
    with pytest.raises(UsageError, match="bool mask"):
        refine_local(half_disk, np.array([0, 3]))
    with pytest.raises(UsageError, match="bool mask"):
        refine_local(half_disk, np.ones(half_disk.num_triangles - 1, bool))


def test_refine_local_no_marks_is_identity(half_disk):
    assert refine_local(half_disk, np.zeros(half_disk.num_triangles, bool)) is half_disk


@pytest.mark.parametrize(
    "spec, corner",
    [
        (DomainSpec("half_disk", (1.0,)), (0.0, 1.0)),
        (DomainSpec("disk_sector", (1.0, PI / 2)), (1.0, 0.0)),
        (DomainSpec("disk_sector", (1.0, 1.0)), (math.cos(1.0), math.sin(1.0))),
    ],
    ids=["half_disk", "quarter_disk", "sector_1rad"],
)
def test_adapt_at_straight_side_corner_terminates(spec, corner):
    # Short straight-side edges at a corner have both ends within the 1e-9
    # arc tolerance; they must not be reprojected onto the corner.
    s = adapt_for_point(build_domain(spec, 0.1), corner, inner_scale=1e-9,
                        outer_radius=0.5)
    s.validate()
    for c in spec.corners():
        d = np.hypot(s.vertices[:, 0] - c[0], s.vertices[:, 1] - c[1])
        assert np.count_nonzero(d <= 1e-12) == 1


# ---------------------------------------------------------------------------
# prolong
# ---------------------------------------------------------------------------

ARC_POINT = (math.cos(0.3), math.sin(0.3))


def _linear(p):
    return 0.3 + 0.7 * p[..., 0] - 0.4 * p[..., 1]


def _on_arc(s):
    return np.abs(np.hypot(*s.vertices.T) - 1.0) <= 1e-12


def test_prolong_applies_the_rule_that_resamples_f(half_disk, rng):
    # With no expression, refine_local gives a midpoint the mean of its
    # parents' f; prolong must give any field the same, bit for bit.
    coarse = Surface(half_disk.vertices, half_disk.triangles,
                     half_disk.boundary_edges,
                     rng.standard_normal(half_disk.num_vertices), half_disk.spec)
    fine = adapt_for_point(coarse, ARC_POINT, 1e-3, 0.3)
    assert fine.spec.f_expr is None and fine.num_vertices > coarse.num_vertices
    assert prolong(fine, coarse.f_nodal).tobytes() == fine.f_nodal.tobytes()


@pytest.mark.parametrize("spec, center", [
    (DomainSpec("rectangle", (1.0, 1.0)), (1.0, 0.5)),
    (DomainSpec("half_disk", (1.0,)), (0.4, 0.2)),
], ids=["rectangle", "half_disk_interior"])
def test_prolong_reproduces_linear_field(spec, center):
    # Off the arc a midpoint stays on its parent edge, so a linear field
    # stays linear.  Here no arc chord is split; past a reprojected arc
    # midpoint its descendants carry the chord value's offset instead.
    coarse = build_domain(spec, 0.1)
    fine = adapt_for_point(coarse, center, 1e-3, 0.3)
    new = np.arange(fine.num_vertices) >= coarse.num_vertices
    assert new.sum() > 1000 and not (new & _on_arc(fine)).any()
    u = prolong(fine, _linear(coarse.vertices))
    assert u[~new].tobytes() == _linear(coarse.vertices).tobytes()
    assert np.abs(u[new] - _linear(fine.vertices[new])).max() <= 1e-15


def test_prolong_gives_arc_midpoint_its_chord_value(half_disk):
    coarse = half_disk
    for _ in range(3):  # until a round splits arc chords
        fine = refine_local(coarse, np.ones(coarse.num_triangles, bool))
        arc = np.flatnonzero(_on_arc(fine))
        arc = arc[arc >= coarse.num_vertices]
        if arc.size:
            break
        coarse = fine
    assert arc.size > 10
    u = prolong(fine, _linear(coarse.vertices))
    # One round splits each chord once: the midpoint's two boundary
    # neighbours are the chord's ends.
    for m in arc:
        edges = fine.boundary_edges[(fine.boundary_edges == m).any(axis=1)]
        a, b = np.setdiff1d(edges, [m])
        assert max(a, b) < coarse.num_vertices
        chord = 0.5 * (fine.vertices[a] + fine.vertices[b])
        assert abs(u[m] - _linear(chord)) <= 1e-15
        assert abs(u[m] - _linear(fine.vertices[m])) > 1e-6


def test_prolong_is_identity_when_adaptation_keeps_the_mesh(half_disk, rng):
    s = adapt_for_point(half_disk, (1.0, 0.0), 1e-3, 0.3)
    assert adapt_for_point(s, (1.0, 0.0), 1e-3, 0.3) is s
    u = rng.standard_normal(s.num_vertices)
    assert prolong(s, u).tobytes() == u.tobytes()


def test_prolong_rejects_wrong_length_and_unrecorded_surface(half_disk):
    fine = adapt_for_point(half_disk, ARC_POINT, 1e-3, 0.3)
    for n in (half_disk.num_vertices - 1, fine.num_vertices):
        with pytest.raises(UsageError, match=f"{half_disk.num_vertices} vertices"):
            prolong(fine, np.zeros(n))
    with pytest.raises(UsageError, match="refine_local or adapt_for_point"):
        prolong(refine(half_disk), np.zeros(half_disk.num_vertices))


# ---------------------------------------------------------------------------
# Concentration-centre rule
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=REFERENCE_SPECS, ids=REFERENCE_IDS)
def template(request):
    return build_domain(request.param, 0.1)


def test_smooth_boundary_vertices_exclude_corners(template):
    corners = template.corner_vertex_indices()
    assert corners.size == len(template.spec.corners())
    want = np.setdiff1d(template.boundary_vertex_indices(), corners)
    assert np.array_equal(template.smooth_boundary_vertices(), want)


def test_require_smooth_boundary_vertex(template):
    n = template.num_vertices
    for vertex in (-1, n):
        with pytest.raises(UsageError, match="out of range"):
            template.require_smooth_boundary_vertex(vertex)
    interior = np.setdiff1d(np.arange(n), template.boundary_vertex_indices())
    with pytest.raises(PreconditionError, match="not on the boundary"):
        template.require_smooth_boundary_vertex(int(interior[0]))
    for corner in template.corner_vertex_indices():
        with pytest.raises(PreconditionError, match="domain corner"):
            template.require_smooth_boundary_vertex(int(corner))
    for vertex in template.smooth_boundary_vertices():
        template.require_smooth_boundary_vertex(int(vertex))


def test_distances_bit_equal_to_inline_form(template, rng):
    v = template.vertices
    for p in [*rng.uniform(-1.0, 2.0, size=(5, 2)), v[7], (0.3, -0.2)]:
        want = np.hypot(v[:, 0] - p[0], v[:, 1] - p[1])
        assert np.array_equal(template.distances(p), want)


def test_corner_free_radius_is_nearest_corner_distance(template):
    corners = template.spec.corners()
    for vertex in template.boundary_vertex_indices().tolist():
        x0 = template.vertices[vertex]
        want = np.min(np.hypot(corners[:, 0] - x0[0], corners[:, 1] - x0[1]))
        assert template.corner_free_radius(vertex) == float(want)
    for corner in template.corner_vertex_indices().tolist():
        assert template.corner_free_radius(corner) <= 1e-9
