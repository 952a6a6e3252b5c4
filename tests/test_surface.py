"""Meshes: construction, uniform and local refinement, adaptation toward a
point, metric area, serialization and validation.  Each optimized mesh
kernel is pinned, byte for byte, against one test-local reference."""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import tmlab
import tmlab.surface as surface_mod

from tmlab.assembly import area
from tmlab.errors import PreconditionError, UsageError
from tmlab.surface import (
    _SNAP,
    DomainSpec,
    Surface,
    _arc_chord,
    _arc_radius,
    _PROLONGATION,
    _Working,
    _boundary,
    _connected,
    _edge_keys,
    _measure,
    _neighbours,
    _new_f,
    _runs,
    _sorted_unique,
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
    for i in np.flatnonzero(s.boundary()[1] >= 0):
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


@pytest.mark.parametrize("key, old, new", [
    ("triangles", 1, True), ("triangles", 0, False), ("triangles", 1, np.True_),
    ("boundary_edges", 0, False), ("boundary_edges", 1, True),
])
def test_from_dict_rejects_bools_among_indices(unit_square, key, old, new):
    """numpy reads a list mixing bools with ints as int64, True as 1."""
    d = unit_square.to_dict()
    rows = d[key].tolist()
    row = next(r for r in rows if old in r)
    row[row.index(old)] = new
    assert np.array(rows).dtype == np.int64
    with pytest.raises(UsageError, match="malformed mesh dictionary"):
        Surface.from_dict({**d, key: rows})
    # The same integers, or an int64 array, load.
    for same in (d[key].tolist(), np.array(rows)):
        assert Surface.from_dict({**d, key: same}).content_hash() == \
            unit_square.content_hash()


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


def _edge_topology(tris, n):
    """The edge helper ``tmlab.surface`` had before ``_edge_keys``, kept as
    the reference the one edge sort is pinned to.  Returns ``(oriented,
    keys, inverse, counts)``: the (3nt, 2) oriented edges in blocks 01, 12,
    20 (triangle order within each block); the sorted unique undirected
    edge keys ``lo * n + hi``, where ``n`` exceeds every vertex index; the
    index into ``keys`` of each oriented edge; and the number of triangles
    sharing each unique edge."""
    oriented = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    lo = np.minimum(oriented[:, 0], oriented[:, 1])
    hi = np.maximum(oriented[:, 0], oriented[:, 1])
    keys, inverse, counts = np.unique(
        lo * n + hi, return_inverse=True, return_counts=True
    )
    return oriented, keys, inverse, counts


def _extract_boundary(tris):
    """The boundary ``tmlab.surface`` read off before ``_boundary``, kept as
    its reference: oriented boundary edges, those in exactly one triangle,
    sorted by (u, v)."""
    oriented, _, inverse, counts = _edge_topology(tris, int(tris.max()) + 1)
    out = oriented[counts[inverse] == 1]
    return out[np.lexsort((out[:, 1], out[:, 0]))]


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


def test_validate_rejects_fold():
    # Both triangles are CCW and lie on one side of edge 0-1, which both run
    # from 0 to 1; V - E + F = 1 and the boundary matches.
    verts = [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.4, 0.5)]
    s = _flat_surface(verts, [(0, 1, 2), (0, 1, 3)])
    with pytest.raises(PreconditionError, match="fold over a shared edge"):
        s.validate()


def test_validate_rejects_boundary_mismatch(unit_square):
    half = build_domain(DomainSpec("half_disk", (1.0,)), 0.2)
    b = half.boundary_edges
    assert len(b) == 30
    cases = [  # (surface, declared boundary, accepted?)
        (unit_square, unit_square.boundary_edges[1:], False),
        (unit_square, unit_square.boundary_edges + 1, False),
        (half, np.concatenate([b, b[7:8]]), False),
        (half, b[:, ::-1], False),
        (half, np.random.default_rng(5).permutation(b), True),
    ]
    for base, bedges, accepted in cases:
        s = Surface(base.vertices, base.triangles, bedges, base.f_nodal, base.spec)
        if accepted:
            s.validate()
            continue
        with pytest.raises(PreconditionError, match="boundary_edges do not match"):
            s.validate()


@pytest.mark.parametrize("key, shape", [
    ("vertices", (-1, 1)), ("triangles", (-1, 1)), ("triangles", (-1,)),
    ("boundary_edges", (-1, 1)), ("boundary_edges", (-1,)),
], ids=["vertex-column", "triangle-column", "flat-triangles", "edge-column",
        "flat-edges"])
def test_validate_rejects_arrays_of_wrong_shape(unit_square, key, shape):
    arrays = {k: v for k, v in unit_square.to_dict().items()
              if isinstance(v, np.ndarray)}
    s = Surface(**{**arrays, key: arrays[key].reshape(shape)},
                spec=unit_square.spec)
    with pytest.raises(PreconditionError, match=f"{key} must be an"):
        s.validate()


def test_validate_rejects_wrong_euler_characteristic():
    verts, tris = _square_annulus()
    annulus = _flat_surface(verts, tris)
    with pytest.raises(PreconditionError, match="Euler characteristic 0"):
        annulus.validate()
    # Only the disk count rejects it: its two boundary loops pass the pinch
    # check, and its triangles are one piece.
    starts = annulus.boundary_edges[:, 0]
    assert len(set(starts.tolist())) == len(starts) == 8
    keys, order = _edge_keys(annulus.triangles, len(verts))
    twin = keys[order][1:] == keys[order][:-1]
    assert _connected(order[:-1][twin] % 8, order[1:][twin] % 8, 8)


def _annulus_and_island():
    """The square annulus (χ = 0) and a separate triangle (χ = 1)."""
    verts, tris = _square_annulus()
    return verts + [(4.0, 0.0), (5.0, 0.0), (4.0, 1.0)], tris + [(8, 9, 10)]


def _bow_tie():
    """Two triangles that share only vertex 0: 5 − 6 + 2 = 1."""
    verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    return verts, [(0, 1, 2), (0, 3, 4)]


def test_validate_rejects_disconnected_triangles():
    s = _flat_surface(*_annulus_and_island())
    with pytest.raises(PreconditionError, match="not connected through shared edges"):
        s.validate()


def test_validate_rejects_pinched_vertex():
    s = _flat_surface(*_bow_tie())
    with pytest.raises(PreconditionError, match="pinched at a vertex"):
        s.validate()


def test_connected_matches_csgraph(rng):
    """``_connected`` against scipy's connected components, on random link
    sets from one piece to many, under random node numberings."""
    seen = set()
    for n, m in [(1, 0), (2, 1), (50, 30), (50, 49), (200, 400), (500, 2000)]:
        for _ in range(5):
            a, b = rng.integers(0, n, (2, m))
            if m == n - 1:  # a random tree, each node below a lower one
                child = np.arange(1, n)
                a, b = rng.permutation(n)[[child, rng.integers(0, child)]]
            g = sp.coo_matrix((np.ones(m), (a, b)), shape=(n, n))
            want = connected_components(g, directed=False)[0] == 1
            assert _connected(a, b, n) == want
            seen.add(want)
    assert seen == {True, False}


def test_validate_rejects_unreferenced_vertex():
    # Annulus (V - E + F = 0) plus one stray vertex restores the disk count.
    verts, tris = _square_annulus()
    s = _flat_surface(verts + [(5.0, 5.0)], tris)
    with pytest.raises(PreconditionError, match="unreferenced vertices"):
        s.validate()


@pytest.mark.parametrize("spec, diameter", [
    (DomainSpec("rectangle", (2.0, 1.0)), math.sqrt(5.0)),
    (DomainSpec("rectangle", (1.0, 1.0)), math.sqrt(2.0)),
    (DomainSpec("half_disk", (1.0,)), 2.0),
], ids=["rect21", "square", "half_disk"])
def test_convex_diameter_bound_brackets_the_diameter(spec, diameter):
    # 64 directions: the bound exceeds d by at most 1/cos(pi/128) - 1.
    s = adapt_for_point(build_domain(spec, 0.1), (1.0, 0.0), 1e-3, 0.3)
    assert diameter <= s.convex_diameter_bound() <= diameter / math.cos(math.pi / 128)


def test_convex_diameter_bound_rejects_a_hole():
    # The hole's boundary turns right at each of its corners.
    assert _flat_surface(*_square_annulus()).convex_diameter_bound() is None


_TEMPLATES = [  # (spec, smooth boundary point to adapt toward)
    (DomainSpec("rectangle", (2.0, 1.0)), (1.0, 0.0)),
    (DomainSpec("half_disk", (1.0,)), (1.0, 0.0)),
    (DomainSpec("disk_sector", (1.0, 2.0)), (math.cos(1.0), math.sin(1.0))),
]


def _template_meshes(f_expr=None):
    """``(name, surface)`` for the h = 0.2 mesh of each template, its
    uniform refinement and its adaptation toward a smooth boundary point."""
    for spec, center in _TEMPLATES:
        s = build_domain(DomainSpec(spec.kind, spec.params, f_expr), 0.2)
        yield spec.kind, s
        yield spec.kind + "_refined", refine(s)
        yield spec.kind + "_adapted", adapt_for_point(s, center, 1e-3, 0.3)


def test_extract_boundary_sorted_and_oriented():
    """On every template, built, refined and adapted, with and without a
    conformal factor: the mesh is valid, and its boundary rows are sorted
    and form closed CCW loops, whose shoelace areas sum to the mesh area."""
    for f_expr in (None, "0.2*x1*x2 + 0.1*x1**2"):
        for name, s in _template_meshes(f_expr):
            s.validate()
            b = s.boundary_edges
            assert [tuple(e) for e in b] == sorted(tuple(e) for e in b), name
            # Closed loops: each boundary vertex starts one edge and ends one.
            assert sorted(set(b[:, 0].tolist())) == sorted(b[:, 1].tolist()), name
            after = dict(b.tolist())
            areas, todo = [], set(after)
            while todo:
                loop = [todo.pop()]
                while after[loop[-1]] != loop[0]:
                    loop.append(after[loop[-1]])
                    todo.remove(loop[-1])
                p = s.vertices[loop]
                q = np.roll(p, -1, axis=0)
                areas.append(0.5 * np.sum(p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]))
            # Domain on the left: every loop encloses positive area.
            assert min(areas) > 0, name
            assert abs(sum(areas) - s.euclidean_tri_areas().sum()) <= 1e-12, name


# ---------------------------------------------------------------------------
# refine_local / adapt_for_point
# ---------------------------------------------------------------------------

def _json_digest(self):
    """The mesh digest that ``content_hash`` was before it hashed the
    arrays' bytes: sha256 of a JSON dump of the whole mesh.  The mesh
    goldens were recorded with it and keep their values through it."""
    payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"),
                         default=np.ndarray.tolist)
    return hashlib.sha256(payload.encode()).hexdigest()


# Digests of adapted meshes: _json_digest, recorded with the whole-array
# refine_local, then content_hash; any drift means the mesh or its
# numbering changed.
GOLDEN_ADAPT = {
    "rectangle": (
        DomainSpec("rectangle", (1.0, 1.0)),
        (1.0, 0.5),
        "763b685b79da15f60ff7c003a94e164f998ff5aee23739d18b8ab6d4a3c4a8fc",
        "22f7d5de1e48b1222a2988e8ae21c26025c1de7a427040b4a74e8b3102def888",
    ),
    "half_disk_arc": (
        DomainSpec("half_disk", (1.0,)),
        (math.cos(0.3), math.sin(0.3)),
        "f50b80dee2a3cc3f8ac70e05eec92b9eb042fce1dfeed0dd6ea8ca83c6ddc2fe",
        "9ad731f11e30c288ac7b749691e1f55a2e29142d0f9faef1941e9ff58861e09e",
    ),
    "f_expr": (
        DomainSpec("half_disk", (1.0,), "0.2*x1*x2 + 0.1*x1**2"),
        (0.6, 0.8),
        "840d2b5280482bd2ccfcaf09d805a18f43ff5f8d948b334da156d9f7ed532d42",
        "80c4eff0d4c144c05179df7c6b36b5949adf4547aef9d682aeb0a32f33608dda",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_ADAPT))
def test_adapt_for_point_golden_hash(case):
    spec, center, digest, content = GOLDEN_ADAPT[case]
    s = adapt_for_point(build_domain(spec, 0.1), center, 1e-3, 0.3)
    assert _json_digest(s) == digest
    assert s.content_hash() == content


def test_content_hash_equals_iff_json_digest_equals():
    """content_hash tells two meshes apart exactly when _json_digest does,
    so the goldens above mean the same under either."""
    spec = DomainSpec("half_disk", (1.0,), "0.2*x1*x2 + 0.1*x1**2")
    s = build_domain(spec, 0.2)
    d = s.to_dict()

    def variant(**changes):
        arrays = {k: d[k] for k in ("vertices", "triangles", "boundary_edges",
                                    "f_nodal")}
        return Surface(**{**arrays, "spec": spec, **changes})

    ulp, f_ulp = d["vertices"].copy(), d["f_nodal"].copy()
    ulp[5, 1] = np.nextafter(ulp[5, 1], np.inf)
    f_ulp[7] = np.nextafter(f_ulp[7], -np.inf)
    f_pos, f_neg = d["f_nodal"].copy(), d["f_nodal"].copy()
    f_pos[3], f_neg[3] = 0.0, -0.0
    rotated, swapped = d["triangles"].copy(), d["triangles"].copy()
    rotated[2] = np.roll(rotated[2], 1)
    swapped[[0, 1]] = swapped[[1, 0]]
    pairs = [  # (case, a, b, same mesh?)
        ("from_dict copy", s, Surface.from_dict(d), True),
        ("int32 triangles", s, variant(triangles=d["triangles"].astype(np.int32)),
         True),
        ("one-ulp vertex", s, variant(vertices=ulp), False),
        ("one-ulp f_nodal", s, variant(f_nodal=f_ulp), False),
        ("f_nodal +0.0 against -0.0", variant(f_nodal=f_pos),
         variant(f_nodal=f_neg), False),
        ("rotated triangle row", s, variant(triangles=rotated), False),
        ("swapped triangle rows", s, variant(triangles=swapped), False),
        ("index rows reshaped", s, variant(triangles=d["triangles"].reshape(-1, 1)),
         False),
        ("domain parameter", s, variant(spec=DomainSpec("half_disk", (2.0,),
                                                        spec.f_expr)), False),
        ("f_expr", s, variant(spec=DomainSpec("half_disk", (1.0,), "0.1*x1")),
         False),
    ]
    for case, a, b, same in pairs:
        assert (_json_digest(a) == _json_digest(b)) is same, case
        assert (a.content_hash() == b.content_hash()) is same, case


def test_adapted_surface_caches_only_its_prolongation(half_disk):
    """The cache rule: an adapted surface holds the parent map that
    ``prolong`` reads, and nothing else."""
    s = adapt_for_point(half_disk, (1.0, 0.0), 1e-3, 0.3)
    assert s is not half_disk and s.cache.keys() == {_PROLONGATION}
    # Already graded: no round runs and the input comes back with the
    # identity map added, every value it held kept.
    graded = Surface(s.vertices, s.triangles, s.boundary_edges, s.f_nodal, s.spec)
    area(graded)
    held = dict(graded.cache)
    assert held and _PROLONGATION not in held
    assert adapt_for_point(graded, (1.0, 0.0), 1e-3, 0.3) is graded
    assert graded.cache.keys() == held.keys() | {_PROLONGATION}
    assert all(graded.cache[k] is v for k, v in held.items())
    assert graded.cache[_PROLONGATION] == (graded.num_vertices, ())


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
    assert _json_digest(s) == (
        "27dbe3727a12df1c88c3ef124b648456d1c3c02249ac3f483ea072fdf3546adb"
    )
    assert s.content_hash() == (
        "32fd9442feb142c5a8091c236c7a6d0b45ce83b98649fd2c0097f4c596d438c6"
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
    x, y = s.vertices[s.boundary()[1] >= 0].T
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
    s = _refine_once(half_disk, marks)
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
        out = _refine_once(s, marks)
        _assert_marked_replaced(s, marks, out)
        assert np.array_equal(out.f_nodal, f(out.vertices[:, 0], out.vertices[:, 1]))
        # Rivara's bound for longest-edge bisection.
        assert _min_angle(out) >= 0.5 * angle0
        s = out


def _refine_once(surface, marks):
    """One ``refine_local`` round with the bool mask ``marks``: a
    ``_Working`` state of ``surface``, the round, then ``.surface()``.  The
    state's live slots must hold, byte for byte, the rotation, neighbours,
    centroid and longest edge that a whole-mesh ``_measure`` and
    ``_neighbours`` pass of the result gives; the boundary must be
    ``_extract_boundary``'s, and the result valid."""
    w = _Working(surface)
    refine_local(w, np.flatnonzero(marks))
    live = np.flatnonzero(~w.dead[: w.nt])
    row = np.full(w.nt + 1, -1, dtype=np.int64)  # row[-1]: no neighbour
    row[live] = np.arange(live.size)
    slots = (w.rot[live], row[w.nbr[live]].T, w.centroid[live], w.longest[live])
    out = w.surface()
    rot, centroid, longest = _measure(out.tri_coords(), out.triangles)
    whole = (rot, _neighbours(rot, out.num_vertices), centroid, longest)
    for name, x, y in zip(("rot", "nbr", "centroid", "longest"), slots, whole):
        _assert_bytes_equal(x, y, name)
    _assert_bytes_equal(out.boundary_edges, _extract_boundary(out.triangles),
                        "boundary")
    out.validate()
    return out


def _measure_reference(c, tris):
    """``_measure`` as written before it went column by column: a per-row
    lexsort, an axis mean and an axis max over the opposite edges."""
    nxt = np.roll(tris, -1, axis=1)
    d = c - c[:, [1, 2, 0]]
    sq = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    first = np.lexsort((np.maximum(tris, nxt), np.minimum(tris, nxt), sq))[:, -1]
    rot = np.take_along_axis(tris, (first[:, None] + np.arange(3)) % 3, axis=1)
    lengths = np.empty(c.shape[:2])
    for k in range(3):
        e = c[:, (k + 1) % 3] - c[:, (k + 2) % 3]
        lengths[:, k] = np.hypot(e[:, 0], e[:, 1])
    return rot, c.mean(axis=1), lengths.max(axis=1)


def _random_rows(rng, n, grid):
    """n rows of three distinct vertex indices and their coordinates; with
    ``grid`` the coordinates are small integers, so squared edge lengths tie
    often, and the longest edges too."""
    tris = np.argsort(rng.random((n, 40)), axis=1)[:, :3] + rng.integers(0, 50, (n, 1))
    if grid:
        return rng.integers(-2, 3, (n, 3, 2)).astype(float), tris
    return rng.standard_normal((n, 3, 2)) * 10.0 ** rng.uniform(-6, 2, (n, 1, 1)), tris


@pytest.mark.parametrize("case", ["random", "grid_ties", "rectangle", "half_disk"])
def test_measure_matches_lexsort_reference(rng, case):
    """The column-wise rotation, centroid and longest edge are byte for byte
    the per-row lexsort's and axis reductions'.  On the uniform rectangle the
    right isosceles triangles' legs tie, so the vertex pair decides."""
    if case in ("random", "grid_ties"):
        c, tris = _random_rows(rng, 5000, case == "grid_ties")
    else:
        spec = (DomainSpec("rectangle", (2.0, 1.0)) if case == "rectangle"
                else DomainSpec("half_disk", (1.0,)))
        s = refine(build_domain(spec, 0.1))
        c, tris = s.tri_coords(), s.triangles
    for got, want in zip(_measure(c, tris), _measure_reference(c, tris)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _assert_bytes_equal(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


@pytest.mark.parametrize("case", ["random", "rectangle", "half_disk", "disk_sector"])
def test_edge_sort_matches_unique_reference(rng, case):
    """The one edge sort gives, byte for byte, what ``_edge_topology``'s
    ``np.unique`` and ``_extract_boundary`` gave: ``refine``'s unique edges
    and inverse, the boundary of ``build_domain``, ``refine`` and
    ``adapt_for_point``, and ``validate``'s edge count."""
    if case == "random":
        tris = _random_rows(rng, 3000, False)[1]
        verts = rng.random((int(tris.max()) + 1, 2))
        meshes = []
    else:
        meshes = [s for name, s in _template_meshes() if name.startswith(case)]
        verts, tris = meshes[0].vertices, meshes[0].triangles
    nv, nt = len(verts), len(tris)
    got = _boundary(tris, _runs(*_edge_keys(tris, nv))[1])
    _assert_bytes_equal(got, _extract_boundary(tris), "boundary")

    # refine's unique edges and inverse, read off its output: under a flat
    # spec a midpoint's f is the mean of f over its edge, and the midpoint
    # of edge k of row t sits where the child rows put it.
    _, keys, inverse, _ = _edge_topology(tris, nv)
    uniq = np.column_stack(np.divmod(keys, nv))
    f = rng.random(nv)
    out = refine(Surface(verts, tris, np.empty((0, 2), np.int64), f,
                         DomainSpec("rectangle", (1.0, 1.0))))
    mid = np.concatenate([out.triangles[:nt, 1], out.triangles[nt : 2 * nt, 2],
                          out.triangles[:nt, 2]])
    _assert_bytes_equal(mid - nv, inverse, "inverse")
    _assert_bytes_equal(out.f_nodal[nv:], 0.5 * (f[uniq[:, 0]] + f[uniq[:, 1]]),
                        "unique edges")
    for m in [*meshes, out]:
        _assert_bytes_equal(m.boundary_edges, _extract_boundary(m.triangles),
                            "boundary")
    # validate's edge count, read off its Euler characteristic once holes
    # are punched in the mesh.
    for m in meshes:
        for k in (1, 2, 3):
            rows = np.delete(m.triangles, rng.choice(m.num_triangles, k), axis=0)
            edges = _edge_topology(rows, m.num_vertices)[1].size
            euler = m.num_vertices - edges + len(rows)
            holed = Surface(m.vertices, rows, _extract_boundary(rows), m.f_nodal, m.spec)
            if euler != 1:
                with pytest.raises(PreconditionError,
                                   match=f"Euler characteristic {euler}$"):
                    holed.validate()


def test_sorted_unique_is_np_unique(rng):
    for a in (np.empty(0, np.int64), np.array([-1, -1]), rng.integers(-1, 50, 300),
              rng.integers(-1, 10**6, 3000)):
        want = np.unique(a)
        got = _sorted_unique(a)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _reference_refine_local(surface, rot, marked):
    """Whole-mesh longest-edge bisection (Rivara, *Int. J. Numer. Methods
    Eng.* 20, 1984), as ``refine_local`` did it before the bisection record:
    an edge sort and a closure loop over every triangle each round.  The one
    reference for a round, which ``refine_local`` must match bit for bit.
    ``rot`` is ``_measure_reference``'s rotation of ``surface``'s rows.
    Returns the mesh and the parent edges of its midpoints, in their order."""
    nv, nt = surface.num_vertices, surface.num_triangles
    verts, tris = surface.vertices, surface.triangles
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
    f_new = _new_f(surface.spec, surface.f_nodal, mids, ends)

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
                   np.concatenate([surface.f_nodal, f_new]), surface.spec), ends


def _reference_adapt(surface, center, inner, outer, ratio=8.0):
    """``adapt_for_point`` as whole-mesh passes, one ``Surface`` per round:
    each round measures every row with ``_measure_reference``, marks by
    ``adapt_for_point``'s rule and runs ``_reference_refine_local``.
    Returns the mesh and each round's parent edges."""
    s, rounds = surface, []
    while True:
        rot, centroid, longest = _measure_reference(s.tri_coords(), s.triangles)
        d = np.hypot(centroid[:, 0] - center[0], centroid[:, 1] - center[1])
        target = np.maximum(inner, np.minimum(d, outer)) / ratio
        marks = (longest > target) & (d <= outer + longest)
        if not marks.any():
            return s, rounds
        s, ends = _reference_refine_local(s, rot, marks)
        rounds.append(ends)


def _assert_same_mesh(a, b):
    for name in ("vertices", "triangles", "boundary_edges", "f_nodal"):
        _assert_bytes_equal(getattr(a, name), getattr(b, name), name)


def _assert_adapts_as_reference(surface, *params):
    """``adapt_for_point`` gives, byte for byte, the mesh and the ``prolong``
    parents that ``_reference_adapt`` gives.  Returns the adapted mesh and
    its number of rounds."""
    got = adapt_for_point(surface, *params)
    want, rounds = _reference_adapt(surface, *params)
    _assert_same_mesh(got, want)
    nv, parents = got.cache[_PROLONGATION]
    assert nv == surface.num_vertices and len(parents) == len(rounds)
    for x, y in zip(parents, rounds):
        _assert_bytes_equal(x, y, "parents")
    return got, len(rounds)


def _round_as_reference(surface, marks):
    """``_refine_once``, checked byte for byte against
    ``_reference_refine_local``: the mesh and its parent edges."""
    out = _refine_once(surface, marks)
    rot = _measure_reference(surface.tri_coords(), surface.triangles)[0]
    want, ends = _reference_refine_local(surface, rot, marks)
    _assert_same_mesh(out, want)
    _assert_bytes_equal(out.cache[_PROLONGATION][1][0], ends, "parents")
    return out


@pytest.mark.parametrize("spec, params", [
    (DomainSpec("rectangle", (2.0, 1.0)), ((0.0, 0.45), 1e-7, 0.3)),
    (DomainSpec("rectangle", (2.0, 1.0)), ((1.3, 1.0), 1e-3, 0.5)),
    (DomainSpec("half_disk", (1.0,)), ((math.cos(0.3), math.sin(0.3)), 1e-6, 0.3)),
    (DomainSpec("half_disk", (1.0,)), ((0.0, -0.6), 1e-3, 0.4)),
    (DomainSpec("half_disk", (1.0,), "0.2*x1*x2 + 0.1*x1**2"), ((0.6, 0.8), 1e-5, 0.3)),
    (DomainSpec("half_disk", (1.0,), "0.2*x1*x2 + 0.1*x1**2"), ((0.4, 0.1), 1e-3, 0.2)),
], ids=["rect-side", "rect-top", "arc", "diameter", "f-arc", "f-inside"])
def test_adapt_marking_new_rows_matches_whole_mesh_marking(spec, params):
    """Marking only the rows the last round made gives the mesh, the rounds
    and their parent edges that marking every row each round gives."""
    assert _assert_adapts_as_reference(build_domain(spec, 0.1), *params)[1] > 3


def test_adapt_marks_every_row_in_its_first_round(rng, half_disk):
    """A surface made by a round has new rows at its end; adaptation still
    tests all its rows first, as marking every row each round does."""
    s = _refine_once(half_disk, rng.random(half_disk.num_triangles) < 0.2)
    for args in (((1.0, 0.0), 1e-4, 0.3), ((0.0, 0.2), 1e-3, 0.9)):
        _assert_adapts_as_reference(s, *args)


def test_adapt_tests_each_later_round_from_its_first_child(monkeypatch):
    """A later round tests the rows from the last round's first child on.
    Graded toward a corner of the two-triangle unit square, that first
    child is marked in several rounds, so a start one row later leaves it
    and gives another mesh."""
    rounds = []  # per round: (first child of the last round, first row marked)
    round_ = surface_mod.refine_local

    def spied(w, marked):
        rounds.append((w.first_new, int(marked[0])))
        round_(w, marked)

    monkeypatch.setattr(surface_mod, "refine_local", spied)
    base = build_domain(DomainSpec("rectangle", (1.0, 1.0)), 1.0)
    assert base.num_triangles == 2
    _assert_adapts_as_reference(base, (0.0, 0.0), 1e-2, 0.3, 2.0)
    assert sum(first == marked for first, marked in rounds[1:]) >= 3


# Grading an adapted mesh further against grading its base: (spec, centre,
# coarse and fine inner scale) on the h = 0.2 mesh, outer radius 0.3.
_FURTHER = {
    "rect-side": (DomainSpec("rectangle", (2.0, 1.0)), (0.0, 0.45), 1e-4, 1e-7),
    "rect-top": (DomainSpec("rectangle", (2.0, 1.0)), (1.3, 1.0), 1e-2, 1e-3),
    "arc": (DomainSpec("half_disk", (1.0,)), (math.cos(0.3), math.sin(0.3)),
            1e-2, 1e-3),
    "diameter": (DomainSpec("half_disk", (1.0,)), (0.0, -0.6), 1e-4, 1e-7),
    "sector-arc": (DomainSpec("disk_sector", (1.0, 2.0)),
                   (math.cos(1.0), math.sin(1.0)), 1e-4, 1e-7),
    "sector-side": (DomainSpec("disk_sector", (1.0, 2.0)), (0.5, 0.0), 3e-3, 2e-3),
    "f-arc": (DomainSpec("half_disk", (1.0,), "0.2*x1*x2 + 0.1*x1**2"), (0.6, 0.8),
              1e-4, 1e-7),
    "f-diameter": (DomainSpec("half_disk", (1.0,), "0.2*x1*x2 + 0.1*x1**2"),
                   (0.0, 0.3), 1e-2, 1e-3),
}
# Where the two meshes hold different triangles.  Grading the base marks
# rows near the centre that the coarse rule leaves while the coarse rounds
# still run elsewhere; the rounds then run in another order, and the
# marking rule reads each row's own centroid, so another order of cuts can
# end in another mesh.  Both meshes meet the grading contract.
_FURTHER_DIFFERS = {"f-diameter"}


@pytest.mark.parametrize("case", sorted(_FURTHER))
def test_grading_an_adapted_mesh_further(case):
    """``adapt_for_point`` on an adapted mesh, with the same centre, outer
    radius and ratio and a smaller inner scale: the mesh is valid and
    graded, its record starts from the adapted mesh, it holds the
    triangles grading the base gives, and when grading the base repeats
    the coarse rounds first it is that mesh byte for byte."""
    spec, centre, coarse_inner, inner = _FURTHER[case]
    base = build_domain(spec, 0.2)
    coarse = adapt_for_point(base, centre, coarse_inner, 0.3)
    fine = adapt_for_point(coarse, centre, inner, 0.3)
    want = adapt_for_point(base, centre, inner, 0.3)
    fine.validate()
    _assert_graded(fine, centre, inner, 0.3)
    assert fine.cache[_PROLONGATION][0] == coarse.num_vertices
    assert ((_geometry_digest(fine) == _geometry_digest(want))
            is (case not in _FURTHER_DIFFERS))
    done = coarse.cache[_PROLONGATION][1]
    first = want.cache[_PROLONGATION][1][: len(done)]
    if all(np.array_equal(a, b) for a, b in zip(done, first, strict=True)):
        assert fine.content_hash() == want.content_hash()


@pytest.mark.parametrize("spec, h, params, triangles", [
    (DomainSpec("rectangle", (2.0, 1.0)), 0.05,
     ((0.0, 0.45), 0.405 * math.sqrt(1e-14), 0.405), 21068),
    (DomainSpec("half_disk", (1.0,)), 0.04,
     ((math.cos(0.2), math.sin(0.2)), 1e-4, 0.5), 12994),
], ids=["adapt_ladder", "glued_bound"])
def test_adapt_working_state_matches_surface_per_round_chain(monkeypatch, spec, h,
                                                            params, triangles):
    """Rounds on one working state give, byte for byte, the mesh and the
    ``prolong`` record that the whole-mesh chain of one ``Surface`` per round
    gives, on meshes shaped like the two adapting benchmark workloads; the
    buffers grow several times on the way."""
    growths = []  # one entry per growth of the slot buffers

    def counted(a, n, need=0):
        if need and a.dtype == bool:
            growths.append(need)
        return grown(a, n, need)

    grown = surface_mod._grown
    monkeypatch.setattr(surface_mod, "_grown", counted)
    got, rounds = _assert_adapts_as_reference(build_domain(spec, h), *params)
    assert got.num_triangles == triangles and len(growths) >= 5 and rounds > 20


@pytest.mark.parametrize("kwargs", [
    dict(center=(math.nan, 0.0)),
    dict(center=(1.0, math.inf)),
    dict(inner_scale=math.nan),
    dict(inner_scale=0.0),
    dict(inner_scale=math.inf),
    dict(outer_radius=math.inf),
    dict(outer_radius=-0.3),
    dict(outer_radius=math.nan),
    dict(ratio=0.0),
    dict(ratio=-8.0),
    dict(ratio=math.nan),
], ids=["centre-nan", "centre-inf", "inner-nan", "inner-zero", "inner-inf",
        "outer-inf", "outer-negative", "outer-nan", "ratio-zero", "ratio-negative",
        "ratio-nan"])
def test_adapt_rejects_bad_centre_scales_and_ratio(half_disk, kwargs):
    """Before, a NaN centre or scale marked nothing and returned the input
    unadapted, and an infinite outer radius was taken as given."""
    args = {"center": (1.0, 0.0), "inner_scale": 1e-3, "outer_radius": 0.3, **kwargs}
    with pytest.raises(UsageError, match="adaptation"):
        adapt_for_point(half_disk, **args)


@pytest.mark.parametrize("made_by", ["build_domain", "refine_local"])
def test_adapt_round_limit_leaves_the_input_as_it_was(monkeypatch, half_disk, made_by):
    s = half_disk
    if made_by == "refine_local":
        s = _refine_once(half_disk, np.arange(half_disk.num_triangles) % 5 == 0)
    arrays = {k: v.copy() for k, v in s.to_dict().items() if isinstance(v, np.ndarray)}
    content, cache = s.content_hash(), dict(s.cache)
    monkeypatch.setattr(surface_mod, "ADAPT_MAX_ROUNDS", 2)
    with pytest.raises(PreconditionError, match="round limit"):
        adapt_for_point(s, (1.0, 0.0), 1e-6, 0.3)
    for name, a in arrays.items():
        assert getattr(s, name).tobytes() == a.tobytes(), name
    assert s.content_hash() == content
    assert s.cache.keys() == cache.keys()
    assert all(s.cache[k] is v for k, v in cache.items())


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
        s = _round_as_reference(s, marks)


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
        out = _round_as_reference(s, marks)
        growth.append(out.num_triangles - s.num_triangles)
        s = out
    # Each bisected triangle adds at least one: some closures cut 10+.
    assert max(growth) >= 10


def test_refine_local_no_marks_is_identity(half_disk):
    """A round with no marks leaves the mesh as it was, byte for byte, and
    records an empty round."""
    s = _refine_once(half_disk, np.zeros(half_disk.num_triangles, bool))
    _assert_same_mesh(s, half_disk)
    nv, (parents,) = s.cache[_PROLONGATION]
    assert nv == half_disk.num_vertices and parents.shape == (0, 2)


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
        fine = _refine_once(coarse, np.ones(coarse.num_triangles, bool))
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
    with pytest.raises(UsageError, match="made by adapt_for_point"):
        prolong(refine(half_disk), np.zeros(half_disk.num_vertices))


# ---------------------------------------------------------------------------
# Concentration-centre rule
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=REFERENCE_SPECS, ids=REFERENCE_IDS)
def template(request):
    return build_domain(request.param, 0.1)


def test_smooth_boundary_vertices_exclude_corners(template):
    _, after, corner = template.boundary()
    corners = np.flatnonzero(corner)
    assert corners.size == len(template.spec.corners())
    want = np.setdiff1d(np.unique(template.boundary_edges), corners)
    assert np.array_equal(np.flatnonzero((after >= 0) & ~corner), want)


def test_require_smooth_boundary_vertex(template):
    n = template.num_vertices
    for vertex in (-1, n):
        with pytest.raises(UsageError, match="out of range"):
            template.require_smooth_boundary_vertex(vertex)
    _, after, corner = template.boundary()
    interior = np.setdiff1d(np.arange(n), np.unique(template.boundary_edges))
    with pytest.raises(PreconditionError, match="not on the boundary"):
        template.require_smooth_boundary_vertex(int(interior[0]))
    for vertex in np.flatnonzero(corner):
        with pytest.raises(PreconditionError, match="domain corner"):
            template.require_smooth_boundary_vertex(int(vertex))
    for vertex in np.flatnonzero((after >= 0) & ~corner):
        template.require_smooth_boundary_vertex(int(vertex))


@pytest.mark.parametrize("vertex", [True, False, np.True_, 1.0, np.float64(1.0),
                                    "1", None, np.array([1])],
                         ids=["True", "False", "np.True_", "1.0", "np.float64",
                              "str", "None", "array"])
def test_require_smooth_boundary_vertex_rejects_non_integers(half_disk, vertex):
    with pytest.raises(UsageError, match="not an integer"):
        half_disk.require_smooth_boundary_vertex(vertex)


def test_require_smooth_boundary_vertex_takes_numpy_integers(half_disk):
    _, after, corner = half_disk.boundary()
    vertex = int(np.flatnonzero((after >= 0) & ~corner)[0])
    for kind in (np.int64, np.int32, np.uint16, int):
        half_disk.require_smooth_boundary_vertex(kind(vertex))


def test_distances_bit_equal_to_inline_form(template, rng):
    v = template.vertices
    for p in [*rng.uniform(-1.0, 2.0, size=(5, 2)), v[7], (0.3, -0.2)]:
        want = np.hypot(v[:, 0] - p[0], v[:, 1] - p[1])
        assert np.array_equal(template.distances(p), want)


def test_corner_free_radius_is_nearest_corner_distance(template):
    corners = template.spec.corners()
    _, after, corner = template.boundary()
    for vertex in np.flatnonzero(after >= 0).tolist():
        x0 = template.vertices[vertex]
        want = np.min(np.hypot(corners[:, 0] - x0[0], corners[:, 1] - x0[1]))
        assert template.corner_free_radius(vertex) == float(want)
    for vertex in np.flatnonzero(corner).tolist():
        assert template.corner_free_radius(vertex) <= 1e-9


# ---------------------------------------------------------------------------
# The boundary record
# ---------------------------------------------------------------------------


def _spec_angles(spec):
    """Interior angle of the domain at each of ``spec.corners()``."""
    if spec.kind == "rectangle":
        return [PI / 2] * 4
    if spec.kind == "half_disk":
        return [PI / 2] * 2
    return [spec.params[1], PI / 2, PI / 2]


def _record_mesh(name):
    half = DomainSpec("half_disk", (1.0,))
    if name in REFERENCE_IDS:
        return build_domain(REFERENCE_SPECS[REFERENCE_IDS.index(name)], 0.1)
    if name == "half_disk_refined":
        return refine(build_domain(half, 0.1))
    if name == "half_disk_adapted":
        return adapt_for_point(build_domain(half, 0.1), (1.0, 0.0), 1e-3, 0.3)
    if name == "sector_adapted_f":
        spec = DomainSpec("disk_sector", (1.0, 2.5), "0.5*x2")
        return adapt_for_point(build_domain(spec, 0.1), (0.0, 0.0), 1e-2, 0.3)
    verts, tris = _square_annulus()  # two loops: outer CCW, hole CW
    s = _flat_surface(verts, tris)
    return Surface(s.vertices, s.triangles, s.boundary_edges, s.f_nodal,
                   DomainSpec("rectangle", (3.0, 3.0)))


RECORD_MESHES = [*REFERENCE_IDS, "half_disk_refined", "half_disk_adapted",
                 "sector_adapted_f", "square_annulus"]


@pytest.fixture(scope="module", params=RECORD_MESHES)
def recorded(request):
    return _record_mesh(request.param)


def _loops(after):
    """The boundary's loops, each from its lowest vertex along ``after``."""
    seen, loops = set(), []
    for start in np.flatnonzero(after >= 0).tolist():
        if start not in seen:
            loop, v = [], start
            while v not in seen:
                seen.add(v)
                loop.append(v)
                v = int(after[v])
            assert v == start  # a loop closes where it began
            loops.append(loop)
    return loops


def _euler(s):
    """V − E + F: 1 on a disk, 0 on the annulus."""
    return s.num_vertices - (3 * s.num_triangles + len(s.boundary_edges)) // 2 \
        + s.num_triangles


def _turns(s, before, after, vs):
    p = s.vertices
    a, b = p[vs] - p[before[vs]], p[after[vs]] - p[vs]
    return np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0],
                      a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1])


def test_boundary_record_is_cached_and_per_vertex(recorded):
    record = recorded.boundary()
    assert recorded.boundary() is record and recorded.cache["boundary"] is record
    before, after, corner = record
    n = recorded.num_vertices
    assert before.shape == after.shape == corner.shape == (n,)
    assert before.dtype == after.dtype == np.int64 and corner.dtype == bool


def test_boundary_record_before_and_after_are_inverse_maps(recorded):
    before, after, _ = recorded.boundary()
    on = after >= 0
    assert np.array_equal(on, before >= 0)
    assert np.all(before[~on] == -1) and np.all(after[~on] == -1)
    v = np.flatnonzero(on)
    assert np.array_equal(before[after[v]], v)
    assert np.array_equal(after[before[v]], v)
    # The record's edges (v, after[v]) are the declared edges, once each.
    e = recorded.boundary_edges
    assert np.array_equal(np.column_stack([v, after[v]]),
                          e[np.lexsort(e.T[::-1])])


def test_boundary_record_visits_each_boundary_vertex_once(recorded):
    before, after, _ = recorded.boundary()
    loops = _loops(after)
    walked = [v for loop in loops for v in loop]
    assert len(walked) == len(set(walked))
    assert sorted(walked) == np.unique(recorded.boundary_edges).tolist()
    for loop in loops:  # walking back with before retraces the loop
        assert [int(before[v]) for v in loop] == loop[-1:] + loop[:-1]
    assert len(loops) == 2 - _euler(recorded)


def test_boundary_record_turning_angles_sum_to_2pi_on_disks(recorded):
    # In all 2π·χ: 2π on a disk; on the annulus the outer loop turns left
    # once and the hole's loop right once.
    before, after, _ = recorded.boundary()
    loops = _loops(after)
    sums = [float(_turns(recorded, before, after, np.array(loop)).sum())
            for loop in loops]
    assert sorted(sums) == pytest.approx([-2 * PI] * (len(loops) - 1) + [2 * PI],
                                         abs=1e-9)
    assert sum(sums) == pytest.approx(2 * PI * _euler(recorded), abs=1e-9)


def test_boundary_record_corners_are_the_spec_corners(recorded):
    before, after, corner = recorded.boundary()
    flagged = np.flatnonzero(corner)
    spec_corners = recorded.spec.corners()
    assert flagged.size == len(spec_corners)
    assert np.all(after[flagged] >= 0)
    p = recorded.vertices
    for c, angle in zip(spec_corners, _spec_angles(recorded.spec)):
        d = np.hypot(*(p - c).T)
        (at,) = np.flatnonzero(d <= 1e-9)
        assert corner[at]
        # π − turn is the polygon's interior angle; on a curved side the
        # chord leaves the tangent by half the arc it spans, O(h).
        interior = PI - float(_turns(recorded, before, after, np.array([at]))[0])
        h = max(np.hypot(*(p[at] - p[before[at]])),
                np.hypot(*(p[after[at]] - p[at])))
        assert abs(interior - angle) <= h


def test_require_smooth_boundary_vertex_agrees_with_the_record(recorded):
    _, after, corner = recorded.boundary()
    for v in range(recorded.num_vertices):
        if after[v] < 0:
            with pytest.raises(PreconditionError, match="not on the boundary"):
                recorded.require_smooth_boundary_vertex(v)
        elif corner[v]:
            with pytest.raises(PreconditionError, match="domain corner"):
                recorded.require_smooth_boundary_vertex(v)
        else:
            recorded.require_smooth_boundary_vertex(v)
