"""Mesh construction, refinement, and metric area."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from tmlab.assembly import area
from tmlab.errors import PreconditionError, UsageError
from tmlab.surface import (
    DomainSpec,
    Surface,
    _extract_boundary,
    adapt_for_point,
    build_domain,
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
    assert back.to_dict() == d
    assert back.content_hash() == half_disk.content_hash()


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
        out.validate()
        _assert_marked_replaced(s, marks, out)
        assert np.array_equal(out.f_nodal, f(out.vertices[:, 0], out.vertices[:, 1]))
        # Rivara's bound for longest-edge bisection.
        assert _min_angle(out) >= 0.5 * angle0
        s = out


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
