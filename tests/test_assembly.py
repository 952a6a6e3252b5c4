"""P1 operators: stiffness, mass, norms, means, projection."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from tmlab import assembly
from tmlab import quadrature as quad
from tmlab.errors import UsageError
from tmlab.surface import DomainSpec, Surface, adapt_for_point, build_domain

PI = math.pi


def _p1_l2_sq_oracle(surface, u):
    """Independent closed form: ∫ (P1 u)² over each flat triangle.

    For nodal values v1, v2, v3 on a triangle of area A,
    ∫ u² = (A/6)(v1² + v2² + v3² + v1·v2 + v1·v3 + v2·v3).
    Valid for f ≡ 0 only.
    """
    areas = surface.euclidean_tri_areas()
    v = u[surface.triangles]
    squares = (v**2).sum(axis=1)
    cross = v[:, 0] * v[:, 1] + v[:, 0] * v[:, 2] + v[:, 1] * v[:, 2]
    return float((areas / 6.0 * (squares + cross)).sum())


# ---------------------------------------------------------------------------
# stiffness
# ---------------------------------------------------------------------------


def test_stiffness_row_sums_vanish(half_disk):
    k = assembly.stiffness(half_disk)
    rows = np.asarray(k.sum(axis=1)).ravel()
    assert np.max(np.abs(rows)) <= 1e-12


def test_stiffness_ignores_conformal_factor():
    s0 = build_domain(DomainSpec("rectangle", (1.0, 1.0)), 0.25)
    s3 = build_domain(DomainSpec("rectangle", (1.0, 1.0), "3"), 0.25)
    k0 = assembly.stiffness(s0).toarray()
    k3 = assembly.stiffness(s3).toarray()
    assert np.array_equal(k0, k3)


def test_stiffness_exact_on_linear_interpolant(unit_square):
    u = unit_square.vertices[:, 0].copy()
    k = assembly.stiffness(unit_square)
    assert abs(u @ (k @ u) - 1.0) <= 1e-12


def test_stiffness_positive_semidefinite(unit_square, rng):
    k = assembly.stiffness(unit_square)
    for _ in range(100):
        v = rng.standard_normal(unit_square.num_vertices)
        assert v @ (k @ v) >= -1e-12 * (v @ v)


# ---------------------------------------------------------------------------
# mass
# ---------------------------------------------------------------------------


def test_mass_of_ones_is_area(unit_square, half_disk):
    for s in (unit_square, half_disk):
        m = assembly.mass(s)
        ones = np.ones(s.num_vertices)
        assert abs(ones @ (m @ ones) - assembly.area(s)) <= 1e-12


def test_mass_constant_field_unit_square(unit_square):
    m = assembly.mass(unit_square)
    ones = np.ones(unit_square.num_vertices)
    assert abs(ones @ (m @ ones) - 1.0) <= 1e-12


def test_mass_quadrature_of_linear_field(unit_square_fine):
    u = unit_square_fine.vertices[:, 0].copy()
    m = assembly.mass(unit_square_fine)
    assert abs(u @ (m @ u) - 1.0 / 3.0) <= 1e-4


def test_mass_positive_definite(half_disk, rng):
    m = assembly.mass(half_disk)
    for _ in range(100):
        v = rng.standard_normal(half_disk.num_vertices)
        if v @ v == 0:
            continue
        assert v @ (m @ v) > 0


# ---------------------------------------------------------------------------
# projection and means
# ---------------------------------------------------------------------------


def test_project_kills_constants(unit_square):
    c = 3.7 * np.ones(unit_square.num_vertices)
    p = assembly.mean_zero_project(unit_square, c)
    assert np.max(np.abs(p)) <= 1e-12


def test_project_idempotent(unit_square, rng):
    u = rng.standard_normal(unit_square.num_vertices)
    p1 = assembly.mean_zero_project(unit_square, u)
    p2 = assembly.mean_zero_project(unit_square, p1)
    assert np.max(np.abs(p2 - p1)) <= 1e-14


def test_project_linear_coordinate(unit_square):
    u = unit_square.vertices[:, 0].copy()
    p = assembly.mean_zero_project(unit_square, u)
    assert np.max(np.abs(p - (u - 0.5))) <= 1e-10


def test_project_output_mean_tiny(half_disk, rng):
    a = assembly.area(half_disk)
    for _ in range(5):
        u = rng.standard_normal(half_disk.num_vertices)
        p = assembly.mean_zero_project(half_disk, u)
        assert abs(assembly.mean(half_disk, p)) <= 1e-12 * a


def test_projection_is_linear(half_disk, rng):
    u = rng.standard_normal(half_disk.num_vertices)
    v = rng.standard_normal(half_disk.num_vertices)
    left = assembly.mean_zero_project(half_disk, 2.0 * u - 3.0 * v)
    right = 2.0 * assembly.mean_zero_project(half_disk, u) \
        - 3.0 * assembly.mean_zero_project(half_disk, v)
    assert np.max(np.abs(left - right)) <= 1e-12


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_zero_field_gives_zero_norms(unit_square):
    z = np.zeros(unit_square.num_vertices)
    assert assembly.dirichlet_norm(unit_square, z) == 0.0
    assert assembly.l2_norm(unit_square, z) == 0.0
    assert assembly.mean(unit_square, z) == 0.0


def test_dirichlet_norm_shift_invariant(half_disk, rng):
    u = rng.standard_normal(half_disk.num_vertices)
    shifted = u + 42.0
    assert abs(
        assembly.dirichlet_norm(half_disk, u)
        - assembly.dirichlet_norm(half_disk, shifted)
    ) <= 1e-10


def test_l2_norm_matches_independent_oracle(unit_square, rng):
    for _ in range(3):
        u = rng.standard_normal(unit_square.num_vertices)
        got = assembly.l2_norm(unit_square, u) ** 2
        want = _p1_l2_sq_oracle(unit_square, u)
        assert abs(got - want) <= 1e-10 * max(1.0, want)


# ---------------------------------------------------------------------------
# fixed CSR pattern and vectorized point location against the loop versions
# ---------------------------------------------------------------------------


def _scatter_reference(surface, element):
    """COO→CSR assembly, as :func:`assembly._scatter` was written before."""
    tris = surface.triangles
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    mat = sp.coo_matrix(
        (element.ravel(), (rows, cols)),
        shape=(surface.num_vertices, surface.num_vertices),
    )
    return mat.tocsr()


def _evaluate_reference(surface: Surface, u: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per-point loop, as :func:`assembly.evaluate` was written before."""
    from scipy.spatial import cKDTree

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 2:
        raise UsageError("points must be an (n, 2) array")

    key = "centroid_tree"
    if key not in surface.cache:
        surface.cache[key] = cKDTree(surface.tri_coords().mean(axis=1))
    tree = surface.cache[key]

    c = surface.tri_coords()
    uu = u[surface.triangles]  # (nt, 3)
    out = np.full(pts.shape[0], np.nan)
    tol = 1e-10

    k = min(32, surface.num_triangles)
    _, cand = tree.query(pts, k=k)
    cand = np.atleast_2d(cand)

    def bary(tids: np.ndarray, p: np.ndarray):
        p0 = c[tids, 0]
        d1 = c[tids, 1] - p0
        d2 = c[tids, 2] - p0
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        rhs = p - p0
        b1 = (rhs[:, 0] * d2[:, 1] - rhs[:, 1] * d2[:, 0]) / det
        b2 = (d1[:, 0] * rhs[:, 1] - d1[:, 1] * rhs[:, 0]) / det
        return b1, b2

    unresolved = []
    for i, p in enumerate(pts):
        tids = cand[i]
        b1, b2 = bary(tids, p[None, :])
        ok = (b1 >= -tol) & (b2 >= -tol) & (b1 + b2 <= 1 + tol)
        hits = np.flatnonzero(ok)
        if hits.size:
            j = tids[hits[0]]
            w1, w2 = float(b1[hits[0]]), float(b2[hits[0]])
            out[i] = (1 - w1 - w2) * uu[j, 0] + w1 * uu[j, 1] + w2 * uu[j, 2]
        else:
            unresolved.append(i)

    if unresolved:
        all_t = np.arange(surface.num_triangles)
        for i in unresolved:
            b1, b2 = bary(all_t, pts[i][None, :])
            ok = (b1 >= -tol) & (b2 >= -tol) & (b1 + b2 <= 1 + tol)
            hits = np.flatnonzero(ok)
            if not hits.size:
                miss = np.maximum(-b1, 0) + np.maximum(-b2, 0) + np.maximum(
                    b1 + b2 - 1, 0
                )
                j = int(np.argmin(miss))
                if miss[j] > 0.05:
                    raise UsageError(
                        f"evaluation point {pts[i]} lies outside the domain"
                    )
            else:
                j = int(hits[0])
            w1 = float(np.clip(b1[j], 0, 1))
            w2 = float(np.clip(b2[j], 0, 1))
            out[i] = (1 - w1 - w2) * uu[j, 0] + w1 * uu[j, 1] + w2 * uu[j, 2]
    return out if np.asarray(points).ndim == 2 else out[0]


def _reference_or_nan(surface, u, p) -> float:
    try:
        return float(_evaluate_reference(surface, u, p[None, :])[0])
    except UsageError:
        return float("nan")


@pytest.fixture(scope="module")
def located_meshes(half_disk, half_disk_refined, rect21):
    arc = (math.cos(0.3), math.sin(0.3))
    return {
        "half_disk": half_disk,
        "refined": half_disk_refined,
        "adapted": adapt_for_point(half_disk, arc, 1e-3, 0.3),
        "rect21": rect21,
        # Fewer triangles than locate's 32 candidates.
        "coarse": build_domain(DomainSpec("half_disk", (1.0,)), 0.4),
    }


MESHES = ["half_disk", "refined", "adapted", "rect21", "coarse"]


def _probe_points(s, rng) -> np.ndarray:
    """Interior points, vertices, points on edges, and boundary probes.

    Boundary probes sit on boundary-edge midpoints pushed outward by 0,
    0.5%, 1%, 2%, 4%, 8%, 20% and 100% of the edge length, so some fall on
    either side of the clamp collar; on the half-disk, points on the arc
    between vertices; and far outside the domain.
    """
    c = s.tri_coords()
    t = rng.integers(s.num_triangles, size=40)
    interior = np.einsum("ti,tij->tj", rng.dirichlet(np.ones(3), size=40), c[t])
    vertices = s.vertices[rng.choice(s.num_vertices, size=20, replace=False)]
    t = rng.integers(s.num_triangles, size=30)
    along = rng.uniform(size=(30, 1))
    on_edges = c[t, 0] + along * (c[t, 1] - c[t, 0])
    be = s.boundary_edges[rng.choice(len(s.boundary_edges), size=12,
                                     replace=False)]
    pu, pv = s.vertices[be[:, 0]], s.vertices[be[:, 1]]
    e = pv - pu
    outward = np.column_stack([e[:, 1], -e[:, 0]])
    mid = 0.5 * (pu + pv)
    pushed = [mid + f * outward
              for f in (0.0, 0.005, 0.01, 0.02, 0.04, 0.08, 0.2, 1.0)]
    far = s.vertices.mean(axis=0) + np.array([[10.0, 0.0], [0.0, -7.5]])
    probes = [interior, vertices, on_edges, *pushed, far]
    if s.spec.kind == "half_disk":
        theta = rng.uniform(-0.5 * PI, 0.5 * PI, size=30)
        probes.append(np.column_stack([np.cos(theta), np.sin(theta)]))
    return np.concatenate(probes)


@pytest.mark.parametrize("name", MESHES)
def test_locate_matches_per_point_reference(located_meshes, name, rng):
    s = located_meshes[name]
    u = rng.standard_normal(s.num_vertices)
    pts = _probe_points(s, rng)
    want = np.array([_reference_or_nan(s, u, p) for p in pts])
    loc = assembly.locate(s, pts)
    got = loc.values(s, u)
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(loc.outside, np.isnan(want))
    assert loc.outside.any() and not loc.outside.all()

    inside = pts[~loc.outside]
    assert (assembly.evaluate(s, u, inside).tobytes()
            == _evaluate_reference(s, u, inside).tobytes())
    assert assembly.evaluate(s, u, inside[3]) == _evaluate_reference(
        s, u, inside[3])


@pytest.mark.parametrize("name", MESHES)
def test_scatter_matches_coo_reference(located_meshes, name, rng):
    s = located_meshes[name]
    g = assembly.p1_gradients(s)
    gq = rng.standard_normal((s.num_triangles, 6))
    w = assembly.quad_weights(s)
    cases = [
        (assembly.stiffness(s),
         np.einsum("t,tik,tjk->tij", s.euclidean_tri_areas(), g, g)),
        (assembly.mass(s), np.einsum("tq,qi,qj->tij", w, quad.BARY, quad.BARY)),
        (assembly.weighted_mass(s, gq),
         np.einsum("tq,qi,qj->tij", w * gq, quad.BARY, quad.BARY)),
    ]
    for got, element in cases:
        want = _scatter_reference(s, element)
        for part in ("data", "indices", "indptr"):
            assert getattr(got, part).dtype == getattr(want, part).dtype
            assert (getattr(got, part).tobytes()
                    == getattr(want, part).tobytes()), part

    contrib = np.einsum("tq,qi->ti", w * gq, quad.BARY)
    want = np.zeros(s.num_vertices)
    np.add.at(want, s.triangles.ravel(), contrib.ravel())
    assert assembly.load(s, gq).tobytes() == want.tobytes()

    # interpolate sums in the order einsum did when the goldens were made.
    u = rng.standard_normal(s.num_vertices)
    for field in (u, s.f_nodal, 1e5 * u):
        want = np.einsum("ti,qi->tq", field[s.triangles], quad.BARY)
        assert assembly.interpolate(s, field).tobytes() == want.tobytes()


def test_point_on_arc_between_boundary_vertices_is_clamped(half_disk):
    pu, pv = (half_disk.vertices[half_disk.boundary_edges[:, i]]
              for i in (0, 1))
    on_arc = (np.abs(np.hypot(*pu.T) - 1.0) < 1e-12) & (
        np.abs(np.hypot(*pv.T) - 1.0) < 1e-12)
    i = int(np.flatnonzero(on_arc)[0])
    theta = 0.5 * (math.atan2(pu[i, 1], pu[i, 0]) + math.atan2(pv[i, 1], pv[i, 0]))
    point = np.array([math.cos(theta), math.sin(theta)])
    # The point is beyond the chord, so no triangle contains it.
    assert np.hypot(*(0.5 * (pu[i] + pv[i]))) < 1.0 - 1e-6
    loc = assembly.locate(half_disk, point[None, :])
    assert not loc.outside[0]
    value = assembly.evaluate(half_disk, half_disk.vertices[:, 0].copy(), point)
    assert math.isfinite(value)
    assert abs(value - point[0]) <= 0.05


def test_point_beyond_collar_is_named(half_disk):
    u = np.zeros(half_disk.num_vertices)
    pts = np.array([[0.5, 0.0], [1.2, 0.0], [1.5, 0.0]])
    with pytest.raises(UsageError, match=re.escape(str(pts[1]))):
        assembly.evaluate(half_disk, u, pts)


def test_reach_holds_every_hit_and_clamp():
    """A point whose computed misfit is within the collar is within reach."""
    rng = np.random.default_rng(20261018)
    plain = rng.standard_normal((300, 3, 2))
    # Slivers: the third vertex 1e-9 to 1e-2 off the line of the other two.
    a, b = rng.standard_normal((2, 300, 2))
    e = b - a
    off = rng.uniform(-0.5, 1.5, (300, 1)) * e + 10.0 ** rng.uniform(
        -9, -2, (300, 1)) * np.column_stack([-e[:, 1], e[:, 0]])
    coords = np.concatenate([plain, np.stack([a, b, a + off], axis=1)])
    centroid, reach = assembly._reach(coords)

    # Barycentric coordinates down to -0.06, with the extreme (1 + m, -m, 0)
    # cases of misfit m = CLAMP_COLLAR, and points anywhere near the triangle.
    nt = coords.shape[0]
    s = rng.uniform(0, 0.06, (nt, 60, 1))
    lam = (1 + 3 * s) * rng.dirichlet(np.ones(3), (nt, 60)) - s
    m = assembly.CLAMP_COLLAR
    edge = np.array([[1 + m, -m, 0], [1 + m, 0, -m], [-m, 1 + m, 0],
                     [0, 1 + m, -m], [-m, 0, 1 + m], [0, -m, 1 + m]])
    lam = np.concatenate([lam, np.broadcast_to(edge, (nt, 6, 3))], axis=1)
    pts = np.einsum("tki,tij->tkj", lam, coords)
    radius = reach / assembly._REACH
    box = centroid[:, None] + 3 * radius[:, None, None] * rng.uniform(
        -1, 1, (nt, 60, 2))
    pts = np.concatenate([pts, box], axis=1)

    p0 = coords[:, None, 0]
    d1 = coords[:, None, 1] - p0
    d2 = coords[:, None, 2] - p0
    det = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    b1, b2 = assembly._barycentric(p0, d1, d2, det, pts)
    close = assembly._misfit(b1, b2) <= assembly.CLAMP_COLLAR
    dist = np.hypot(*(pts - centroid[:, None]).transpose(2, 0, 1))
    ratio = dist / reach[:, None]
    assert close.sum() > nt * 60
    assert ratio[close].max() <= 1.0
    assert ratio[close].max() > 0.9  # the bound is nearly reached
    assert (~close & (ratio <= 1.0)).any()  # and it is not the collar itself


def test_huge_and_non_finite_points(half_disk):
    u = np.zeros(half_disk.num_vertices)
    huge = np.array([[0.5, 0.0], [1e300, 0.0], [-1e308, 1e308]])
    loc = assembly.locate(half_disk, huge)
    assert loc.outside.tolist() == [False, True, True]
    with pytest.raises(UsageError, match=re.escape(str(huge[1]))):
        assembly.evaluate(half_disk, u, huge)
    for bad in (np.nan, np.inf, -np.inf):
        pts = np.array([[0.5, 0.0], [bad, 0.0], [0.0, np.nan]])
        with pytest.raises(UsageError, match=re.escape(f"{pts[1]} is not finite")):
            assembly.locate(half_disk, pts)
