"""P1 operators: stiffness, mass, norms, means, projection."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from tmlab import assembly
from tmlab import quadrature as quad
from tmlab.errors import NumericalError, UsageError
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


@pytest.fixture(scope="module")
def ones_meshes():
    """Meshes of their own, so none holds an M before the test asks."""
    half = build_domain(DomainSpec("half_disk", (1.0,)), 0.1)
    return {
        "half_disk": half,
        "half_disk_f": build_domain(
            DomainSpec("half_disk", (1.0,), "0.3*x1 - 0.2*x2**2"), 0.1),
        "rect21": build_domain(DomainSpec("rectangle", (2.0, 1.0)), 0.1),
        "sector": build_domain(DomainSpec("disk_sector", (1.0, 2.5)), 0.1),
        "adapted": adapt_for_point(half, (math.cos(0.3), math.sin(0.3)), 1e-3, 0.3),
    }


@pytest.mark.parametrize("name", ["half_disk", "half_disk_f", "rect21", "sector", "adapted"])
def test_mass_row_of_ones_is_mass_times_ones(ones_meshes, name):
    """M·1 is the rule's load of 1, with no M assembled; the hat functions
    sum to 1, so it is M times ones up to rounding, and sums to the area."""
    s = ones_meshes[name]
    m1 = assembly.mass_row_of_ones(s)
    assert "mass" not in s.cache
    want = assembly.mass(s) @ np.ones(s.num_vertices)
    assert np.all(np.abs(m1 - want) <= 1e-15 * np.abs(want))
    assert abs(m1.sum() - assembly.area(s)) <= 1e-14 * assembly.area(s)


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


def test_admissible_is_mean_zero_unit_energy(half_disk, rng):
    u = rng.standard_normal(half_disk.num_vertices) + 3.0
    v, nrm = assembly.admissible(half_disk, u)
    assert nrm == assembly.dirichlet_norm(half_disk, u - assembly.mean(half_disk, u))
    assert abs(assembly.mean(half_disk, v)) <= 1e-14
    assert abs(assembly.dirichlet_norm(half_disk, v) - 1.0) <= 1e-14


DEGENERATE_MESHES = {
    "half_disk": (DomainSpec("half_disk", (1.0,)), 0.1),
    "half_disk_fine": (DomainSpec("half_disk", (1.0,)), 0.05),
    "rect21_f": (DomainSpec("rectangle", (2.0, 1.0), "0.1*x1*x2"), 0.05),
    "sector1": (DomainSpec("disk_sector", (1.0, 1.0)), 0.1),
}
# A constant projects to a constant, whose Dirichlet norm in rounding is
# about 1e-23, not 0, on most of these cases; the rule must not read the
# rounding.  The case "constant" is the h = 0.1 half-disk at 2.5.
DEGENERATE_CASES = [("half_disk", 2.5, "constant"), ("half_disk", math.nan, "nan")] + [
    (mesh, c, f"constant-{mesh}-{c:g}")
    for mesh in DEGENERATE_MESHES for c in (2.5, 3.7, -1.3, 1e3, 7.0, 0.3)
    if (mesh, c) != ("half_disk", 2.5)]


@pytest.fixture(scope="module")
def degenerate_meshes():
    return {name: build_domain(*args) for name, args in DEGENERATE_MESHES.items()}


@pytest.mark.parametrize("mesh, fill", [c[:2] for c in DEGENERATE_CASES],
                         ids=[c[2] for c in DEGENERATE_CASES])
def test_admissible_rejects_degenerate_vector(degenerate_meshes, mesh, fill):
    s = degenerate_meshes[mesh]
    u = np.full(s.num_vertices, fill)
    with pytest.raises(NumericalError, match="Dirichlet norm"):
        assembly.admissible(s, u)


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


def _contained(surface: Surface, points: np.ndarray) -> np.ndarray:
    """Whether any triangle contains each point, all barycentric
    coordinates at least -1e-10, by a test against every triangle."""
    c = surface.tri_coords()
    p0 = c[:, 0]
    d1 = c[:, 1] - p0
    d2 = c[:, 2] - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    out = np.empty(len(points), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # huge points
        for i, p in enumerate(points):
            rhs = p - p0
            b1 = (rhs[:, 0] * d2[:, 1] - rhs[:, 1] * d2[:, 0]) / det
            b2 = (d1[:, 0] * rhs[:, 1] - d1[:, 1] * rhs[:, 0]) / det
            out[i] = ((b1 >= -1e-10) & (b2 >= -1e-10) & (b1 + b2 <= 1 + 1e-10)).any()
    return out


@pytest.fixture(scope="module")
def located_meshes(half_disk, half_disk_refined, rect21):
    arc = (math.cos(0.3), math.sin(0.3))
    return {
        "half_disk": half_disk,
        "refined": half_disk_refined,
        "adapted": adapt_for_point(half_disk, arc, 1e-3, 0.3),
        "rect21": rect21,
        # Fewer triangles than the reference's 32 candidates.
        "coarse": build_domain(DomainSpec("half_disk", (1.0,)), 0.4),
    }


MESHES = ["half_disk", "refined", "adapted", "rect21", "coarse"]


def _probe_points(s, rng) -> np.ndarray:
    """Interior points, vertices, points on edges, and boundary probes.

    Boundary probes sit on boundary-edge midpoints pushed outward by 0,
    0.5%, 1%, 2%, 4%, 8%, 20% and 100% of the edge length; on the
    half-disk, points on the arc between vertices, beyond the chords; and
    points far outside the domain, some of them huge.
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
    far = np.concatenate([
        s.vertices.mean(axis=0) + np.array([[10.0, 0.0], [0.0, -7.5]]),
        [[1e300, 0.0], [0.5, -1e300], [-1e308, 1e308]],
    ])
    probes = [interior, vertices, on_edges, *pushed, far]
    if s.spec.kind == "half_disk":
        theta = rng.uniform(-0.5 * PI, 0.5 * PI, size=30)
        probes.append(np.column_stack([np.cos(theta), np.sin(theta)]))
    return np.concatenate(probes)


@pytest.mark.parametrize("name", MESHES)
def test_locate_matches_per_point_reference(located_meshes, name, rng):
    """evaluate places every contained point as the per-point reference
    does, to the byte, and reads NaN at every other point."""
    s = located_meshes[name]
    u = rng.standard_normal(s.num_vertices)
    pts = _probe_points(s, rng)
    inside = _contained(s, pts)
    assert inside.any() and not inside.all()
    got = assembly.evaluate(s, u, pts)
    assert got[inside].tobytes() == _evaluate_reference(s, u, pts[inside]).tobytes()
    assert np.isnan(got[~inside]).all()
    # A point's value does not depend on the others evaluated with it.
    for i in rng.choice(len(pts), size=8, replace=False):
        assert assembly.evaluate(s, u, pts[i:i + 1]).tobytes() == got[i:i + 1].tobytes()


@pytest.mark.parametrize("name", MESHES)
def test_scatter_matches_coo_reference(located_meshes, name, rng):
    s = located_meshes[name]
    g = _geometry_reference(s)[0]
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


def _element_matrices(monkeypatch, s, gq):
    """The (nt, 3, 3) arrays that K, M and the gq-weighted mass hand to
    ``_scatter``."""
    seen = []
    scatter = assembly._scatter

    def recording(surf, element):
        seen.append(element.copy())
        return scatter(surf, element)

    monkeypatch.setattr(assembly, "_scatter", recording)
    assembly.stiffness(s), assembly.mass(s), assembly.weighted_mass(s, gq)
    return seen


@pytest.mark.parametrize("name", MESHES)
def test_element_matrices_match_einsum(located_meshes, name, rng, monkeypatch):
    """K's and the mass matrices' element arrays are byte for byte the
    einsum's, signed zeros included: the rectangle's axis-parallel edges
    give gradient components of ±0.0, and the weights below hold ±0.0."""
    s = Surface.from_dict(located_meshes[name].to_dict())  # nothing cached
    gq = rng.standard_normal((s.num_triangles, 6))
    gq[rng.random(gq.shape) < 0.3] = 0.0
    gq[rng.random(gq.shape) < 0.3] = -0.0
    neg = np.arange(s.num_triangles) % 7 == 3
    gq[neg] = -0.0  # every term −0.0: einsum's sum from +0.0 reads +0.0
    g, w = _geometry_reference(s)[0], assembly.quad_weights(s)
    want = [np.einsum("t,tik,tjk->tij", s.euclidean_tri_areas(), g, g),
            np.einsum("tq,qi,qj->tij", w, quad.BARY, quad.BARY),
            np.einsum("tq,qi,qj->tij", w * gq, quad.BARY, quad.BARY)]
    got = _element_matrices(monkeypatch, s, gq)
    assert len(got) == 3
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    zeros = want[2][neg]
    assert zeros.size and (zeros == 0).all() and not np.signbit(zeros).any()
    assert (want[0] == 0).any() == (name == "rect21")


def _geometry_reference(s):
    """The (nt, 3, 2) hat-function gradients and the flat areas as written
    on corner gathers, one for each, with the division broadcast along the
    short axes."""
    c = s.tri_coords()
    d1 = c[:, 1] - c[:, 0]
    d2 = c[:, 2] - c[:, 0]
    areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    g = np.empty((s.num_triangles, 3, 2))
    for i in range(3):
        e = c[:, (i + 2) % 3] - c[:, (i + 1) % 3]
        g[:, i, 0] = -e[:, 1]
        g[:, i, 1] = e[:, 0]
    g /= (2.0 * areas)[:, None, None]
    return g, areas


@pytest.mark.parametrize("name", MESHES)
def test_geometry_matches_gather_reference(located_meshes, name):
    """The gradients and the areas are byte for byte those of the
    per-quantity gathers, signed zeros included: axis-parallel edges give
    gradient components of +0.0 and −0.0 on every mesh here.  K's element
    matrices are pinned by ``test_element_matrices_match_einsum``."""
    s = Surface.from_dict(located_meshes[name].to_dict())  # nothing cached
    g, areas = _geometry_reference(s)
    assert assembly._p1_geometry(s)[0].transpose(2, 1, 0).tobytes() == g.tobytes()
    assert s.euclidean_tri_areas().tobytes() == areas.tobytes()
    assert np.unique(np.signbit(g[g == 0])).size == 2


def _boxes_reference(c):
    """``_boxes`` as written with axis reductions of length 3 and 2."""
    pad = 4 * assembly.HIT_TOL * np.ptp(c, axis=1).max(axis=1, keepdims=True)
    return c.min(axis=1) - pad, c.max(axis=1) + pad


@pytest.mark.parametrize("name", [*MESHES, "random"])
def test_boxes_match_axis_reductions(located_meshes, name, rng):
    if name == "random":
        c = rng.standard_normal((4000, 3, 2)) * 10.0 ** rng.uniform(-8, 8, (4000, 1, 1))
        c[::7, 1] = c[::7, 0]  # ties between corners
    else:
        c = located_meshes[name].tri_coords()
    for got, want in zip(assembly._boxes(c), _boxes_reference(c)):
        assert got.tobytes() == want.tobytes()


def test_huge_and_non_finite_points(half_disk):
    u = half_disk.vertices[:, 0].copy()
    huge = np.array([[0.5, 0.0], [1e300, 0.0], [-1e308, 1e308]])
    got = assembly.evaluate(half_disk, u, huge)
    assert got[0] == 0.5 and np.isnan(got[1:]).all()
    for bad in (np.nan, np.inf, -np.inf):
        pts = np.array([[0.5, 0.0], [bad, 0.0], [0.0, np.nan]])
        with pytest.raises(UsageError, match=re.escape(f"{pts[1]} is not finite")):
            assembly.evaluate(half_disk, u, pts)
    with pytest.raises(UsageError, match="an \\(n, 2\\) array"):
        assembly.evaluate(half_disk, u, np.array([0.5, 0.0]))
    assert assembly.evaluate(half_disk, u, np.empty((0, 2))).shape == (0,)
