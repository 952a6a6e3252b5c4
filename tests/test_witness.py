"""Explicit concentration families: caps, glued states, bubble identities."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.integrate

from tmlab import assembly, green, quadrature, spectrum, witness
from tmlab.errors import NumericalError, PreconditionError, UsageError
from tmlab.surface import _PROLONGATION, DomainSpec, adapt_for_point, build_domain

PI = math.pi
TWO_PI = 2.0 * PI


# ---------------------------------------------------------------------------
# bubble closed forms
# ---------------------------------------------------------------------------


def test_bubble_values():
    assert witness.bubble_phi(0.0) == 0.0
    want = -math.log(1.0 + PI / 2.0) / TWO_PI
    assert abs(witness.bubble_phi(1.0) - want) <= 1e-15


def test_bubble_mass_closed_forms():
    assert witness.bubble_mass(0.0) == 0.0
    assert abs(witness.bubble_mass(math.sqrt(18.0 / PI)) - 0.9) <= 1e-15
    want = 1.0 - 1.0 / (1.0 + 200.0 * PI)
    assert abs(witness.bubble_mass(20.0) - want) <= 1e-15


def test_bubble_mass_matches_numeric_quadrature():
    # Independent check: integrate the density over the half-plane ball.
    def density(rho):
        return PI * rho * math.exp(4.0 * PI * witness.bubble_phi(rho))

    got, err = scipy.integrate.quad(density, 0.0, 20.0, limit=200)
    assert err < 1e-9
    assert abs(got - witness.bubble_mass(20.0)) <= 1e-6


def test_bubble_solves_its_equation():
    res = witness.bubble_pde_residual(h=1e-3, n=101, extent=5.0)
    assert res <= 1e-4


# ---------------------------------------------------------------------------
# rate bookkeeping
# ---------------------------------------------------------------------------


RUNG_CALLS = {
    "ladder_states": lambda s, v, q: witness.ladder_states(
        s, v, [1e-2, 1e-4], q=q, need_eigen_branch=True, adapt=False),
    "moser_sequence": lambda s, v, q: witness.moser_sequence(
        s, spectrum.lambda1(s), v, 1e-4, q=q),
}


# t²L = L^{1−2q} → ∞ needs q < 1/2 and t²√L = L^{1/2−2q} → 0 needs q > 1/4.
@pytest.mark.parametrize("call", sorted(RUNG_CALLS))
@pytest.mark.parametrize("q", [0.2, 0.25, 0.5])
def test_rung_rejects_q_outside_side_conditions(half_disk, call, q):
    vtx = witness.smooth_boundary_vertex(half_disk, (1.0, 0.0))
    with pytest.raises(UsageError, match=r"q must lie in \(1/4, 1/2\)"):
        RUNG_CALLS[call](half_disk, vtx, q)


@pytest.mark.parametrize("call", sorted(RUNG_CALLS))
@pytest.mark.parametrize("q", [0.26, 0.28, 0.375, 0.49])
def test_rung_accepts_q_inside_side_conditions(half_disk, call, q):
    vtx = witness.smooth_boundary_vertex(half_disk, (1.0, 0.0))
    RUNG_CALLS[call](half_disk, vtx, q)


@pytest.mark.parametrize("eps, q", [(1e-4, 0.3), (1e-2, 0.28), (1e-9, 0.45)])
def test_moser_sequence_coupled_radius(half_disk, eps, q):
    vtx = witness.smooth_boundary_vertex(half_disk, (1.0, 0.0))
    state = witness.moser_sequence(half_disk, spectrum.lambda1(half_disk),
                                   vtx, eps, q=q)
    big_l = -math.log(eps)
    assert abs(state.t - big_l ** (-q)) <= 1e-15
    # (1, 0) is √2 from the corners (0, ±1): the coupled radius fits.
    assert state.delta < witness.default_delta(half_disk, vtx)
    assert abs(state.delta * state.t * math.sqrt(big_l) - 1.0) <= 1e-15


def test_moser_sequence_clips_the_coupled_radius(half_disk):
    vtx = witness.smooth_boundary_vertex(half_disk, (0.0, 0.9))
    state = witness.moser_sequence(half_disk, spectrum.lambda1(half_disk),
                                   vtx, 1e-4, q=0.28)
    assert state.delta == witness.default_delta(half_disk, vtx)
    assert state.delta * state.t * math.sqrt(-math.log(1e-4)) < 1.0


def _quadrature_point_centroid(s):
    pts = np.einsum("qi,tik->tqk", quadrature.BARY, s.tri_coords())
    w = assembly.quad_weights(s)
    return np.array([np.sum(w * pts[:, :, k]) for k in (0, 1)]) / np.sum(w)


@pytest.mark.parametrize("adapted", [False, True], ids=["built", "adapted"])
def test_metric_centroid_matches_quadrature_points(adapted):
    s = build_domain(DomainSpec("half_disk", (1.0,), "0.2*x1*x2 + 0.1*x1**2"),
                     0.1)
    if adapted:
        s = adapt_for_point(s, (1.0, 0.0), inner_scale=1e-3, outer_radius=0.5)
    got, want = witness._metric_centroid(s), _quadrature_point_centroid(s)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


# ---------------------------------------------------------------------------
# cap states
# ---------------------------------------------------------------------------


def test_moser_sequence_is_exactly_admissible(half_disk):
    pair = spectrum.first_eigenpair(half_disk, tol=1e-8)
    vtx = witness.smooth_boundary_vertex(half_disk, (1.0, 0.0))
    state = witness.moser_sequence(half_disk, pair, vtx, eps=1e-3)
    v = state.v
    a = assembly.area(half_disk)
    assert abs(assembly.mean(half_disk, v)) <= 1e-12 * a
    assert abs(assembly.dirichlet_norm(half_disk, v) - 1.0) <= 1e-12
    assert state.eps == 1e-3
    assert state.t > 0
    assert state.delta * math.sqrt(state.eps) < state.delta


def test_cap_peak_grows_as_scale_shrinks(half_disk):
    vtx = witness.smooth_boundary_vertex(half_disk, (1.0, 0.0))
    delta = witness.default_delta(half_disk, vtx)
    peaks = [
        witness.cap_state(half_disk, vtx, eps, delta).peak
        for eps in (1e-2, 1e-3, 1e-4)
    ]
    assert peaks[0] < peaks[1] < peaks[2]


def test_cap_state_keeps_no_quadrature_points():
    s = build_domain(DomainSpec("half_disk", (1.0,)), 0.1)
    vtx = witness.smooth_boundary_vertex(s, (1.0, 0.0))
    witness.cap_state(s, vtx, 1e-3, witness.default_delta(s, vtx))
    assert "quad_points" not in s.cache
    assert "quad_weights" in s.cache


def test_cap_rejects_corner_center(half_disk):
    corner = int(np.flatnonzero(half_disk.boundary()[2])[0])
    with pytest.raises(PreconditionError):
        witness.cap_state(half_disk, corner, 1e-3, 0.1)


# Vertex 55 of the h = 0.1 half-disk is interior, at (0.5, 0).
@pytest.mark.parametrize("vertex, error, named", [
    (55, PreconditionError, "not on the boundary"),
    (True, UsageError, "not an integer"),
], ids=["interior", "bool"])
@pytest.mark.parametrize("t", [0.0, 0.5])
def test_cap_rejects_centre_off_smooth_boundary_before_assembly(
        half_disk, monkeypatch, vertex, error, named, t):
    assert half_disk.boundary()[1][55] < 0

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled around a rejected centre")

    for module, name in ((assembly, "mass_row_of_ones"), (assembly, "admissible"),
                         (assembly, "area"), (spectrum, "lambda1")):
        monkeypatch.setattr(module, name, no_assembly)
    with pytest.raises(error, match=named):
        witness.cap_state(half_disk, vertex, 1e-3, 0.1, t=t)


CENTRE_CALLS = {
    "ladder_adapt": lambda s, v: witness.ladder_states(s, v, [1e-2, 1e-3]),
    "ladder_fixed": lambda s, v: witness.ladder_states(s, v, [1e-2, 1e-3],
                                                       adapt=False),
    "glued_state": lambda s, v: witness.glued_state(s, v, 1e-4),
    "lower_bound_check": lambda s, v: witness.lower_bound_check(s, v, 1e-4),
    "moser_sequence": lambda s, v: witness.moser_sequence(
        s, spectrum.lambda1(s), v, 1e-3),
    "green_function": lambda s, v: green.green_function(s, v),
}


@pytest.mark.parametrize("call", sorted(CENTRE_CALLS))
@pytest.mark.parametrize("where", ["interior", "corner"])
def test_centre_off_smooth_boundary_rejected_before_adapting(
        half_disk, monkeypatch, call, where):
    def no_adapt(*args, **kwargs):
        raise AssertionError("adapted around a rejected centre")

    monkeypatch.setattr(witness, "adapt_for_point", no_adapt)
    if where == "corner":
        vertex = int(np.flatnonzero(half_disk.boundary()[2])[0])
    else:
        vertex = int(np.flatnonzero(half_disk.boundary()[1] < 0)[0])
    with pytest.raises(PreconditionError):
        CENTRE_CALLS[call](half_disk, vertex)


def test_ladder_requires_decreasing_eps(half_disk):
    vtx = witness.smooth_boundary_vertex(half_disk, (1.0, 0.0))
    for ladder in ([1e-4, 1e-2], [1e-2, 1e-2]):
        with pytest.raises(UsageError, match="strictly decreasing"):
            witness.ladder_states(half_disk, vtx, ladder, adapt=False)


def _rungs_graded_from_base(s, vertex, eps_list, q=0.28):
    """content_hash of each rung's mesh as grading ``s`` itself gives it."""
    x0 = s.vertices[vertex]
    hashes = []
    for eps in eps_list:
        delta = witness._rung(s, vertex, eps, q)[1]
        hashes.append(adapt_for_point(s, x0, delta * math.sqrt(eps),
                                      delta).content_hash())
    return hashes


def _adapt_ladder_case(centre_y):
    # The benchmark's adapt_ladder op: acceptance 5 cut to its first two
    # rungs; centre y = 0.5 is acceptance 5's own.
    s = build_domain(DomainSpec("rectangle", (2.0, 1.0)), 0.05)
    return s, witness.smooth_boundary_vertex(s, (0.0, centre_y)), (1e-9, 1e-14)


@pytest.mark.parametrize("case", [0.40, 0.45, 0.50, 0.55, 0.60, "sweep_golden"])
def test_continued_rungs_match_rungs_graded_from_the_base(case):
    """A rung with the previous rung's δ grades that rung's mesh further,
    and gets the mesh grading the base gives, byte for byte.  Cases: the
    five adapt_ladder centres, and the ladder of the `sweep` golden
    (r.json and its default centre)."""
    if case == "sweep_golden":
        s = build_domain(DomainSpec("rectangle", (2.0, 1.0)), 0.2)
        vertex, eps_list = witness.peak_boundary_vertex(s), (1e-2, 1e-3)
    else:
        s, vertex, eps_list = _adapt_ladder_case(case)
    rungs = witness.ladder_states(s, vertex, eps_list)
    assert rungs[0].state_plain.delta == rungs[1].state_plain.delta
    assert rungs[1].surface.cache[_PROLONGATION][0] == rungs[0].surface.num_vertices
    assert ([r.surface.content_hash() for r in rungs]
            == _rungs_graded_from_base(s, vertex, eps_list))


def test_only_rungs_with_the_previous_delta_continue(monkeypatch):
    """Acceptance 5's ladder: rungs 1 and 2 share δ = 0.45, rungs 3 and 4
    have their own, so only rung 2 is graded from a rung's mesh."""
    s, vertex, _ = _adapt_ladder_case(0.5)
    adapt, inputs = witness.adapt_for_point, []

    def spied(surface, *args, **kwargs):
        inputs.append(surface)
        return adapt(surface, *args, **kwargs)

    monkeypatch.setattr(witness, "adapt_for_point", spied)
    rungs = witness.ladder_states(s, vertex, (1e-9, 1e-14, 1e-19, 1e-24))
    deltas = [r.state_plain.delta for r in rungs]
    assert deltas[:2] == [0.45, 0.45]
    assert [round(d, 4) for d in deltas[2:]] == [0.4355, 0.4137]
    assert len(inputs) == 4
    assert inputs[0] is s and inputs[1] is rungs[0].surface
    assert inputs[2] is s and inputs[3] is s


# ---------------------------------------------------------------------------
# divergence witness
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_matrix(rect21):
    lam1 = spectrum.first_eigenpair(rect21, tol=1e-8).value
    return witness.divergence_matrix(
        rect21, [0.0, 1.2 * lam1], [1e-2, 1e-3], adapt=False
    ), lam1


def test_matrix_shape_and_branch_selection(small_matrix):
    data, lam1 = small_matrix
    assert data["lambda1"] == pytest.approx(lam1)
    assert len(data["values"]) == 2
    assert len(data["values"][0]) == 2
    assert data["eigen_branch"] == [False, True]
    # The reinforced branch must carry a positive amplitude.
    assert all(t > 0 for t in data["ts"][1])
    assert all(t == 0 for t in data["ts"][0])


def test_supercritical_dominates_subcritical(small_matrix):
    data, _ = small_matrix
    sub, sup = data["values"]
    assert all(s > b for s, b in zip(sup, sub))


# ---------------------------------------------------------------------------
# glued states
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def glued(half_disk):
    vtx = witness.smooth_boundary_vertex(half_disk, (1.0, 0.0))
    return witness.glued_state(half_disk, vtx, eps=1e-4, alpha=0.0)


def test_glued_admissible_and_prenormalized(glued):
    s = glued.surface
    a = assembly.area(s)
    assert abs(assembly.mean(s, glued.v)) <= 1e-12 * a
    assert abs(assembly.dirichlet_norm(s, glued.v) - 1.0) <= 1e-12
    assert 0.9 <= glued.prenorm <= 1.1


def test_glued_matching_constant_identity(glued):
    # The continuity constant satisfies
    # b − 1/(2π) = (1/2π)·log(1 + 2/(πR²)) with R = −log ε exactly.
    big_r = glued.big_r
    want = 1.0 / TWO_PI + math.log(1.0 + 2.0 / (PI * big_r**2)) / TWO_PI
    assert abs(glued.b - want) <= 1e-12
    assert abs(glued.b - 1.0 / TWO_PI) <= 0.05


def test_glued_bound_formula(glued):
    a = assembly.area(glued.surface)
    want = a + (PI / 2.0) * math.exp(1.0 + TWO_PI * glued.a_const)
    assert abs(glued.bound - want) <= 1e-12 * want


def test_lower_bound_check_passes(half_disk):
    vtx = witness.smooth_boundary_vertex(half_disk, (1.0, 0.0))
    out = witness.lower_bound_check(half_disk, vtx, eps=1e-4, alpha=0.0)
    assert out["passed"]
    assert out["margin"] > 0
    assert out["value"] > out["bound"]


def test_lower_bound_check_adapts_once_across_alpha(monkeypatch):
    def fresh():
        return build_domain(DomainSpec("half_disk", (1.0,)), 0.1)

    s = fresh()
    vtx = witness.smooth_boundary_vertex(s, (1.0, 0.0))
    alphas = (0.0, 0.05 * spectrum.lambda1(s).value)
    want = [witness.lower_bound_check(fresh(), vtx, 1e-4, alpha=a)
            for a in alphas]
    adapt = witness.adapt_for_point
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return adapt(*args, **kwargs)

    monkeypatch.setattr(witness, "adapt_for_point", counted)
    got = [witness.lower_bound_check(s, vtx, 1e-4, alpha=a) for a in alphas]
    assert len(calls) == 1
    for g, w in zip(got, want):
        for key in ("value", "bound", "margin", "A", "b", "c_sq"):
            assert g[key] == w[key], key
        assert (g["state"].surface.content_hash()
                == w["state"].surface.content_hash())


def test_lower_bound_alpha_cap(half_disk):
    lam1 = spectrum.first_eigenpair(half_disk, tol=1e-8).value
    vtx = witness.smooth_boundary_vertex(half_disk, (1.0, 0.0))
    with pytest.raises(PreconditionError):
        witness.lower_bound_check(half_disk, vtx, eps=1e-4, alpha=0.5 * lam1)


# ---------------------------------------------------------------------------
# profile comparison helpers
# ---------------------------------------------------------------------------


def test_unit_radius_gap_of_synthetic_profile():
    class FakeDiag:
        rho = np.linspace(0.0, 1.0, 5)
        phi = np.tile(witness.bubble_phi(rho), (3, 1))

    assert witness.unit_radius_gap(FakeDiag()) <= 1e-15


# ---------------------------------------------------------------------------
# concentration study
# ---------------------------------------------------------------------------


def test_concentration_study_rejects_unconverged_rung(half_disk):
    # Near θ = −0.2 the maximizers on this mesh stall far from stationarity
    # (residual ≈ 0.07 on the first rung); a profile from such a state is
    # not a maximizer's and must not be reported.
    vtx = witness.smooth_boundary_vertex(
        half_disk, (math.cos(-0.2), math.sin(-0.2))
    )
    with pytest.raises(NumericalError, match="eps = 1.0 ended unconverged"):
        witness.concentration_study(half_disk, vtx, eps_ladder=(1.0, 0.5, 0.25))



# F per rung, recorded when the state was carried to the re-adapted mesh
# by point location; prolongation agrees within 2e-13 relative.
STUDY_VALUES = (3.2529685667671373, 3.506869464600557, 3.6129339062351193)


def test_concentration_study_prolongs_onto_readapted_meshes(half_disk):
    vtx = witness.smooth_boundary_vertex(half_disk, (1.0, 0.0))
    seed = witness.glued_state(half_disk, vtx, witness.STUDY_SEED_SCALE).surface
    results = witness.concentration_study(half_disk, vtx,
                                          eps_ladder=(0.25, 0.1, 0.05))
    sizes = [seed.num_vertices] + [r.surface.num_vertices for r in results]
    assert sizes == sorted(sizes) and sizes[-1] > sizes[0]
    for res, want in zip(results, STUDY_VALUES, strict=True):
        assert res.residual <= witness.STUDY_TOL
        assert abs(res.value - want) <= 1e-12 * want


def test_peak_resolution_matches_whole_mesh_edge_lengths(half_disk):
    """The longest edge at a vertex, measured on its own rows, is bit for
    bit the one read off the whole mesh's edge lengths."""
    s = adapt_for_point(half_disk, (1.0, 0.0), 1e-3, 0.3)
    lengths = s.edge_lengths()
    for v in range(0, s.num_vertices, 7):
        want = lengths[np.any(s.triangles == v, axis=1)].max()
        assert witness._peak_resolution(s, v) == float(want)
    with pytest.raises(NumericalError, match="not referenced"):
        witness._peak_resolution(s, s.num_vertices)
