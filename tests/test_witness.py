"""Explicit concentration families: caps, glued states, bubble identities."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.integrate

from tmlab import assembly, spectrum, witness
from tmlab.errors import NumericalError, PreconditionError, UsageError
from tmlab.surface import DomainSpec, build_domain

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


def test_rung_parameters_identity():
    eps, q = 1e-4, 0.3
    big_l, t, delta = witness.rung_parameters(eps, q)
    assert abs(big_l + math.log(eps)) <= 1e-12
    assert abs(t - big_l ** (-q)) <= 1e-15
    assert abs(delta - 1.0 / (t * math.sqrt(big_l))) <= 1e-15


@pytest.mark.parametrize("q", [0.28, 0.375])
def test_side_conditions_hold_in_valid_range(q):
    cond = witness.side_conditions([1e-2, 1e-4, 1e-6], q)
    assert cond["t2l_increasing"]
    assert cond["t2sqrtl_decreasing"]


def test_side_conditions_fail_outside_range():
    cond = witness.side_conditions([1e-2, 1e-4, 1e-6], 0.2)
    # Too-slow amplitude decay keeps t²√L growing.
    assert not cond["t2sqrtl_decreasing"]


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


def test_cap_rejects_corner_center(half_disk):
    corner = int(half_disk.corner_vertex_indices()[0])
    with pytest.raises(PreconditionError):
        witness.cap_state(half_disk, corner, 1e-3, 0.1)


def test_ladder_requires_decreasing_eps(half_disk):
    vtx = witness.smooth_boundary_vertex(half_disk, (1.0, 0.0))
    for ladder in ([1e-4, 1e-2], [1e-2, 1e-2]):
        with pytest.raises(UsageError, match="strictly decreasing"):
            witness.ladder_states(half_disk, vtx, ladder, adapt=False)


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
    # (residual ≈ 0.16 on the first rung); a profile from such a state is
    # not a maximizer's and must not be reported.
    vtx = witness.smooth_boundary_vertex(
        half_disk, (math.cos(-0.2), math.sin(-0.2))
    )
    with pytest.raises(NumericalError, match="eps = 1.0 ended unconverged"):
        witness.concentration_study(half_disk, vtx, eps_ladder=(1.0, 0.5, 0.25))

