"""Exponential functional, subcritical maximization, stationarity system."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from tmlab import assembly, cli, moser, spectrum
from tmlab.errors import PreconditionError, UsageError
from tmlab.surface import refine

PI = math.pi
TWO_PI = 2.0 * PI


def _feasible(surface, rng):
    u = rng.standard_normal(surface.num_vertices)
    u = assembly.mean_zero_project(surface, u)
    return u / assembly.dirichlet_norm(surface, u)


# ---------------------------------------------------------------------------
# functional
# ---------------------------------------------------------------------------


def test_zero_field_gives_area(half_disk):
    fv = moser.functional(half_disk, np.zeros(half_disk.num_vertices),
                          alpha=0.0, eps=0.5)
    assert abs(fv.value - assembly.area(half_disk)) <= 1e-12
    assert not fv.tainted


def test_functional_monotone_in_alpha_and_beta(half_disk, rng):
    u = _feasible(half_disk, rng)
    f0 = moser.functional_at_beta(half_disk, u, 0.0, 0.9 * TWO_PI).value
    f1 = moser.functional_at_beta(half_disk, u, 0.5, 0.9 * TWO_PI).value
    f2 = moser.functional_at_beta(half_disk, u, 0.5, 0.95 * TWO_PI).value
    assert f0 < f1 < f2


def test_functional_exceeds_area_for_nonzero_state(half_disk, rng):
    u = _feasible(half_disk, rng)
    fv = moser.functional(half_disk, u, alpha=0.0, eps=0.5)
    assert fv.value > assembly.area(half_disk)


def test_functional_rejects_bad_parameters(half_disk):
    u = np.zeros(half_disk.num_vertices)
    with pytest.raises(UsageError):
        moser.functional(half_disk, u, alpha=-0.5, eps=0.5)
    with pytest.raises(UsageError):
        moser.functional(half_disk, u, alpha=0.0, eps=0.0)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------


def test_gradient_matches_finite_differences(half_disk, rng):
    alpha, eps = 0.3, 0.5
    for _ in range(3):
        u = _feasible(half_disk, rng)
        g = moser.gradient(half_disk, u, alpha, eps)
        idx = rng.integers(0, half_disk.num_vertices, size=4)
        for i in idx:
            step = 1e-6
            up = u.copy(); up[i] += step
            dn = u.copy(); dn[i] -= step
            fd = (
                moser.functional(half_disk, up, alpha, eps).value
                - moser.functional(half_disk, dn, alpha, eps).value
            ) / (2 * step)
            scale = max(abs(fd), abs(g[i]), 1e-12)
            assert abs(g[i] - fd) <= 1e-5 * scale


# ---------------------------------------------------------------------------
# maximize
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def maximized(half_disk):
    res = moser.maximize_subcritical(half_disk, alpha=0.0, eps=0.5)
    return res


def test_maximize_converges(maximized):
    assert maximized.converged
    assert not maximized.tainted


def test_maximize_feasibility_exact(half_disk, maximized):
    a = assembly.area(half_disk)
    assert abs(assembly.mean(half_disk, maximized.u)) <= 1e-12 * a
    assert abs(assembly.dirichlet_norm(half_disk, maximized.u) - 1.0) <= 1e-12


def test_maximize_stationarity(half_disk, maximized):
    res = moser.el_residual(half_disk, maximized.u, alpha=0.0, eps=0.5)
    assert res <= 1e-6


def test_maximize_beats_feasible_competitors(half_disk, maximized, rng):
    for _ in range(3):
        u = _feasible(half_disk, rng)
        assert moser.functional(half_disk, u, 0.0, 0.5).value \
            <= maximized.value + 1e-9


def test_maximize_value_at_least_area(half_disk, maximized):
    assert maximized.value >= assembly.area(half_disk)


def test_alpha_at_threshold_rejected(half_disk):
    lam1 = spectrum.first_eigenpair(half_disk, tol=1e-8).value
    with pytest.raises(PreconditionError):
        moser.maximize_subcritical(half_disk, alpha=lam1, eps=0.5)


# ---------------------------------------------------------------------------
# stationarity coefficients
# ---------------------------------------------------------------------------


def test_coefficient_identities(half_disk, maximized):
    alpha, eps = 0.4, 0.5
    res = moser.maximize_subcritical(half_disk, alpha=alpha, eps=eps)
    co = moser.el_coefficients(half_disk, res.u, alpha, eps)
    norm_sq = assembly.l2_norm(half_disk, res.u) ** 2
    assert abs(co.norm_sq - norm_sq) <= 1e-12
    assert abs(co.alpha_eps - (TWO_PI - eps) * (1 + alpha * norm_sq)) <= 1e-12
    want_beta = (1 + alpha * norm_sq) / (1 + 2 * alpha * norm_sq)
    assert abs(co.beta_eps - want_beta) <= 1e-12
    assert 0.5 < co.beta_eps <= 1.0
    assert co.gamma_eps >= 0.0
    assert co.lambda_eps > 0.0


def test_lambda_eps_lower_bound(half_disk, maximized, rng):
    # u² e^{a u²} ≥ (e^{a u²} − 1)/a pointwise, so the same holds integrated.
    u = _feasible(half_disk, rng)
    co = moser.el_coefficients(half_disk, u, alpha=0.2, eps=0.5)
    a = co.alpha_eps
    gq = assembly.interpolate(half_disk, u)
    rhs = float(assembly.integral(half_disk, (np.exp(a * gq**2) - 1.0) / a))
    assert co.lambda_eps >= rhs - 1e-12 * abs(rhs)


# ---------------------------------------------------------------------------
# blow-up diagnostics
# ---------------------------------------------------------------------------


def test_blowup_profiles_pinned_at_origin(half_disk, maximized):
    diag = moser.blowup_diagnostics(half_disk, maximized.u, 0.0, 0.5)
    assert np.all(diag.psi[:, 0] == 1.0)
    assert np.all(diag.phi[:, 0] == 0.0)
    assert diag.r > 0
    assert diag.c > 0


def test_blowup_phi_nonpositive(half_disk, maximized):
    diag = moser.blowup_diagnostics(half_disk, maximized.u, 0.0, 0.5)
    finite = diag.phi[np.isfinite(diag.phi)]
    assert finite.max() <= 1e-10


# sha256 of the psi and phi arrays of blowup_diagnostics at the better of
# the eigen- and bubble-seeded maximizers (eps = 0.5), recorded with the
# per-point evaluation loop.  The peak is the corner (0, 1), so part of each
# fan lies outside the domain and reads NaN.
GOLDEN_BLOWUP = {
    ("h0.05", 0.0, 1.0): (
        "217679b4c323ceccd6b017d5de7f8a6a00d28a9eccfb989f13a19b55bbdbd52e",
        "9e6504e2e55a37c6e2743366ec2cbf0dc988700fe22624c5938234719e5f67a9",
    ),
    ("h0.05", 1.0, 1.0): (
        "1ad496039d5606b098efe5b50871834f95d883e33fcf6cf0f64209b34f608b2a",
        "665b58d85cb893ad5ef1c561496225ff2d4070410be2f9e475ee342b0cf8b192",
    ),
    ("h0.05", 0.0, 40.0): (
        "c55ed02e97e8fd15a781bfc86cb0c16824de026e55be47a9d1202e0ae143b9a1",
        "0eb9e815e384d0fff1de1b4c2540bba2ff1de1e350b71d9d4964e64565c73fd6",
    ),
    ("h0.1 refined", 0.0, 1.0): (
        "9dffe0db27192c82ba5271da898bb57b7d203e061a69a23368982df529cdff2f",
        "2f082baf14d02670bb814746f3387a3f729546c5968f193d0d9df7fed44192bc",
    ),
    ("h0.1 refined", 1.0, 1.0): (
        "fb19696baf596a19f3211081d75913eada49253267fcd6d292a8c6e6b8058cd1",
        "3f281959280bdb994e4759b45eb82ea2b00d8751328f910d181b376da61c61b6",
    ),
}


@pytest.fixture(scope="module")
def blowup_maximizers(half_disk, half_disk_fine):
    meshes = {"h0.05": half_disk_fine, "h0.1 refined": refine(half_disk)}
    out = {}
    for mesh, alpha, _ in GOLDEN_BLOWUP:
        if (mesh, alpha) not in out:
            s = meshes[mesh]
            runs = [moser.maximize_subcritical(s, alpha, 0.5, u0=u0)
                    for u0 in (cli._eigen_seed(s), cli._bubble_seed(s))]
            out[mesh, alpha] = s, max(runs, key=lambda r: r.value).u
    return out


@pytest.mark.parametrize("case", sorted(GOLDEN_BLOWUP))
def test_blowup_golden_bytes(blowup_maximizers, case):
    mesh, alpha, rho_max = case
    s, u = blowup_maximizers[mesh, alpha]
    diag = moser.blowup_diagnostics(s, u, alpha, 0.5, rho_max=rho_max)
    assert np.isnan(diag.psi).any()
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                    for a in (diag.psi, diag.phi))
    assert digests == GOLDEN_BLOWUP[case]


# ---------------------------------------------------------------------------
# one evaluation per visited state
# ---------------------------------------------------------------------------


def test_maximizer_builds_each_state_once(half_disk, monkeypatch):
    alpha = 0.3 * spectrum.first_eigenpair(half_disk, tol=1e-8).value
    seen = []
    init = moser._State.__init__

    def record(self, surface, u, alpha, beta):
        seen.append((np.asarray(u, dtype=float).tobytes(), float(alpha),
                     float(beta)))
        init(self, surface, u, alpha, beta)

    monkeypatch.setattr(moser._State, "__init__", record)
    res = moser.maximize_subcritical(half_disk, alpha=alpha, eps=0.5)
    assert res.converged
    assert res.newton_iterations > 0
    assert len(seen) == len(set(seen))


def test_newton_fallback_ascent_step(half_disk, monkeypatch):
    # Phase 1 cut short, so ascent steps are still acceptable when the
    # (zeroed) Newton step fails and the fallback takes over.
    kw = dict(alpha=0.0, eps=0.5, max_ascent=3)
    accepted = []
    ascent = moser._ascent_step

    def recorded(st, km, step):
        out = ascent(st, km, step)
        accepted.append(out is not None)
        return out

    monkeypatch.setattr(moser, "_ascent_step", recorded)
    phase1 = moser.maximize_subcritical(half_disk, max_newton=0, **kw)
    n_phase1 = len(accepted)
    monkeypatch.setattr(moser, "_newton_step",
                        lambda st: np.zeros(half_disk.num_vertices))
    res = moser.maximize_subcritical(half_disk, max_newton=5, **kw)
    fallback = accepted[2 * n_phase1:]
    assert any(fallback)
    assert res.newton_iterations >= len(fallback)
    assert math.isfinite(res.value)
    assert res.value >= phase1.value
