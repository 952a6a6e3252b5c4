"""Exponential functional, subcritical maximization, stationarity system."""

from __future__ import annotations

import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from tmlab import assembly, cli, moser, spectrum
from tmlab.errors import NumericalError, PreconditionError, UsageError
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
    assert fv.max_exponent == 0.0


def test_exponent_overflow_raises_before_exp(half_disk, rng):
    # At the parent the exponent was clamped at 700 and a lower bound
    # returned; now nothing is exponentiated, so no overflow warning.
    u = _feasible(half_disk, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="exceeds 700"):
            moser.functional_at_beta(half_disk, u, alpha=0.0, beta=1e6)


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


def test_el_residual_matches_stationarity_residual(half_disk, maximized, rng):
    # The EL form and the KKT form of one residual, computed independently.
    res = moser.el_residual(half_disk, maximized.u, alpha=0.0, eps=0.5)
    assert abs(res - maximized.residual) <= 1e-12
    for alpha in (0.0, 0.4):
        u = _feasible(half_disk, rng)
        st = moser._State(half_disk, u, alpha, 2.0 * math.pi - 0.5)
        assert moser.el_residual(half_disk, u, alpha, 0.5) == \
            pytest.approx(st.kkt_residual, rel=1e-10)


def test_el_residual_rejects_zero_state(half_disk):
    zero = np.zeros(half_disk.num_vertices)
    for alpha in (0.0, 0.4):
        with pytest.raises(PreconditionError):
            moser.el_residual(half_disk, zero, alpha, 0.5)


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


# sha256 of the psi and phi arrays of blowup_diagnostics at the maximizer
# that moser.best_seed picks from the eigen and bubble seeds (eps = 0.5).  The peak is the corner (0, 1), so part of each
# fan lies outside the domain and reads NaN.
GOLDEN_BLOWUP = {
    ("h0.05", 0.0, 1.0): (
        "205a15ac6a1a12c19a8e837e94900b761283b0eb7c0f5fd70df2f1ec0265ec3c",
        "fd0597f8b2143341eca5c643752212c9c8a839e39c8ffdcdb6bfebe795931d82",
    ),
    ("h0.05", 1.0, 1.0): (
        "c4050b3821ae8aceed32dc6fc312c5e4694d367d862e8a25d585f7c23c9b6605",
        "afdd3e5514c05291b74152878bd3b737a58332fef0b4680ee8618954614bc33e",
    ),
    ("h0.05", 0.0, 40.0): (
        "f569f5f9735f86e8b0d1ddb61c9eacea033edc5739ca058e5cf3da200a257d85",
        "aab3e590b109424bf2bc022db1e759ef5927ed2c0c4f7889e71eedd33d2cb967",
    ),
    ("h0.1 refined", 0.0, 1.0): (
        "4a25de82a98be6baebd5b89c37afb9d8dfcb17f5d24df4870e7d72c54b9f2feb",
        "b23885723947c80c40415619605d73a4592e26b0eaa9a97018144dc731650ddb",
    ),
    ("h0.1 refined", 1.0, 1.0): (
        "48243fd3c046b2a2206733a356a1f6963fc27e7079c39af5cfe3433c35feb789",
        "649e473ca6c49c7f1ec3fc08132b090349eb8b513d64429baced18fce8fc7d36",
    ),
}


@pytest.fixture(scope="module")
def blowup_maximizers(half_disk, half_disk_fine):
    meshes = {"h0.05": half_disk_fine, "h0.1 refined": refine(half_disk)}
    out = {}
    for mesh, alpha, _ in GOLDEN_BLOWUP:
        if (mesh, alpha) not in out:
            s = meshes[mesh]
            runs = {name: moser.maximize_subcritical(s, alpha, 0.5, u0=u0)
                    for name, u0 in (("eigen", cli._eigen_seed(s)),
                                     ("bubble", cli._bubble_seed(s)))}
            out[mesh, alpha] = s, runs[moser.best_seed(runs)].u
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

    def recorded(st, step):
        out = ascent(st, step)
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


# ---------------------------------------------------------------------------
# phase 1 in the K metric, Newton by block elimination
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ratio", [0.0, 0.3])
@pytest.mark.parametrize("seed", ["eigen", "bubble"])
def test_phase1_reaches_newton_switch(half_disk_fine, ratio, seed):
    # A (K+M)⁻¹ direction projected K-orthogonally need not ascend, so
    # phase 1 used to stop at residual ~0.08 before Newton took over.
    s = half_disk_fine
    u0 = cli._eigen_seed(s) if seed == "eigen" else cli._bubble_seed(s)
    alpha = ratio * spectrum.lambda1(s).value
    res = moser.maximize_subcritical(s, alpha, 0.5, u0=u0, max_newton=0)
    assert res.ascent_iterations < 500
    assert res.residual <= 1e-3


@pytest.fixture(scope="module")
def newton_states(half_disk_fine):
    s = half_disk_fine
    lam1 = spectrum.lambda1(s).value
    out = {}
    for ratio in (0.0, 0.3):
        alpha = ratio * lam1
        res = moser.maximize_subcritical(s, alpha, 0.5, max_newton=0)
        out[ratio] = moser._State(s, res.u, alpha, TWO_PI - 0.5)
    return out


def _bordered_reference(st):
    h_c, w, corner, r = moser._newton_system(st)
    mat = sp.bmat([[h_c, sp.csc_matrix(w)],
                   [sp.csc_matrix(w.T), sp.csc_matrix(corner)]], format="csc")
    rhs = np.concatenate([r, np.zeros(w.shape[1])])
    return spla.splu(mat).solve(rhs)[:r.size]


def _splu_sizes(monkeypatch, fail_on_h=False):
    sizes = []
    splu = spla.splu

    def recorded(mat, *args, **kwargs):
        sizes.append(mat.shape[0])
        if fail_on_h and kwargs.get("permc_spec") == "MMD_AT_PLUS_A":
            raise RuntimeError("Factor is exactly singular")
        return splu(mat, *args, **kwargs)

    monkeypatch.setattr(moser.spla, "splu", recorded)
    return sizes


@pytest.mark.parametrize("ratio", [0.0, 0.3])
def test_block_newton_step_matches_bordered_solve(newton_states, ratio,
                                                  monkeypatch):
    st = newton_states[ratio]
    ref = _bordered_reference(st)
    sizes = _splu_sizes(monkeypatch)
    du = moser._newton_step(st)
    assert sizes == [st.u.size]  # h_c only: no fallback
    assert np.linalg.norm(du - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("ratio", [0.0, 0.3])
def test_failed_hessian_lu_falls_back_to_ascent(newton_states, ratio,
                                                monkeypatch):
    st = newton_states[ratio]
    s, alpha = st.surface, st.alpha
    phase1 = moser.maximize_subcritical(s, alpha, 0.5, max_newton=0)
    sizes = _splu_sizes(monkeypatch, fail_on_h=True)
    assert moser._newton_step(st) is None
    assert sizes == [st.u.size]  # the Hessian block only: no bordered LU
    res = moser.maximize_subcritical(s, alpha, 0.5, max_newton=3)
    assert res.newton_iterations > 0
    assert math.isfinite(res.value)
    assert res.value >= phase1.value


def test_best_seed_prefers_converged_then_first_of_a_tie():
    def res(value, converged=True):
        return moser.MaximizeResult(u=None, value=value, residual=0.0,
                                    ascent_iterations=0, newton_iterations=0,
                                    converged=converged, tainted=False)

    # Values 1.8e-15 apart (the max1 golden's two seeds) are a tie.
    tie = {"eigen": res(6257.866447602814), "bubble": res(6257.866447602825)}
    assert moser.best_seed(tie) == "eigen"
    assert moser.best_seed({"eigen": res(1.0), "bubble": res(1.0 + 1e-9)}) \
        == "bubble"
    assert moser.best_seed({"eigen": res(2.0, False), "bubble": res(1.0)}) \
        == "bubble"
    assert moser.best_seed({"eigen": res(1.0), "bubble": res(2.0, False)}) \
        == "eigen"
