"""Exponential functional, subcritical maximization, stationarity system."""

from __future__ import annotations

import hashlib
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from tmlab import assembly, cli, moser, spectrum, witness
from tmlab.errors import NumericalError, PreconditionError, UsageError
from tmlab.surface import DomainSpec, build_domain, refine

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


@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_value_assembles_the_mass_matrix_only_at_positive_alpha(mass_rows, alpha):
    """At α = 0, α_ε = β reads no ‖u‖₂², so a value assembles no M."""
    s = build_domain(DomainSpec("half_disk", (1.0,)), 0.1)
    u = assembly.admissible(s, s.vertices[:, 0] ** 2)[0]
    fv = moser.functional_at_beta(s, u, alpha, TWO_PI)
    assert mass_rows == ([s.num_triangles] if alpha else [])
    st = moser._State(s, u, alpha, TWO_PI)
    assert st.norm_sq == u @ (assembly.mass(s) @ u)  # bit-equal
    assert st.alpha_eps == TWO_PI * (1.0 + alpha * st.norm_sq)  # bit-equal
    assert fv.value == st.value
    assert mass_rows == [s.num_triangles]


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


def _bordered_k(surface):
    k = assembly.stiffness(surface).tocsc()
    m1 = sp.csc_matrix(assembly.mass_row_of_ones(surface)[:, None])
    return sp.bmat([[k, m1], [m1.T, None]], format="csc")


@pytest.mark.parametrize("alpha", [0.0, 0.4])
def test_kkt_residual_is_bordered_riesz_norm(half_disk, rng, alpha):
    # The residual is the Riesz norm of r over 2|A|, and the Riesz
    # representative is the gradient's bordered solve projected on Ku.
    bordered = _bordered_k(half_disk)
    for _ in range(3):
        u = _feasible(half_disk, rng)
        st = moser._State(half_disk, u, alpha, TWO_PI - 0.5)
        r = st.lagrangian_gradient
        x = spla.spsolve(bordered, np.append(r, 0.0))[:-1]
        want = math.sqrt(r @ x) / (2.0 * abs(st.multipliers[0]))
        assert st.kkt_residual == pytest.approx(want, rel=1e-10)
        d = spla.spsolve(bordered, np.append(st.gradient, 0.0))[:-1]
        d -= float(st.ku @ d) * u
        assert np.linalg.norm(st.direction - d) <= 1e-10 * np.linalg.norm(d)
        assert st.slope == pytest.approx(float(st.gradient @ d), rel=1e-10)


@pytest.mark.parametrize("mesh", ["half_disk", "rect21"])
def test_riesz_and_km_dual_norms_are_equivalent(request, rng, mesh):
    # For 1ᵀr = 0, rᵀK⁺r = Σ c_i²/λ_i and rᵀ(K+M)⁻¹r = Σ c_i²/(1 + λ_i)
    # in the M-orthonormal eigenbasis, so their ratio lies in
    # [1, 1 + 1/λ₁]; r = M·v₁ attains the upper end.
    s = request.getfixturevalue(mesh)
    pair = spectrum.lambda1(s)
    upper = math.sqrt(1.0 + 1.0 / pair.value)

    def norms(r):
        riesz = math.sqrt(float(r @ assembly.riesz_map(s, r)))
        return riesz, assembly.dual_norm(s, r)

    for _ in range(5):
        r = rng.standard_normal(s.num_vertices)
        r -= r.mean()
        riesz, dual = norms(r)
        assert dual <= riesz * (1.0 + 1e-12)
        assert riesz <= upper * dual * (1.0 + 1e-12)
    riesz, dual = norms(assembly.mass(s) @ pair.vector)
    assert riesz / dual == pytest.approx(upper, rel=1e-8)


@pytest.mark.parametrize("ratio", [0.0, 0.3])
@pytest.mark.parametrize("seed", ["eigen", "bubble"])
def test_ascent_steps_pass_armijo_and_rarely_backtrack(half_disk_fine, ratio,
                                                       seed, monkeypatch):
    # The bound sits between the 1.1–1.7 trial states per accepted step of
    # the Barzilai–Borwein start and the 2.5–2.8 of a step carried ×1.3.
    s = half_disk_fine
    u0 = cli._eigen_seed(s) if seed == "eigen" else cli._bubble_seed(s)
    alpha = ratio * spectrum.lambda1(s).value
    bordered = _bordered_k(s)
    built = [0]
    init = moser._State.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    steps = []
    ascent = moser._ascent_step

    def recorded(st, step):
        before = built[0]
        out = ascent(st, step)
        if out is not None:
            d = spla.spsolve(bordered, np.append(st.gradient, 0.0))[:-1]
            d -= float(st.ku @ d) * st.u
            slope = float(st.gradient @ d)
            trial, taken = out
            steps.append((trial.value - st.value - 1e-4 * taken * slope,
                          st.value, built[0] - before))
        return out

    monkeypatch.setattr(moser._State, "__init__", counted)
    monkeypatch.setattr(moser, "_ascent_step", recorded)
    res = moser.maximize_subcritical(s, alpha, 0.5, u0=u0, max_newton=0)
    assert res.residual <= moser.NEWTON_SWITCH
    assert len(steps) >= 5
    for excess, value, _ in steps:
        assert excess >= -1e-13 * value
    trials = sum(n for _, _, n in steps) / len(steps)
    assert trials <= 2.2


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


def test_default_seed_factors_the_bordered_k_once(splu_sizes):
    # The maximizer keeps the bordered-K LU before it solves lambda1, so
    # the eigen solve borrows it; the n-row LU is the eigen residual's
    # K + M.  The result is the CLI eigen seed's, bit for bit.
    s, t = (build_domain(DomainSpec("half_disk", (1.0,)), 0.1) for _ in range(2))
    res = moser.maximize_subcritical(s, 0.0, 0.5)
    assert sorted(splu_sizes) == [s.num_vertices, s.num_vertices + 1]
    seeded = moser.maximize_subcritical(t, 0.0, 0.5, u0=cli._eigen_seed(t))
    assert res.value == seeded.value
    assert np.array_equal(res.u, seeded.u)


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
# that moser.best_seed picks from the eigen and bubble seeds (eps = 0.5).
# The peak is the corner (0, 1); the fan keeps inside its angle, so no
# sample reads NaN.
GOLDEN_BLOWUP = {
    ("h0.05", 0.0, 1.0): (
        "deedf00c200705372f1986acfca9a52015f89f29df8315bac7790a51ad2b3b23",
        "a8c5d8cc08d0f94c4c21dc1ebcc190e5f85ea486066e9886dda41c75df852dc6",
    ),
    ("h0.05", 1.0, 1.0): (
        "37bfa8b8234c388c4c7e1d70766983f0f0410a75c6f3d06afe8214169cc1adbe",
        "9fc2bbbc3e500e8061920bbc41f0e9360effe480a84d0887b88aabfbc1e48ee1",
    ),
    ("h0.05", 0.0, 40.0): (
        "1a2609c56bcf684756da6900d197150760479a1863e2c2e117772f9fe60cbacf",
        "f70e0aff786391b5b33d1d6eec57d7ab5c111a4cb824abeabb885e7c0185300a",
    ),
    ("h0.1 refined", 0.0, 1.0): (
        "8a8ef869a625bc163c62c8384a65c64067a7312c2c3fe62e2fe8acfefe7427e3",
        "fc106c6f1b262ec63b9a565cc727b0caac57cbbb895484845075876840fb9513",
    ),
    ("h0.1 refined", 1.0, 1.0): (
        "6e53d6490e056f44440881990c91e1d8182d5cba523cd56616207010415dff89",
        "5138e2688b468876353f908ea3d34c7590826e572adda069408001b90732a190",
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
    assert not np.isnan(diag.psi).any() and not np.isnan(diag.phi).any()
    digests = tuple(hashlib.sha256(a.tobytes()).hexdigest()
                    for a in (diag.psi, diag.phi))
    assert digests == GOLDEN_BLOWUP[case]


def _boundary_fan(s, diag):
    """The fan's sample points as the blowup_diagnostics docstring defines
    them at a boundary peak, built from ``boundary_edges`` and the spec's
    corners: FAN_DIRS rays spread ±FAN_HALF_ANGLE degrees (less half the
    turning angle at a corner) around the bisector of the inward normals
    of the two boundary edges at the peak, sampled at x* + r·ρ·ω."""
    e = s.boundary_edges
    (prev,), (nxt,) = e[e[:, 1] == diag.vertex, 0], e[e[:, 0] == diag.vertex, 1]
    a, b = diag.x - s.vertices[prev], s.vertices[nxt] - diag.x
    normals = [np.array([-d[1], d[0]]) / np.hypot(*d) for d in (a, b)]
    bisector = normals[0] + normals[1]
    turn = math.atan2(a[0] * b[1] - a[1] * b[0], a @ b)
    corner = np.hypot(*(s.spec.corners() - diag.x).T).min() <= 1e-9
    half = math.radians(moser.FAN_HALF_ANGLE) - (turn / 2 if corner else 0.0)
    angles = math.atan2(bisector[1], bisector[0]) + np.linspace(
        -half, half, moser.FAN_DIRS)
    omega = np.column_stack([np.cos(angles), np.sin(angles)])
    return diag.x + diag.r * diag.rho[None, :, None] * omega[:, None, :]


def _inside_mesh(s, pts):
    """(k, p) mask of the sample points some triangle contains."""
    c = s.tri_coords()
    p0, d1, d2 = c[:, 0], c[:, 1] - c[:, 0], c[:, 2] - c[:, 0]
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    inside = np.empty(pts.shape[:2], dtype=bool)
    for k, p in np.ndindex(*inside.shape):
        rhs = pts[k, p] - p0
        b1 = (rhs[:, 0] * d2[:, 1] - rhs[:, 1] * d2[:, 0]) / det
        b2 = (d1[:, 0] * rhs[:, 1] - d1[:, 1] * rhs[:, 0]) / det
        inside[k, p] = ((b1 >= -1e-10) & (b2 >= -1e-10)
                        & (b1 + b2 <= 1 + 1e-10)).any()
    return inside


@pytest.mark.parametrize("case", sorted(GOLDEN_BLOWUP))
def test_blowup_fan_is_nan_exactly_outside_the_mesh(blowup_maximizers, case):
    mesh, alpha, rho_max = case
    s, u = blowup_maximizers[mesh, alpha]
    diag = moser.blowup_diagnostics(s, u, alpha, 0.5, rho_max=rho_max)
    assert _inside_mesh(s, _boundary_fan(s, diag)).all()
    # A fan reaching 2.5 from the corner peak crosses the unit half-disk,
    # so its far samples leave the mesh: NaN there and only there.
    far = moser.blowup_diagnostics(s, u, alpha, 0.5, rho_max=2.5 / diag.r)
    inside = _inside_mesh(s, _boundary_fan(s, far))
    assert np.array_equal(np.isfinite(far.psi), inside)
    assert np.array_equal(np.isfinite(far.phi), inside)
    assert inside.any() and not inside.all()


def test_blowup_fan_at_an_interior_peak_covers_the_full_turn(half_disk):
    """An interior peak gets FAN_DIRS rays spaced 2π/FAN_DIRS, the first
    at angle −π(1 − 1/FAN_DIRS); a tilted bump tells the rays apart."""
    s = half_disk
    vertex = int(np.argmin(s.distances((0.5, 0.0))))
    assert s.boundary()[1][vertex] < 0
    dx, dy = (s.vertices - s.vertices[vertex]).T
    bump = np.exp(-(dx * dx + dy * dy) / 0.02) * (1.0 + 0.3 * dx + 0.2 * dy)
    u = assembly.admissible(s, bump)[0]
    reach = moser.blowup_diagnostics(s, u, 0.0, 0.5).r
    diag = moser.blowup_diagnostics(s, u, 0.0, 0.5, rho_max=0.3 / reach)
    assert diag.vertex == vertex
    n = moser.FAN_DIRS
    angles = 2.0 * math.pi * (np.arange(n) - (n - 1) / 2) / n
    omega = np.column_stack([np.cos(angles), np.sin(angles)])
    pts = diag.x + diag.r * diag.rho[None, :, None] * omega[:, None, :]
    want = assembly.evaluate(s, u, pts.reshape(-1, 2)).reshape(pts.shape[:2])
    assert np.all(np.isfinite(diag.psi))
    np.testing.assert_allclose(diag.psi[:, 1:], want[:, 1:] / diag.c,
                               rtol=1e-12, atol=0.0)
    assert np.ptp(diag.psi[:, -1]) > 1e-3  # the rays see different values


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
# phase 1 in the K metric, Newton by preconditioned MINRES
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
    """The Newton step by one LU of the KKT matrix, every border explicit.

    The rank-two term is bordered through C₂⁻¹ = [[0,1],[1,−κ]] and the
    constraint gradients B = [2Ku, M·1]: the matrix is
    [[h, U, B], [Uᵀ, −C₂⁻¹, 0], [Bᵀ, 0, 0]] and the right-hand side
    [−∇L; 0; 0].
    """
    h, u_mat, c2 = moser._newton_system(st)
    b = np.column_stack([2.0 * st.ku, assembly.mass_row_of_ones(st.surface)])
    w = np.column_stack([u_mat, b])
    corner = np.zeros((w.shape[1], w.shape[1]))
    if u_mat.shape[1]:
        corner[:2, :2] = -np.linalg.inv(c2)
    mat = sp.bmat([[h, sp.csc_matrix(w)],
                   [sp.csc_matrix(w.T), sp.csc_matrix(corner)]], format="csc")
    rhs = np.concatenate([-st.lagrangian_gradient, np.zeros(w.shape[1])])
    return spla.splu(mat).solve(rhs)[:st.u.size]


def _assert_step_matches_bordered_solve(st, splu_sizes, rel=1e-5):
    ref = _bordered_reference(st)
    splu_sizes.clear()
    du = moser._newton_step(st)
    assert splu_sizes == []  # MINRES on the kept bordered-K LU only
    assert np.linalg.norm(du - ref) <= rel * np.linalg.norm(ref)


@pytest.mark.parametrize("ratio", [0.0, 0.3])
def test_block_newton_step_matches_bordered_solve(newton_states, ratio,
                                                  splu_sizes):
    _assert_step_matches_bordered_solve(newton_states[ratio], splu_sizes)


def test_newton_step_matches_bordered_solve_at_a_saddle(half_disk, splu_sizes,
                                                        monkeypatch):
    # Acceptance 8's first rung: the glued seed at (1, 0) on the h = 0.1
    # half-disk, ε = 1, after phase 1.  The Lagrangian Hessian there has
    # one direction of positive curvature on T (the rung converges to an
    # index-1 saddle), so a CG that stops on nonpositive curvature returns
    # a truncated step (after two steps, 53% off); MINRES returns the
    # Newton step.
    s = half_disk
    vtx = witness.smooth_boundary_vertex(s, (1.0, 0.0))
    seed = witness.glued_state(s, vtx, witness.STUDY_SEED_SCALE)
    res = moser.maximize_subcritical(seed.surface, 0.0, 1.0, u0=seed.v,
                                     max_newton=0)
    st = moser._State(seed.surface, res.u, 0.0, TWO_PI - 1.0)
    _assert_step_matches_bordered_solve(st, splu_sizes)
    # With the constraint components stripped, the preconditioner form
    # stays positive far below MINRES_RTOL: unstripped, MINRES raised on
    # it at rtol 1e-8, and without the M·1 part at 1e-10.
    monkeypatch.setattr(moser, "MINRES_RTOL", 1e-12)
    _assert_step_matches_bordered_solve(st, splu_sizes, rel=1e-9)


@pytest.mark.parametrize("ratio", [0.0, 0.3])
def test_newton_system_matches_three_term_assembly(newton_states, ratio):
    # The Hessian block as two weighted masses plus scaled M and K, added
    # as scipy sparse matrices; the rank-two term from the state's powers.
    st = newton_states[ratio]
    s, ae, a_mult = st.surface, st.alpha_eps, st.multipliers[0]
    h_ref = (
        2.0 * ae * assembly.weighted_mass(s, st.eE)
        + 4.0 * ae * ae * assembly.weighted_mass(s, st.uq**2 * st.eE)
        + (2.0 * st.alpha * st.beta * st.moment(2)) * assembly.mass(s)
        - (2.0 * a_mult) * assembly.stiffness(s)
    )
    if st.alpha > 0.0:
        s3 = assembly.load(s, st.power(3) * st.eE)
        w_t = 4.0 * st.alpha * st.beta * (st.s1 + ae * s3)
        u_ref = np.column_stack([st.mu_vec, w_t])
        kappa = 4.0 * st.alpha * st.alpha * st.beta * st.beta * st.moment(4)
        c2_ref = np.array([[kappa, 1.0], [1.0, 0.0]])
    else:
        u_ref, c2_ref = np.zeros((s.num_vertices, 0)), np.zeros((0, 0))

    h, u_mat, c2 = moser._newton_system(st)
    assert h.format == "csr"
    ref = h_ref.toarray()
    got = h.toarray()
    np.testing.assert_array_equal(got != 0.0, ref != 0.0)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))
    np.testing.assert_array_equal(u_mat, u_ref)
    np.testing.assert_array_equal(c2, c2_ref)


def test_state_moments_match_powers(newton_states):
    st = newton_states[0.3]
    s, w, uq, eE = st.surface, st.w, st.uq, st.eE
    assert (uq < 0).mean() > 0.25 and (uq > 0).mean() > 0.25
    for k in (1, 2, 4):
        ref = float(np.sum(w * np.power(uq, k) * eE))
        assert abs(st.moment(k) - ref) <= 1e-14 * abs(ref)
    assert st.moment(2) == float(np.sum(w * uq**2 * eE))
    assert st.lambda_eps == st.moment(2)
    s3 = assembly.load(s, st.power(3) * eE)
    ref3 = assembly.load(s, np.power(uq, 3) * eE)
    # Relative to the largest entry: entries near zero carry cancellation.
    assert np.abs(s3 - ref3).max() <= 1e-14 * np.abs(ref3).max()


def _negated_preconditioner(minres):
    # MINRES raises on the first negative preconditioner form.
    return lambda a, b, M, **kw: minres(a, b, M=-M, **kw)


def _one_iteration(minres):
    # MINRES reports its iteration cap as info > 0.
    return lambda a, b, **kw: minres(a, b, **{**kw, "maxiter": 1})


@pytest.mark.parametrize("breakdown", [_negated_preconditioner, _one_iteration],
                         ids=["indefinite", "capped"])
@pytest.mark.parametrize("ratio", [0.0, 0.3])
def test_krylov_breakdown_falls_back_to_ascent(newton_states, ratio, breakdown,
                                               splu_sizes, monkeypatch):
    st = newton_states[ratio]
    s, alpha = st.surface, st.alpha
    phase1 = moser.maximize_subcritical(s, alpha, 0.5, max_newton=0)
    splu_sizes.clear()
    monkeypatch.setattr(spla, "minres", breakdown(spla.minres))
    assert moser._newton_step(st) is None
    assert splu_sizes == []
    res = moser.maximize_subcritical(s, alpha, 0.5, max_newton=3)
    assert res.newton_iterations > 0
    assert math.isfinite(res.value)
    assert res.value >= phase1.value


def test_best_seed_prefers_converged_then_first_of_a_tie():
    def res(value, converged=True):
        return moser.MaximizeResult(u=None, value=value, residual=0.0,
                                    ascent_iterations=0, newton_iterations=0,
                                    converged=converged, tainted=False,
                                    peak_vertex=0, peak_is_corner=False)

    # Values 1.8e-15 apart (last-bit noise between two seeds) are a tie.
    tie = {"eigen": res(6257.866447602814), "bubble": res(6257.866447602825)}
    assert moser.best_seed(tie) == "eigen"
    assert moser.best_seed({"eigen": res(1.0), "bubble": res(1.0 + 1e-9)}) \
        == "bubble"
    assert moser.best_seed({"eigen": res(2.0, False), "bubble": res(1.0)}) \
        == "bubble"
    assert moser.best_seed({"eigen": res(1.0), "bubble": res(2.0, False)}) \
        == "eigen"
