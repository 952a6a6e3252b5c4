"""Explicit witness families for the sharp-threshold experiments.

Three constructions, all evaluated through the same quadrature as the
maximizer so that values are comparable across modules:

* **Standard bubble** closed forms: the limit concentration profile
  φ(ρ) = −(1/2π)·log(1 + (π/2)ρ²), solving −Δφ = e^{4πφ} with half-plane
  mass 1, plus finite-difference residual and mass checks.

* **Capped logarithm families** (truncated log cones with plateau
  √(L/2π), L = −log ε) that certify divergence: above the critical
  exponent, or at the critical exponent when the quadratic-term
  coefficient α reaches the first eigenvalue (then reinforced by a
  t·u₀ eigenfunction term, t = L^{−q}).  The mean is restored exactly by
  a C∞ radial mollifier supported away from the cap, with amplitude
  s = −∫cap dv / ∫mollifier dv.

* **Glued bubble+Green states** realizing the sharp lower bound
  Area + (π/2)·e^{1 + 2πA}: a scaled bubble core of width ε, a cut-off
  interpolation ramp over [Rε, 2Rε] (R = −log ε), and the Green tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import assembly, green as green_mod, moser, spectrum
from .errors import NumericalError, PreconditionError, UsageError
from .surface import Surface, adapt_for_point, prolong

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Bubble closed forms
# ---------------------------------------------------------------------------


def bubble_phi(rho):
    """Limit profile φ(ρ) = −(1/2π)·log(1 + (π/2)ρ²)."""
    rho = np.asarray(rho, dtype=float)
    return -np.log1p(0.5 * math.pi * rho**2) / TWO_PI


def bubble_mass(rho):
    """∫ e^{4πφ} over the half-disk of radius ρ: 1 − 1/(1 + (π/2)ρ²)."""
    rho = np.asarray(rho, dtype=float)
    return 1.0 - 1.0 / (1.0 + 0.5 * math.pi * rho**2)


def bubble_pde_residual(h: float = 1e-3, n: int = 201, extent: float = 5.0) -> float:
    """Max five-point-stencil residual of −Δφ = e^{4πφ} on [−extent, extent]².

    ``h`` is the stencil step; the residual is sampled on an n×n grid.
    """
    if not (h > 0) or n < 2:
        raise UsageError("stencil step must be positive, grid at least 2x2")
    xs = np.linspace(-extent, extent, n)
    xg, yg = np.meshgrid(xs, xs, indexing="xy")

    def phi_xy(a, b):
        return bubble_phi(np.hypot(a, b))

    lap = (
        phi_xy(xg + h, yg)
        + phi_xy(xg - h, yg)
        + phi_xy(xg, yg + h)
        + phi_xy(xg, yg - h)
        - 4.0 * phi_xy(xg, yg)
    ) / (h * h)
    rhs = np.exp(2.0 * TWO_PI * phi_xy(xg, yg))
    return float(np.max(np.abs(-lap - rhs)))


def unit_radius_gap(diag: "moser.BlowupDiagnostics") -> float:
    """|fan-mean of φ_sampled at ρ = 1 − φ(1)|, the profile-limit gap.

    The sample radius closest to ρ = 1 is used; the fan mean ignores
    directions whose sample point fell outside the domain.
    """
    j = int(np.argmin(np.abs(diag.rho - 1.0)))
    col = diag.phi[:, j]
    if np.all(np.isnan(col)):
        raise NumericalError("no valid profile samples at unit radius")
    return float(abs(np.nanmean(col) - bubble_phi(float(diag.rho[j]))))


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------


def smooth_boundary_vertex(surface: Surface, point) -> int:
    """Boundary vertex nearest ``point``, rejecting corner hits."""
    bidx = np.flatnonzero(surface.boundary()[1] >= 0)
    vertex = int(bidx[int(np.argmin(surface.distances(point)[bidx]))])
    surface.require_smooth_boundary_vertex(vertex)
    return vertex


def _recentre(surface: Surface, x0: np.ndarray) -> int:
    """The smooth boundary vertex at ``x0`` on a mesh adapted around it."""
    vertex = smooth_boundary_vertex(surface, x0)
    if not np.allclose(surface.vertices[vertex], x0, atol=1e-12):
        raise NumericalError("witness center drifted during adaptation")
    return vertex


def _metric_centroid(surface: Surface) -> np.ndarray:
    # x is linear on each triangle, so ∫x dv = xᵀ(M·1) exactly.
    m1 = assembly.mass_row_of_ones(surface)
    return surface.vertices.T @ m1 / assembly.area(surface)


def _mollifier(surface: Surface, center: np.ndarray, radius: float) -> np.ndarray:
    """C∞ radial bump: 1 at the center, 0 outside ``radius``."""
    s2 = (surface.distances(center) / radius) ** 2
    out = np.zeros(surface.num_vertices)
    inside = s2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    return out


# ---------------------------------------------------------------------------
# Capped-logarithm states
# ---------------------------------------------------------------------------


@dataclass
class CapState:
    """A normalized capped-log witness on a (possibly adapted) mesh."""

    surface: Surface = field(repr=False)
    vertex: int
    v: np.ndarray = field(repr=False)
    eps: float
    t: float
    delta: float
    bump_amplitude: float
    peak: float


def cap_state(
    surface: Surface,
    vertex: int,
    eps: float,
    delta: float,
    t: float = 0.0,
    u0: np.ndarray | None = None,
) -> CapState:
    """Build the normalized cap + mollifier (+ t·u₀) witness state.

    cap(r) = √(L/2π) on r ≤ δ√ε, then √(2/(πL))·log(δ/r) up to r = δ,
    then 0; L = −log ε.  The mean is cancelled exactly by the mollifier
    term, the eigenfunction term (t > 0) reinforces the peak with the
    sign of u₀ at the center, and the sum is scaled to unit energy.
    The center must be a smooth boundary vertex, checked first.
    """
    surface.require_smooth_boundary_vertex(vertex)
    if not (0 < eps < 1):
        raise UsageError("cap parameter eps must lie in (0, 1)")
    if delta <= 0:
        raise UsageError("cap radius delta must be positive")
    if delta >= surface.corner_free_radius(vertex):
        raise PreconditionError(
            "cap radius reaches a domain corner; shrink delta"
        )
    big_l = -math.log(eps)
    plateau = math.sqrt(big_l / TWO_PI)
    slope = math.sqrt(2.0 / (math.pi * big_l))
    r0 = delta * math.sqrt(eps)

    x0 = surface.vertices[vertex]
    r = surface.distances(x0)
    cap = np.zeros(surface.num_vertices)
    ring = (r > r0) & (r < delta)
    cap[r <= r0] = plateau
    cap[ring] = slope * np.log(delta / r[ring])

    # Mollifier in the domain bulk, clear of the cap support.
    anchor = _metric_centroid(surface)
    bidx = np.flatnonzero(surface.boundary()[1] >= 0)
    room = min(
        float(np.min(surface.distances(anchor)[bidx])),
        float(np.hypot(*(anchor - x0))) - delta,
    )
    if room <= 0.0:
        # A wide cap can swallow the centroid; fall back to the mesh vertex
        # with the best joint clearance from the boundary and the cap.
        d_bnd = np.full(surface.num_vertices, np.inf)
        for b in surface.vertices[bidx]:
            np.minimum(d_bnd, surface.distances(b), out=d_bnd)
        score = np.minimum(d_bnd, r - delta)
        best = int(np.argmax(score))
        anchor = surface.vertices[best].copy()
        room = float(score[best])
    radius = 0.9 * room
    if radius <= 0:
        raise PreconditionError(
            "no room for the mean-correction mollifier: cap overlaps the bulk"
        )
    moll = _mollifier(surface, anchor, radius)

    vec = cap
    if t != 0.0:
        if u0 is None:
            u0 = spectrum.lambda1(surface).vector
        sign = 1.0 if u0[vertex] >= 0 else -1.0
        vec = cap + (t * sign) * u0

    m1 = assembly.mass_row_of_ones(surface)
    moll_mass = float(m1 @ moll)
    if abs(moll_mass) < 1e-300:
        raise NumericalError("mollifier has vanishing mass on this mesh")
    s_amp = -float(m1 @ vec) / moll_mass
    vec = vec + s_amp * moll

    v = assembly.admissible(surface, vec)[0]
    return CapState(
        surface=surface,
        vertex=vertex,
        v=v,
        eps=eps,
        t=t,
        delta=delta,
        bump_amplitude=s_amp,
        peak=float(v[vertex]),
    )


def moser_sequence(
    surface: Surface,
    eigenpair,
    vertex: int,
    eps: float,
    q: float = 0.28,
) -> CapState:
    """Eigenfunction-reinforced capped-log witness at a boundary vertex.

    Interpolates cap + t·u₀ with t = (−log ε)^{−q}, cancels the mean with
    the bulk mollifier (amplitude solved exactly), and normalizes to unit
    energy.  The cap radius is the coupled radius 1/(t√L) clipped to the
    domain.
    """
    surface.require_smooth_boundary_vertex(vertex)
    t, delta = _rung(surface, vertex, eps, q)
    return cap_state(surface, vertex, eps, delta, t=t, u0=eigenpair.vector)


# ---------------------------------------------------------------------------
# Divergence ladders
# ---------------------------------------------------------------------------


@dataclass
class LadderRung:
    """One ε-rung: adapted mesh plus the witness states living on it.

    A rung graded from the previous rung's mesh (see :func:`ladder_states`)
    holds the `prolong` record of the rounds from that mesh on, not from
    the ladder's base surface.  When no further round runs, the two rungs
    share one surface, whose record then reads the identity.
    """

    surface: Surface = field(repr=False)
    state_plain: CapState = field(repr=False)
    state_eigen: CapState | None = field(repr=False)


@dataclass
class WitnessLadder:
    """Functional values of a witness family along an ε-ladder."""

    alpha: float
    eps: list
    values: list
    ratios: list
    ts: list
    deltas: list
    growth: bool
    used_eigen_branch: bool


def default_delta(surface: Surface, vertex: int) -> float:
    """Largest safe cap radius: 90% of the distance to the nearest corner."""
    return 0.9 * surface.corner_free_radius(vertex)


def check_ladder(eps_ladder, q: float) -> list:
    """The ε ladder as floats, after the rules that need no solve: q in
    (1/4, 1/2) (see :func:`_rung`), ε nonempty, strictly decreasing in (0, 1)."""
    if not (0.25 < q < 0.5):
        raise UsageError("t-exponent q must lie in (1/4, 1/2), where "
                         "t = L^-q meets t^2 L -> inf and t^2 sqrt(L) -> 0")
    eps_list = [float(e) for e in eps_ladder]
    if not eps_list or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise UsageError("eps ladder must be nonempty and strictly decreasing")
    if not all(0 < eps < 1 for eps in eps_list):
        raise UsageError("cap parameter eps must lie in (0, 1)")
    return eps_list


def _rung(surface: Surface, vertex: int, eps: float, q: float) -> tuple:
    """(t, δ) of one rung: t = L^{−q} with L = −log ε, and the coupled radius
    δ = 1/(t·√L) clipped by :func:`default_delta`.

    The construction needs t²L → ∞ and t²√L → 0 as ε → 0, which hold
    exactly when 1/4 < q < 1/2; any other q raises :class:`UsageError`.
    """
    check_ladder((eps,), q)
    big_l = -math.log(eps)
    t = big_l ** (-q)
    return t, min(1.0 / (t * math.sqrt(big_l)), default_delta(surface, vertex))


def ladder_states(
    surface: Surface,
    vertex: int,
    eps_ladder,
    q: float = 0.28,
    need_eigen_branch: bool = False,
    adapt: bool = True,
) -> list:
    """Build per-rung adapted meshes and witness states.

    Each rung adapts the mesh around the cap center down to the plateau
    radius δ√ε, rebuilds the cap there, and (when requested) also builds
    the eigenfunction-reinforced state with t = L^{−q}.  Each rung uses
    the coupled radius δ = 1/(t√L) clipped to 90% of the corner-free
    radius so the cap always fits the domain.

    A rung whose δ equals the previous rung's grades the previous rung's
    mesh further: with the same centre, outer radius δ and ratio and a
    smaller inner scale, its rule marks every row the previous rule
    marks, so only the extra rounds run, and the result is graded as
    :func:`adapt_for_point` promises.  When grading ``surface`` directly
    would repeat the previous rung's rounds first (as on acceptance 5's
    ladder and the benchmark's), the mesh is the same byte for byte;
    otherwise its numbering can differ, and on rare inputs a few
    triangles.  Any other rung is graded from ``surface``, since its rule
    does not contain the previous one.
    """
    eps_list = check_ladder(eps_ladder, q)
    surface.require_smooth_boundary_vertex(vertex)
    params = [_rung(surface, vertex, eps, q) for eps in eps_list]
    x0 = surface.vertices[vertex].copy()

    rungs = []
    for i, (eps, (t, delta)) in enumerate(zip(eps_list, params)):
        surf, vtx = surface, vertex
        if adapt:
            if i and params[i - 1][1] == delta:
                surf = rungs[-1].surface
            surf = adapt_for_point(surf, x0,
                                   inner_scale=delta * math.sqrt(eps),
                                   outer_radius=delta)
            vtx = _recentre(surf, x0)
        plain = cap_state(surf, vtx, eps, delta, t=0.0)
        eig = cap_state(surf, vtx, eps, delta, t=t) if need_eigen_branch else None
        rungs.append(LadderRung(surface=surf, state_plain=plain, state_eigen=eig))
    return rungs


def evaluate_ladder(
    rungs: list, alpha: float, beta: float, threshold: float
) -> WitnessLadder:
    """Functional values of a prebuilt ladder at given (α, β).

    The eigenfunction-reinforced branch is used exactly when α reaches
    the spectral threshold of the base surface.
    """
    use_eigen = spectrum.reaches_threshold(alpha, threshold)
    states, values = [], []
    for rung in rungs:
        state = rung.state_eigen if use_eigen else rung.state_plain
        if state is None:
            raise UsageError(
                "ladder was built without the eigenfunction branch; "
                "rebuild with need_eigen_branch=True"
            )
        fv = moser.functional_at_beta(rung.surface, state.v, alpha, beta)
        states.append(state)
        values.append(fv.value)
    ratios = [values[i + 1] / values[i] for i in range(len(values) - 1)]
    return WitnessLadder(
        alpha=alpha,
        eps=[s.eps for s in states],
        values=values,
        ratios=ratios,
        ts=[s.t for s in states],
        deltas=[s.delta for s in states],
        growth=bool(ratios and ratios[-1] >= 2.0),
        used_eigen_branch=use_eigen,
    )


def peak_boundary_vertex(surface: Surface) -> int:
    """Boundary vertex where u₀ peaks, kept clear of domain corners.

    Among non-corner boundary vertices whose u₀ value is within 1e-9
    (relative) of the boundary maximum, prefers the one farthest from
    the corners; the final tie-break is the lowest index.
    """
    u0 = spectrum.lambda1(surface).vector
    _, after, corner = surface.boundary()
    candidates = np.flatnonzero((after >= 0) & ~corner)
    if candidates.size == 0:
        raise PreconditionError("no smooth boundary vertex available")
    values = u0[candidates]
    top = values.max()
    band = candidates[values >= top - 1e-9 * max(abs(top), 1.0)].tolist()
    return min(band, key=lambda i: (-surface.corner_free_radius(i), i))


def divergence_matrix(
    surface: Surface,
    alphas,
    eps_ladder,
    vertex: int | None = None,
    beta: float = TWO_PI,
    q: float = 0.28,
    adapt: bool = True,
) -> dict:
    """Witness values over an (ε, α) grid with per-α growth flags.

    Adapted rung meshes and cap states are shared across all α; only the
    functional evaluation differs, so the matrix is cheap in α.  The cap
    center defaults to :func:`peak_boundary_vertex`.  Every input rule
    is checked before λ₁ is solved.
    """
    eps_list = check_ladder(eps_ladder, q)
    alphas = [float(a) for a in alphas]
    for a in alphas:
        moser.check_coefficients(a, beta)
    threshold = spectrum.lambda1(surface).value
    if vertex is None:
        vertex = peak_boundary_vertex(surface)
    need_eigen = any(spectrum.reaches_threshold(a, threshold) for a in alphas)
    rungs = ladder_states(
        surface, vertex, eps_list, q=q,
        need_eigen_branch=need_eigen, adapt=adapt,
    )
    ladders = [evaluate_ladder(rungs, a, beta, threshold) for a in alphas]
    return {
        "lambda1": threshold,
        "vertex": vertex,
        "values": [lad.values for lad in ladders],  # indexed [alpha][eps]
        "ratios": [lad.ratios for lad in ladders],
        "growth_flags": [lad.growth for lad in ladders],
        "eigen_branch": [lad.used_eigen_branch for lad in ladders],
        "ts": [lad.ts for lad in ladders],
        "ladders": ladders,
    }


# ---------------------------------------------------------------------------
# Glued bubble + Green lower-bound states
# ---------------------------------------------------------------------------


@dataclass
class GluedState:
    """Normalized glued state u_ε and its certification data."""

    surface: Surface = field(repr=False)
    vertex: int
    v: np.ndarray = field(repr=False)
    eps: float
    big_r: float
    c_sq: float
    b: float
    a_const: float
    green_norm_sq: float
    bound: float
    alpha: float
    prenorm: float


# Largest α/λ₁ at which the small-α lower bound is checked.
ALPHA_CAP_FRACTION = 0.1


def sharp_bound(area: float, a_const: float) -> float:
    """The concentration threshold value Area + (π/2)·e^{1+2πA}."""
    return area + 0.5 * math.pi * math.exp(1.0 + TWO_PI * a_const)


def glued_sequence(surface: Surface, green, eps: float) -> GluedState:
    """Build the glued bubble+Green state of scale ε from a Green solution.

    ``green`` is the Green result at a smooth boundary vertex of *this*
    surface (already adapted so the ε-scale is resolved).  Inner region
    r < Rε (R = −log ε): scaled bubble
        (c² − (1/2π)·log(1 + (π/2) r²/ε²) + b) / denom;
    transition Rε ≤ r < 2Rε: (G − ξσ)/denom with a linear ramp ξ: 1 → 0;
    outer: G/denom; with c² = A − (1/π)log ε + (1/2π)log(π/2) − 1/(2π),
    b chosen for continuity at Rε, denom = √(c² + α‖G‖₂²).  The state is
    then mean-corrected (constant shift) and rescaled to unit energy,
    hence exactly admissible.
    """
    if not (0 < eps < 0.1):
        raise UsageError("glued-state scale eps must lie in (0, 0.1)")
    if np.asarray(green.values).shape != (surface.num_vertices,):
        raise UsageError("Green solution does not live on this mesh")
    vtx = green.vertex
    alpha = green.alpha
    x0 = green.x0
    a_const, _ = green_mod.extract_A(surface, green)
    sigma = green_mod.sigma_field(surface, green, a_const)

    big_r = -math.log(eps)
    c_sq = (
        a_const
        - math.log(eps) / math.pi
        + math.log(math.pi / 2.0) / TWO_PI
        - 1.0 / TWO_PI
    )
    if c_sq <= 0:
        raise PreconditionError(
            "glued construction needs a smaller eps: c^2 is not positive"
        )
    b = (
        -math.log(big_r * eps) / math.pi
        + a_const
        - c_sq
        + math.log(1.0 + 0.5 * math.pi * big_r * big_r) / TWO_PI
    )
    denom = math.sqrt(c_sq + alpha * green.norm_l2_sq)

    r = surface.distances(x0)
    inner = r < big_r * eps
    middle = (~inner) & (r < 2.0 * big_r * eps)
    u = np.array(green.values) / denom  # outer region default
    u[inner] = (
        c_sq - np.log1p(0.5 * math.pi * (r[inner] / eps) ** 2) / TWO_PI + b
    ) / denom
    xi = np.clip((2.0 * big_r * eps - r[middle]) / (big_r * eps), 0.0, 1.0)
    u[middle] = (green.values[middle] - xi * sigma[middle]) / denom

    u, prenorm = assembly.admissible(surface, u)

    return GluedState(
        surface=surface,
        vertex=vtx,
        v=u,
        eps=eps,
        big_r=big_r,
        c_sq=c_sq,
        b=b,
        a_const=a_const,
        green_norm_sq=green.norm_l2_sq,
        bound=sharp_bound(assembly.area(surface), a_const),
        alpha=alpha,
        prenorm=prenorm,
    )


def glued_state(
    surface: Surface,
    vertex: int,
    eps: float,
    alpha: float = 0.0,
) -> GluedState:
    """Adapt near the vertex, solve the Green problem, glue the state.

    Convenience driver around :func:`glued_sequence`: grades the mesh so
    the bubble core scale ε is resolved, finds the center vertex again,
    and computes the α-modified Green solution there.  The adapted mesh
    is cached on ``surface`` per (centre, ε), so calls that differ only
    in α adapt once.
    """
    if not (0 < eps < 0.1):
        raise UsageError("glued-state scale eps must lie in (0, 0.1)")
    moser.check_coefficients(alpha)
    surface.require_smooth_boundary_vertex(vertex)
    x0 = surface.vertices[vertex].copy()
    key = ("glued_adapt", float(x0[0]), float(x0[1]), eps)
    if key not in surface.cache:
        surface.cache[key] = adapt_for_point(
            surface, x0, inner_scale=eps, outer_radius=0.5
        )
    surf = surface.cache[key]
    gres = green_mod.green_function(surf, _recentre(surf, x0), alpha=alpha)
    return glued_sequence(surf, gres, eps)


def lower_bound_check(
    surface: Surface,
    vertex: int,
    eps: float,
    alpha: float = 0.0,
) -> dict:
    """Evaluate the glued state at the critical exponent against the bound.

    Returns the functional value, the target Area + (π/2)e^{1+2πA}, the
    margin (value − bound), and ``passed`` = strict exceedance.  The
    quadratic coefficient must stay small (α ≤ ALPHA_CAP_FRACTION·λ₁):
    the certified inequality is asymptotic in small α.
    """
    moser.check_coefficients(alpha)
    if alpha > 0.0:
        lam1 = spectrum.lambda1(surface).value
        if alpha > ALPHA_CAP_FRACTION * lam1 * (1.0 + 1e-12):
            raise PreconditionError(
                f"alpha = {alpha} exceeds {ALPHA_CAP_FRACTION}·lambda1 "
                f"= {ALPHA_CAP_FRACTION * lam1:.6f}; the exceedance "
                "experiment is only meaningful for small alpha"
            )
    state = glued_state(surface, vertex, eps, alpha=alpha)
    fv = moser.functional_at_beta(state.surface, state.v, alpha, TWO_PI)
    return {
        "eps": eps,
        "alpha": alpha,
        "value": fv.value,
        "bound": state.bound,
        "margin": fv.value - state.bound,
        "passed": bool(fv.value > state.bound),
        "A": state.a_const,
        "b": state.b,
        "c_sq": state.c_sq,
        "green_norm_sq": state.green_norm_sq,
        "state": state,
    }


# ---------------------------------------------------------------------------
# Concentration study (maximizers vs. the bubble)
# ---------------------------------------------------------------------------

STUDY_SEED_SCALE = 0.02  # ε of the glued seed state
STUDY_MAX_ADAPT_ROUNDS = 6  # re-adaptations per subcriticality rung
STUDY_TOL = 1e-8  # maximizer stationarity tolerance
STUDY_RESOLVE_FACTOR = 6.0  # peak edge length must reach r / this


@dataclass
class ConcentrationResult:
    """One subcriticality rung of the profile-convergence experiment."""

    eps: float
    c: float
    r: float
    x: np.ndarray
    value: float
    residual: float
    unit_gap: float
    surface: Surface = field(repr=False)
    u: np.ndarray = field(repr=False)
    diag: "moser.BlowupDiagnostics" = field(repr=False)


def _peak_resolution(surface: Surface, vertex: int) -> float:
    """Longest edge among triangles touching the given vertex: the lengths
    of `Surface.edge_lengths`, column by column, for those rows only."""
    tris = surface.triangles
    rows = tris[(tris[:, 0] == vertex) | (tris[:, 1] == vertex)
                | (tris[:, 2] == vertex)]
    if not rows.size:
        raise NumericalError("peak vertex not referenced by any triangle")
    c = surface.vertices[rows]
    return float(max(np.hypot(d[:, 0], d[:, 1]).max()
                     for d in (c[:, (k + 1) % 3] - c[:, (k + 2) % 3] for k in range(3))))


def concentration_study(
    surface: Surface,
    vertex: int,
    eps_ladder=(1.0, 0.5, 0.25),
    alpha: float = 0.0,
) -> list:
    """Maximize at shrinking subcriticality and compare against the bubble.

    Each rung seeds the optimizer with a glued bubble+Green state at the
    witness center, then alternates maximize → measure the concentration
    radius r → re-adapt the mesh near the peak until the local mesh size
    resolves r, warm-restarting from the previous state prolonged onto
    the new mesh.
    Returns one :class:`ConcentrationResult` per subcriticality ε; raises
    :class:`NumericalError` when a rung's final maximizer is unconverged.
    """
    eps_list = [float(e) for e in eps_ladder]
    seed_state = glued_state(surface, vertex, STUDY_SEED_SCALE, alpha=alpha)
    surf = seed_state.surface
    u_seed = seed_state.v
    results = []
    for eps in eps_list:
        for rounds in range(STUDY_MAX_ADAPT_ROUNDS + 1):
            res = moser.maximize_subcritical(
                surf, alpha, eps, u0=u_seed, tol=STUDY_TOL
            )
            diag = moser.blowup_diagnostics(surf, res.u, alpha, eps)
            if (rounds == STUDY_MAX_ADAPT_ROUNDS
                    or _peak_resolution(surf, diag.vertex)
                    <= diag.r / STUDY_RESOLVE_FACTOR):
                break
            new_surf = adapt_for_point(
                surf,
                diag.x,
                inner_scale=diag.r,
                outer_radius=min(0.5, 200.0 * diag.r),
                ratio=STUDY_RESOLVE_FACTOR * 1.5,
            )
            # A midpoint reprojected onto the arc moves the function a
            # little, and its mean and energy with it; re-admissibilize.
            u_new = prolong(new_surf, res.u)
            surf, u_seed = new_surf, assembly.admissible(new_surf, u_new)[0]
        if not res.converged:
            raise NumericalError(
                f"maximizer at eps = {eps} ended unconverged: residual "
                f"{res.residual:.3e} > tol {STUDY_TOL:.1e}"
            )
        results.append(
            ConcentrationResult(
                eps=eps,
                c=diag.c,
                r=diag.r,
                x=diag.x,
                value=res.value,
                residual=res.residual,
                unit_gap=unit_radius_gap(diag),
                surface=surf,
                u=res.u,
                diag=diag,
            )
        )
        u_seed = res.u  # warm start for the next subcriticality rung
    return results
