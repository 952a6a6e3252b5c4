"""Subcritical maximization of the exponential mean-zero functional.

The object of study is

    F(u) = ∫ exp( β u² (1 + α‖u‖₂²) ) dv,    β = 2π − ε,  ε > 0,

over the admissible set  𝒮 = { mean(u) = 0, ‖∇u‖₂ ≤ 1 }.  Everything here
is *discretely consistent*: F, its gradient, the Euler–Lagrange
coefficients, and the Euler–Lagrange residual are all defined through the
same 6-point quadrature, so the discrete Karush–Kuhn–Tucker conditions of
the discrete maximization problem coincide exactly with the discrete
Euler–Lagrange equation whose residual is reported.

The maximizer runs two phases.  Phase 1 is Riemannian gradient ascent
on the sphere {uᵀKu = 1, mean 0} in the sphere's own metric uᵀKv (Absil,
Mahony and Sepulchre, *Optimization Algorithms on Matrix Manifolds*,
2008, §3.6 and §4.2), with Barzilai–Borwein steps in the same metric
under an Armijo safeguard.  One solve with the cached LU of K bordered
with M·1 per state maps the Lagrangian gradient to its Riesz
representative, which is at once the ascent direction and, through its
slope, the stationarity residual, measured in the norm dual to the
mean-zero H¹ seminorm.  It runs until that residual is small.  Phase 2
is damped Newton with the exact Hessian, whose α-terms add a symmetric
rank-two correction.  Its system on the tangent space of the constraints
is solved by MINRES, preconditioned with the same bordered-K LU projected
onto that space, so the maximizer factors nothing of its own.  When
MINRES breaks down or reaches its iteration cap, Newton takes one
safeguarded ascent step instead.

Each state the maximizer visits is one ``_State``: value, gradient, KKT
multipliers and residual, the Newton system and the Euler–Lagrange data
are all read from it, so no (u, α, β) is interpolated or exponentiated
twice, and λ_ε = ∫ u² e^E dv is summed once.  Powers of u are formed as
products (``_State.power``), never with a float ``**``, and the Newton
system's sparse block is one weighted-mass assembly combined with M and K
on their shared CSR pattern.  A quadrature exponent above ``EXP_MAX``
raises :class:`NumericalError` before anything is exponentiated, so every
value reported is the exact quadrature value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse.linalg as spla

from . import assembly, spectrum
from .errors import NumericalError, PreconditionError, UsageError
from .surface import Surface

TWO_PI = 2.0 * math.pi
EXP_MAX = 700.0  # largest exponent whose exponential stays in double range
NEWTON_SWITCH = 1e-3  # stationarity residual where ascent hands over to Newton
FAN_DIRS = 9  # directions of the blow-up profile fan
FAN_RADII = 33  # radii sampled along each fan direction
FAN_HALF_ANGLE = 80.0  # degrees the fan spreads either side of inward


# ---------------------------------------------------------------------------
# Value containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionalValue:
    """Value of F(u) and its largest quadrature exponent."""

    value: float
    max_exponent: float


@dataclass(frozen=True)
class ELCoefficients:
    """Coefficients of the Euler–Lagrange system at a given state u.

    With s = ‖u‖₂², β = 2π − ε:
      alpha_eps  = β(1 + αs)          (exponent coefficient)
      beta_eps   = (1 + αs)/(1 + 2αs)
      gamma_eps  = α/(1 + 2αs)
      lambda_eps = ∫ u² e^{alpha_eps u²} dv
      mu_eps     = beta_eps/Area · ∫ u e^{alpha_eps u²} dv
    """

    alpha_eps: float
    beta_eps: float
    gamma_eps: float
    lambda_eps: float
    mu_eps: float
    norm_sq: float


@dataclass
class MaximizeResult:
    """Outcome of subcritical maximization.

    ``tainted`` is always False: an exponent overflow raises instead.
    ``peak_vertex`` is the vertex of largest |u|; ``peak_is_corner`` says
    whether it is a domain corner, where F grows as the mesh is refined.
    """

    u: np.ndarray
    value: float
    residual: float
    ascent_iterations: int
    newton_iterations: int
    converged: bool
    tainted: bool
    peak_vertex: int
    peak_is_corner: bool


@dataclass
class BlowupDiagnostics:
    """Concentration diagnostics of a (near-)maximizer.

    ``psi``/``phi`` are sampled on a fan of FAN_DIRS directions ω (rows)
    at the scaled radii ``rho`` (columns): psi(ρ) = u(x* + r ρ ω)/c and
    phi(ρ) = c (u(x* + r ρ ω) − c); entries are NaN where no triangle of
    the mesh contains the sample point.  At a boundary peak the fan keeps
    inside the domain's angle at x* (see :func:`blowup_diagnostics`), so
    only samples that reach past the far side of the domain read NaN.
    """

    c: float
    x: np.ndarray
    vertex: int
    r: float
    lambda_eps: float
    alpha_eps: float
    beta_eps: float
    rho: np.ndarray
    psi: np.ndarray
    phi: np.ndarray


# ---------------------------------------------------------------------------
# Core quadrature fields
# ---------------------------------------------------------------------------


def check_coefficients(alpha: float, beta: float = TWO_PI) -> float:
    """β, after the rules β > 0 and α ≥ 0, both finite; solves nothing."""
    if not (beta > 0) or not math.isfinite(beta):
        raise UsageError("beta must be positive and finite")
    if alpha < 0 or not math.isfinite(alpha):
        raise UsageError("alpha must be nonnegative and finite")
    return beta


def check_subcritical(alpha: float, eps: float) -> float:
    """β = 2π − ε, after ε ∈ (0, 2π) and :func:`check_coefficients`."""
    if not (eps > 0) or not math.isfinite(eps) or eps >= TWO_PI:
        raise UsageError("eps must lie in (0, 2*pi): the subcritical range")
    return check_coefficients(alpha, TWO_PI - eps)


class _State:
    """Every quadrature-derived quantity of one (surface, u, alpha, beta).

    The interpolated field and its exponential are computed on
    construction.  Value, gradient, KKT data, Euler–Lagrange data and the
    Newton system all read them, and what they derive is cached here, so
    a state is evaluated once however many of these are asked for.
    """

    def __init__(self, surface: Surface, u: np.ndarray, alpha: float, beta: float):
        self.surface = surface
        self.u = np.asarray(u, dtype=float)
        if self.u.shape != (surface.num_vertices,):
            raise UsageError("state vector length does not match the mesh")
        self.alpha = float(alpha)
        self.beta = float(beta)
        # At α = 0, β is β·(1 + 0·s) for every finite s, without M.
        self.alpha_eps = (self.beta * (1.0 + self.alpha * self.norm_sq)
                          if self.alpha else self.beta)
        self.uq = assembly.interpolate(surface, self.u)
        expo = self.alpha_eps * self.power(2)
        self.max_exponent = float(expo.max(initial=0.0))
        if self.max_exponent > EXP_MAX:
            raise NumericalError(
                f"quadrature exponent {self.max_exponent:.6g} exceeds "
                f"{EXP_MAX:g}: F overflows the double range"
            )
        self.eE = np.exp(expo)
        self.w = assembly.quad_weights(surface)

    @cached_property
    def mu_vec(self) -> np.ndarray:
        """Mu, read by the gradient, the Euler–Lagrange data and the Newton
        system, and for ‖u‖₂²; a value at α = 0 reads none of them, so it
        assembles no M."""
        return np.asarray(assembly.mass(self.surface) @ self.u)

    @cached_property
    def norm_sq(self) -> float:
        """s = ‖u‖₂² = uᵀMu."""
        return float(self.u @ self.mu_vec)

    # -- powers and scalar moments ∫ u^k e^E dv ----------------------------

    def power(self, k: int) -> np.ndarray:
        """u^k at the quadrature points, k = 1, …, 4, formed as products.

        numpy may evaluate a float ``**3`` or ``**4`` through scalar libm
        ``pow`` wherever the base is negative, and a mean-zero state is
        negative at about half its points.  With numpy 2.4 on an AVX-512
        Xeon, ``x**3`` of 38 400 mixed-sign values took 3.3 ms against
        0.05 ms for ``x*x*x``.  ``u*u`` is bit-equal to ``u**2``.  Nothing
        is cached: a kept u² would be one more (nt, 6) array per live
        state.
        """
        if k == 1:
            return self.uq
        sq = self.uq * self.uq
        if k == 2:
            return sq
        if k == 3:
            return sq * self.uq
        if k == 4:
            return sq * sq
        raise ValueError(f"power {k} is not formed")

    def moment(self, k: int) -> float:
        """∫ u^k e^E dv, with u^k from :meth:`power`."""
        return float(np.sum(self.w * self.power(k) * self.eE))

    @cached_property
    def lambda_eps(self) -> float:
        """λ_ε = ∫ u² e^E dv, read by the gradient, the Euler–Lagrange
        coefficients and the Newton system."""
        return self.moment(2)

    # -- value and first-order data ----------------------------------------

    @cached_property
    def value(self) -> float:
        return float(np.sum(self.w * self.eE))

    @cached_property
    def s1(self) -> np.ndarray:
        """Load vector ∫ u e^E φ_i dv."""
        return assembly.load(self.surface, self.uq * self.eE)

    @cached_property
    def gradient(self) -> np.ndarray:
        return (
            2.0 * self.alpha_eps * self.s1
            + 2.0 * self.alpha * self.beta * self.lambda_eps * self.mu_vec
        )

    @cached_property
    def ku(self) -> np.ndarray:
        return np.asarray(assembly.stiffness(self.surface) @ self.u)

    @cached_property
    def multipliers(self) -> tuple:
        """Estimates (A, ν) at a feasible u: A from the sphere, ν from the mean.

        ν solves min ‖g − 2A·Ku − ν·M1‖ in the dual pairing with constants:
        1ᵀ(g − 2A·Ku) = ν·1ᵀM1 and 1ᵀKu = 0.
        """
        g = self.gradient
        a_mult = 0.5 * float(self.u @ g)
        nu = float(np.sum(g) - 2.0 * a_mult * np.sum(self.ku))
        nu /= assembly.area(self.surface)
        return a_mult, nu

    @cached_property
    def lagrangian_gradient(self) -> np.ndarray:
        """g − 2A·Ku − ν·M1, the gradient of the Lagrangian."""
        a_mult, nu = self.multipliers
        m1 = assembly.mass_row_of_ones(self.surface)
        return self.gradient - 2.0 * a_mult * self.ku - nu * m1

    @cached_property
    def direction(self) -> np.ndarray:
        """Riesz representative x of the Lagrangian gradient r in uᵀKv.

        One solve of K bordered with M·1 (:func:`assembly.riesz_map`, R
        below).  At a feasible u it is the projected ascent direction
        d − (uᵀKd)·u, d = R(g): R is linear, R(Ku) = u (u is mean zero)
        and R(M·1) = 0, so x = R(g − 2A·Ku − ν·M·1) = d − 2A·u; and
        2A = uᵀg = uᵀKd, since Kd = g − μ·M·1 and 1ᵀMu = 0.
        """
        return assembly.riesz_map(self.surface, self.lagrangian_gradient)

    @cached_property
    def slope(self) -> float:
        """rᵀx = xᵀKx, the squared dual norm of r; at a feasible u also gᵀx.

        1ᵀr = 0 by the choice of ν, so the border multiplier vanishes and
        Kx = r.  gᵀx = rᵀx because uᵀKx = uᵀr = 2A − 2A·uᵀKu = 0 and
        1ᵀMx = 0, so it is the slope of F along x, and it is nonnegative.
        """
        return float(self.lagrangian_gradient @ self.direction)

    @cached_property
    def kkt_residual(self) -> float:
        """Stationarity residual √slope / 2|A|: r's dual norm over 2|A|.

        With A = βλ_ε(1 + 2αs), the Lagrangian gradient over 2A is, up to
        sign and rounding, the Euler–Lagrange residual of :func:`el_residual`.
        It costs no solve beyond :attr:`direction`, which the ascent step
        reads anyway.  For 1ᵀr = 0 this norm lies between
        :func:`assembly.dual_norm` (the K + M dual norm) and √(1 + 1/λ₁)
        times it, λ₁ the first Neumann eigenvalue.
        """
        denom = max(2.0 * abs(self.multipliers[0]), 1e-300)
        return math.sqrt(max(self.slope, 0.0)) / denom

    # -- Euler–Lagrange data -----------------------------------------------

    @cached_property
    def coefficients(self) -> ELCoefficients:
        lam = self.lambda_eps
        if lam <= 0:
            raise PreconditionError("lambda_eps vanishes: state is identically zero")
        alpha, s = self.alpha, self.norm_sq
        beta_eps = (1.0 + alpha * s) / (1.0 + 2.0 * alpha * s)
        gamma_eps = alpha / (1.0 + 2.0 * alpha * s)
        mu_eps = beta_eps * self.moment(1) / assembly.area(self.surface)
        return ELCoefficients(
            alpha_eps=self.alpha_eps,
            beta_eps=beta_eps,
            gamma_eps=gamma_eps,
            lambda_eps=lam,
            mu_eps=mu_eps,
            norm_sq=s,
        )


# ---------------------------------------------------------------------------
# Functional, gradient, Euler–Lagrange data
# ---------------------------------------------------------------------------


def functional(surface: Surface, u, alpha: float, eps: float) -> FunctionalValue:
    """Evaluate F(u) = ∫ exp(β u²(1+α‖u‖₂²)) dv, β = 2π − ε, ε > 0."""
    return functional_at_beta(surface, u, alpha, check_subcritical(alpha, eps))


def functional_at_beta(
    surface: Surface, u, alpha: float, beta: float
) -> FunctionalValue:
    """Evaluate F(u) at an explicit exponent coefficient β > 0.

    Unlike :func:`functional`, this does not restrict β to the subcritical
    range — witness families are evaluated at and beyond the critical
    exponent, where the supremum may be infinite but any fixed state still
    has a finite quadrature value.  An exponent above ``EXP_MAX`` raises
    :class:`NumericalError`.
    """
    st = _State(surface, u, alpha, check_coefficients(alpha, beta))
    return FunctionalValue(value=st.value, max_exponent=st.max_exponent)


def gradient(surface: Surface, u, alpha: float, eps: float) -> np.ndarray:
    """Exact gradient of the discrete functional.

    ∇F = 2β(1+αs)·∫ u e^E φ_i + 2αβ·(∫ u² e^E)·Mu,  s = ‖u‖₂².
    """
    return _State(surface, u, alpha, check_subcritical(alpha, eps)).gradient


def el_coefficients(surface: Surface, u, alpha: float, eps: float) -> ELCoefficients:
    """Euler–Lagrange coefficients of the state u (see class docstring)."""
    return _State(surface, u, alpha, check_subcritical(alpha, eps)).coefficients


def el_residual(surface: Surface, u, alpha: float, eps: float) -> float:
    """Dual-norm residual of the Euler–Lagrange equation at u.

    The equation (for a unit-energy maximizer) reads
        K u = (β_ε/λ_ε) ∫ u e^E φ + γ_ε M u − (μ_ε/λ_ε) M·1,
    and the residual r is measured in the norm dual to the mean-zero H¹
    seminorm, √(rᵀx) with x from :func:`assembly.riesz_map`.  At a
    mean-zero u, 1ᵀr = 0 (μ_ε is chosen so), and this norm lies between
    :func:`assembly.dual_norm` and √(1 + 1/λ₁) times it.  At a feasible u it
    equals, up to rounding, the maximizer's stationarity residual
    (``MaximizeResult.residual``), but it is computed from
    :func:`el_coefficients`, independently of the KKT multipliers, so it
    can check a result.  A zero state raises :class:`PreconditionError`.
    """
    st = _State(surface, u, alpha, check_subcritical(alpha, eps))
    co = st.coefficients
    lam = co.lambda_eps
    r = (
        st.ku
        - (co.beta_eps / lam) * st.s1
        - co.gamma_eps * st.mu_vec
        + (co.mu_eps / lam) * assembly.mass_row_of_ones(surface)
    )
    return math.sqrt(max(float(r @ assembly.riesz_map(surface, r)), 0.0))


# ---------------------------------------------------------------------------
# Maximization
# ---------------------------------------------------------------------------


def _ascent_step(st: _State, step: float):
    """One Armijo step of Riemannian gradient ascent from ``st``.

    The direction is the gradient of F on the sphere {uᵀKu = 1, mean 0} in
    the metric uᵀKv, ``st.direction``, with slope ``st.slope``; the state
    has computed both already for its residual.  The step is halved from
    ``step`` until the sufficient-increase test holds.  Returns the
    accepted (state, step), or None when the slope is zero (stationary to
    machine precision) or no step increases F enough.
    """
    surface, u, d, slope = st.surface, st.u, st.direction, st.slope
    if not slope > 0:
        return None
    for _ in range(40):
        v = assembly.admissible(surface, u + step * d)[0]
        trial = _State(surface, v, st.alpha, st.beta)
        if trial.value >= st.value + 1e-4 * step * slope:
            return trial, step
        step *= 0.5
        if step < 1e-18:
            break
    return None


# MINRES stops when its residual, in the kkt_residual norm, is at most
# MINRES_RTOL·‖A‖·‖δ‖ (scipy's test).  The step then matches the exact Newton
# step to about 1e-5 relative, which keeps every fixed point; tighter only
# costs iterations.
MINRES_RTOL = 1e-6
MINRES_MAX_ITER = 100  # MINRES steps before the Newton step is given up


def _newton_system(st: _State) -> tuple:
    """The Hessian of the Newton system of ``st`` as ``(h, U, c2)``.

    Hessian of F:  H = H_sp + U C₂ Uᵀ with
      H_sp = 2β(1+αs)·Mass(e^E) + 4β²(1+αs)²·Mass(u²e^E) + 2αβλ·M
      U = [Mu, w̃],  w̃ = 4αβ·S1 + 4αβ·β(1+αs)·S3,  C₂ = [[κ,1],[1,0]],
      κ = 4α²β²·∫u⁴e^E,
    where U and C₂ have no columns when α = 0.  The Lagrangian Hessian is
    h + U C₂ Uᵀ with h = H_sp − 2A·K (sparse, K's pattern).  The Newton
    step δ lies in the tangent space T = {uᵀKδ = 0, 1ᵀMδ = 0} of the
    unit-energy, mean-zero manifold, and (h + U C₂ Uᵀ)δ plus the
    Lagrangian gradient is a combination of the constraint gradients Ku
    and M·1.

    The two weighted masses are one pass: Mass((2β(1+αs) + 4β²(1+αs)²u²)e^E)
    is a single element pass and scatter.  It, M and K are all assembled by
    ``assembly._scatter`` into the surface's one CSR pattern, so h is one
    linear combination of their ``data`` arrays, kept in CSR.
    """
    surface = st.surface
    alpha, beta = st.alpha, st.beta
    ae = st.alpha_eps
    k = assembly.stiffness(surface)
    m = assembly.mass(surface)
    a_mult = st.multipliers[0]

    h = assembly.weighted_mass(
        surface, (2.0 * ae + 4.0 * ae * ae * st.power(2)) * st.eE)
    h.data += (2.0 * alpha * beta * st.lambda_eps) * m.data
    h.data -= (2.0 * a_mult) * k.data

    if alpha > 0.0:
        s3 = assembly.load(surface, st.power(3) * st.eE)
        lam4 = st.moment(4)
        w_t = 4.0 * alpha * beta * (st.s1 + ae * s3)
        kappa = 4.0 * alpha * alpha * beta * beta * lam4
        return h, np.column_stack([st.mu_vec, w_t]), np.array([[kappa, 1.0],
                                                               [1.0, 0.0]])
    return h, np.zeros((st.u.size, 0)), np.zeros((0, 0))


def _newton_step(st: _State) -> np.ndarray | None:
    """Solve the Newton system of ``st`` on T by preconditioned MINRES; return δu.

    MINRES (Paige and Saunders, *SIAM J. Numer. Anal.* 12, 1975) runs from
    δ = 0 on v ↦ −(h·v + U·C₂·(Uᵀv)), stripped of its components along the
    constraint gradients Ku and M·1, with right-hand side the Lagrangian
    gradient, which has none.  The operator is indefinite away from a
    strict local maximum, which MINRES allows and a curvature-stopped CG
    does not.  The preconditioner is R, :func:`assembly.riesz_map` on the
    kept LU of K bordered with M·1.  On residuals r with uᵀr = 1ᵀr = 0,
    uᵀK·Rr = uᵀr = 0, so R equals Π R with Π x = x − (uᵀKx)·u: the
    constraint preconditioner of the Green solve (Gould, Hribar and
    Nocedal, *SIAM J. Sci. Comput.* 23, 2001).  Every iterate lies in
    T = {uᵀKδ = 0, 1ᵀMδ = 0}, and MINRES minimizes the residual in the norm
    of :attr:`_State.kkt_residual`, rᵀRr = ‖Rr‖²_K.

    The stripping matters in rounding.  Unstripped, the Ku and M·1 parts
    pile up in the Lanczos residual: R alone would step out of T, and
    Π R's form ‖Rr‖²_K − (uᵀK·Rr)², a difference of nearly equal numbers,
    goes negative (on acceptance 8's first Newton state, at scipy's rtol
    1e-8).  Where MINRES still breaks down, stops at ``MINRES_MAX_ITER``
    or returns a non-finite step, there is no Newton step and None is
    returned.
    """
    h, u_mat, c2 = _newton_system(st)
    surface, u, ku, n = st.surface, st.u, st.ku, st.u.size
    m1 = assembly.mass_row_of_ones(surface)
    area = assembly.area(surface)

    def hessian(v):
        y = -(h @ v + u_mat @ (c2 @ (u_mat.T @ v)))
        y -= float(u @ y) * ku
        return y - (float(y.sum()) / area) * m1

    try:
        du, info = spla.minres(
            spla.LinearOperator((n, n), matvec=hessian, dtype=float),
            st.lagrangian_gradient,
            M=spla.LinearOperator(
                (n, n), matvec=lambda r: assembly.riesz_map(surface, r),
                dtype=float),
            rtol=MINRES_RTOL, maxiter=MINRES_MAX_ITER)
    except ValueError:  # a negative preconditioner form
        return None
    if info != 0 or not np.all(np.isfinite(du)):
        return None
    return du


def maximize_subcritical(
    surface: Surface,
    alpha: float,
    eps: float,
    u0: np.ndarray | None = None,
    tol: float = 1e-8,
    max_ascent: int = 500,
    max_newton: int = 60,
) -> MaximizeResult:
    """Maximize F over {mean(u)=0, ‖∇u‖₂=1} for ε>0, α < λ₁.

    Deterministic given the seed: the default start is the first Neumann
    eigenfunction scaled to unit energy.  Phase 1 is Riemannian gradient
    ascent in the metric uᵀKv (:func:`_ascent_step`) with a
    sufficient-increase test, until the stationarity residual is at most
    NEWTON_SWITCH.  Its first step moves unit K-length, min(1, 1/√slope);
    each later one starts from the Barzilai–Borwein step sᵀKs / (−sᵀKy),
    s = u₊ − u and y = d₊ − d over the last accepted step, or from 1.3
    times the last step when sᵀKy ≥ 0 (Barzilai and Borwein, *IMA J.
    Numer. Anal.* 8, 1988; on constraint manifolds Wen and Yin, *Math.
    Program.* 142, 2013).  Phase 2 is damped Newton, its system solved by
    preconditioned MINRES on the tangent space (:func:`_newton_step`),
    accepting steps only when the stationarity residual decreases, with one
    ascent step where there is no Newton step or no damped one does.
    ``residual`` is the final state's stationarity residual (see
    :attr:`_State.kkt_residual` for its norm), the number the loop stops
    on, and ``converged`` compares that same number with ``tol``;
    :func:`el_residual` recomputes it from the Euler–Lagrange form.  A
    ``tol`` not above 0 raises :class:`UsageError` (:func:`spectrum.check_tol`).
    At most the current state and one trial state are alive at a time.
    """
    beta = check_subcritical(alpha, eps)
    spectrum.check_tol(tol)
    # Keep the LU that every state reads, so the eigen solve borrows it.
    assembly.neumann_solver(surface)
    spectrum.require_below_lambda1(surface, alpha)
    if u0 is None:
        u = spectrum.lambda1(surface).vector.copy()
    else:
        u = np.asarray(u0, dtype=float)
        if u.shape != (surface.num_vertices,):
            raise UsageError("seed vector length does not match the mesh")
    st = _State(surface, assembly.admissible(surface, u)[0], alpha, beta)

    k = assembly.stiffness(surface)
    step = 1.0 / max(1.0, math.sqrt(max(st.slope, 0.0)))  # unit K-length
    n_ascent = 0
    for n_ascent in range(1, max_ascent + 1):
        if st.kkt_residual <= max(NEWTON_SWITCH, tol):
            break
        accepted = _ascent_step(st, step)
        if accepted is None:
            break
        trial, step = accepted
        # Barzilai–Borwein step in the K-metric: s = u₊ − u, y = d₊ − d.
        s = trial.u - st.u
        ks = k @ s
        sky = float(ks @ (trial.direction - st.direction))
        step = min(float(s @ ks) / -sky if sky < 0.0 else 1.3 * step, 1e6)
        st = trial

    n_newton = 0
    while st.kkt_residual > tol and n_newton < max_newton:
        n_newton += 1
        du = _newton_step(st)
        tau = 1.0
        # Without a Newton step the damping loop is empty and falls through.
        for _ in range(0 if du is None else 12):
            v = assembly.admissible(surface, st.u + tau * du)[0]
            trial = _State(surface, v, alpha, beta)
            if trial.kkt_residual < st.kkt_residual:
                st = trial
                break
            tau *= 0.5
        else:
            # One safeguarded ascent step, then retry Newton.
            accepted = _ascent_step(st, 1.0)
            if accepted is None:
                break
            st = accepted[0]

    peak = int(np.argmax(np.abs(st.u)))
    return MaximizeResult(
        u=st.u,
        value=st.value,
        residual=st.kkt_residual,
        ascent_iterations=n_ascent,
        newton_iterations=n_newton,
        converged=bool(st.kkt_residual <= tol),
        tainted=False,
        peak_vertex=peak,
        peak_is_corner=bool(surface.boundary()[2][peak]),
    )


def best_seed(results: dict) -> str:
    """Name of the result to report among runs from several seeds.

    ``results`` maps seed names to :class:`MaximizeResult` in seed order.
    A converged result beats an unconverged one; among equals the larger
    F wins, but values within 1e-12 relative count as a tie, which keeps
    the earlier seed, so last-bit noise cannot decide the choice.
    """
    names = iter(results)
    best = next(names)
    for name in names:
        res, cur = results[name], results[best]
        if res.converged != cur.converged:
            better = res.converged
        else:
            better = res.value - cur.value > 1e-12 * max(abs(res.value),
                                                         abs(cur.value))
        if better:
            best = name
    return best


# ---------------------------------------------------------------------------
# Blow-up diagnostics
# ---------------------------------------------------------------------------


def blowup_diagnostics(
    surface: Surface,
    u,
    alpha: float,
    eps: float,
    rho_max: float = 1.0,
) -> BlowupDiagnostics:
    """Concentration data of a (near-)maximizer.

    The state is sign-normalized so its extremum is a positive peak; the
    concentration scale is r = √(λ_ε / (β_ε c² e^{α_ε c²})).  Rescaled
    profiles ψ = u(x* + rρω)/c and φ = c(u(x* + rρω) − c) are sampled by
    :func:`assembly.evaluate`, NaN outside the mesh, on a fan of FAN_DIRS
    directions ω evenly spread over [base − half, base + half]:

    * at a boundary peak, base is the bisector of the inward normals of
      the two boundary edges at x* (from :meth:`Surface.boundary`); half
      is FAN_HALF_ANGLE at a smooth vertex and FAN_HALF_ANGLE − turn/2 at
      a domain corner, where turn is the boundary polygon's turning angle,
      so every ray stays 90° − FAN_HALF_ANGLE inside the corner's angle;
    * at an interior peak, base is 0 and the rays are spaced 2π/FAN_DIRS
      over the full turn.
    """
    u = np.asarray(u, dtype=float)
    if abs(float(u.min())) > abs(float(u.max())):
        u = -u
    vertex = int(np.argmax(u))
    c = float(u[vertex])
    if c <= 0:
        raise PreconditionError("state has no positive peak")
    x_star = surface.vertices[vertex].copy()

    co = el_coefficients(surface, u, alpha, eps)
    arg = co.alpha_eps * c * c
    if arg > EXP_MAX:
        raise NumericalError("peak exponent overflows the concentration scale")
    r = math.sqrt(co.lambda_eps / (co.beta_eps * c * c * math.exp(arg)))

    before, after, corner = surface.boundary()
    if after[vertex] < 0:  # interior peak: the full turn, evenly spaced
        base, half = 0.0, math.pi * (1.0 - 1.0 / FAN_DIRS)
    else:
        a = x_star - surface.vertices[before[vertex]]  # incoming edge
        b = surface.vertices[after[vertex]] - x_star  # outgoing edge
        turn = math.atan2(a[0] * b[1] - a[1] * b[0], a[0] * b[0] + a[1] * b[1])
        # The bisector of the two edges' inward (left) normals.
        base = math.atan2(a[1], a[0]) + 0.5 * (math.pi + turn)
        half = math.radians(FAN_HALF_ANGLE)
        if corner[vertex]:  # keep the outer rays 90° − FAN_HALF_ANGLE inside
            half -= 0.5 * turn
    angles = base + np.linspace(-half, half, FAN_DIRS)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    rho = np.linspace(0.0, rho_max, FAN_RADII)

    pts = x_star + (r * rho)[None, :, None] * dirs[:, None, :]
    vals = assembly.evaluate(surface, u, pts.reshape(-1, 2))
    vals = vals.reshape(FAN_DIRS, FAN_RADII)
    psi = vals / c
    phi = c * (vals - c)
    # The center sample is exact by construction.
    psi[:, 0] = 1.0
    phi[:, 0] = 0.0
    return BlowupDiagnostics(
        c=c,
        x=x_star,
        vertex=vertex,
        r=r,
        lambda_eps=co.lambda_eps,
        alpha_eps=co.alpha_eps,
        beta_eps=co.beta_eps,
        rho=rho,
        psi=psi,
        phi=phi,
    )

