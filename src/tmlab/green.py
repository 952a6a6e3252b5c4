"""Mean-zero Neumann Green function with a boundary pole.

For a boundary vertex x₀ and 0 ≤ α < λ₁, solves

    (K − αM) G = δ_{x₀} − (1/Area)·M·1,    ∫ G dv = 0

by conjugate gradients on mean-zero fields, preconditioned with the one
LU of the mean-zero Neumann operator (:func:`tmlab.assembly.riesz_map`,
K bordered with M·1).  That map is a constraint preconditioner (Gould,
Hribar & Nocedal, *SIAM J. Sci. Comput.* 23, 2001): it returns mean-zero
fields, so every iterate keeps ∫ G dv = 0.  The iteration starts from
the preconditioned right-hand side, which at α = 0 is already the
solution.  For α > 0 the preconditioned operator has the eigenvalues
1 − α/λⱼ, so its condition number is at most λ₁/(λ₁ − α); a few
conjugate-gradient steps reach the tolerance.

Near a *smooth* boundary point the continuum Green function
behaves like −(1/π)·log r + A + O(r): the boundary pole carries twice the
interior logarithm, and the additive constant A is the quantity the
sharp-threshold analysis needs.  This module extracts A by annulus
averaging of G + (1/π)log r, fits the log coefficient for verification,
and forms the regular remainder field σ = G + (1/π)log r − A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla  # noqa: F401  (bench/tracer.py checks it)

from . import assembly, moser, spectrum
from .errors import NumericalError, PreconditionError
from .surface import Surface

LOG_COEFF = -1.0 / math.pi  # smooth-boundary pole coefficient
MIN_ANNULUS_POINTS = 30  # fewest vertices an annulus fit may use
CG_RTOL = 1e-13  # relative residual ‖b − (K − αM)G‖/‖b‖ the solve reaches
CG_MAX_ITER = 100  # conjugate-gradient steps before the solve gives up


@dataclass(frozen=True)
class GreenResult:
    """Discrete Green function with pole at a boundary vertex."""

    values: np.ndarray
    vertex: int
    x0: np.ndarray
    alpha: float
    norm_l2_sq: float
    residual: float


def green_function(surface: Surface, vertex: int, alpha: float = 0.0) -> GreenResult:
    """Solve the mean-zero Green problem with pole at ``vertex``."""
    moser.check_coefficients(alpha)
    surface.require_smooth_boundary_vertex(vertex)
    spectrum.require_below_lambda1(surface, alpha)

    k = assembly.stiffness(surface)
    m = assembly.mass(surface)
    op = k - alpha * m if alpha > 0.0 else k
    rhs = -assembly.mass_row_of_ones(surface) / assembly.area(surface)
    rhs[vertex] += 1.0
    scale = float(np.linalg.norm(rhs))
    g = assembly.riesz_map(surface, rhs)
    r = rhs - op @ g
    p, rz_old = np.zeros_like(g), 0.0
    for step in range(CG_MAX_ITER + 1):
        if float(np.linalg.norm(r)) <= CG_RTOL * scale:
            break
        if step == CG_MAX_ITER:
            raise NumericalError(f"Green solve did not reach residual {CG_RTOL:.0e} "
                                 f"in {CG_MAX_ITER} conjugate-gradient steps")
        z = assembly.riesz_map(surface, r)
        rz = float(r @ z)
        p = z + (rz / rz_old if step else 0.0) * p
        rz_old, q = rz, op @ p
        curvature = float(p @ q)
        if not curvature > 0.0:
            raise NumericalError("Green operator is not positive on mean-zero "
                                 f"fields: pᵀ(K − αM)p = {curvature:.3e}")
        g += (rz / curvature) * p
        r -= (rz / curvature) * q
    residual = float(np.linalg.norm(rhs - op @ g)) / scale
    if not residual <= 1e-10:  # NaN too: a non-finite G has a NaN residual
        raise NumericalError(f"Green solve stalled at relative residual {residual:.3e}")
    return GreenResult(
        values=g,
        vertex=vertex,
        x0=surface.vertices[vertex].copy(),
        alpha=float(alpha),
        norm_l2_sq=float(g @ (m @ g)),
        residual=residual,
    )


def _annulus(surface: Surface, x0: np.ndarray, r_inner: float,
             r_outer: float):
    """Indices and radii of the ≥ MIN_ANNULUS_POINTS vertices in the annulus."""
    r = surface.distances(x0)
    idx = np.flatnonzero((r >= r_inner) & (r <= r_outer))
    if idx.size < MIN_ANNULUS_POINTS:
        raise PreconditionError(
            f"annulus [{r_inner}, {r_outer}] holds only {idx.size} vertices "
            f"(need {MIN_ANNULUS_POINTS}); refine the mesh"
        )
    return idx, r[idx]


def check_annuli(surface: Surface, x0: np.ndarray, annuli: list) -> None:
    """PreconditionError unless each annulus around ``x0`` holds enough
    vertices; the log fit's span contains them all, so it holds enough too."""
    for r_inner, r_outer in annuli:
        _annulus(surface, x0, r_inner, r_outer)


def extract_A(
    surface: Surface,
    green: GreenResult,
    r_inner: float = 0.1,
    r_outer: float = 0.2,
) -> tuple[float, dict]:
    """Additive constant A: annulus average of G + (1/π) log r.

    The constant-least-squares fit over annulus vertices is exactly the
    mean of G − LOG_COEFF·log r restricted to the annulus.  Returns the
    constant together with a fit report carrying the annulus bounds, the
    point count, and the RMS of the per-point deviations from the fit.
    """
    idx, r = _annulus(surface, green.x0, r_inner, r_outer)
    samples = green.values[idx] - LOG_COEFF * np.log(r)
    a = float(np.mean(samples))
    report = {
        "r_inner": float(r_inner),
        "r_outer": float(r_outer),
        "n_points": int(idx.size),
        "residual_rms": float(np.sqrt(np.mean((samples - a) ** 2))),
    }
    return a, report


def log_coefficient_fit(
    surface: Surface,
    green: GreenResult,
    r_inner: float,
    r_outer: float,
):
    """Two-parameter fit G ≈ c_log·log r + c₀ over an annulus.

    Returns (c_log, c0, n_points); c_log should approach −1/π at a smooth
    boundary pole.
    """
    idx, r = _annulus(surface, green.x0, r_inner, r_outer)
    basis = np.column_stack([np.log(r), np.ones(idx.size)])
    coef, *_ = np.linalg.lstsq(basis, green.values[idx], rcond=None)
    return float(coef[0]), float(coef[1]), int(idx.size)


def sigma_field(surface: Surface, green: GreenResult, a_const: float) -> np.ndarray:
    """Regular part σ = G + (1/π) log r − A, with σ(x₀) = 0 by definition."""
    r = surface.distances(green.x0)
    sigma = np.empty(surface.num_vertices)
    at_pole = r < 1e-300
    with np.errstate(divide="ignore"):
        sigma[~at_pole] = (
            green.values[~at_pole]
            - LOG_COEFF * np.log(r[~at_pole])
            - a_const
        )
    sigma[at_pole] = 0.0
    return sigma


def green_decomposition(
    surface: Surface,
    green: GreenResult,
    annuli: list | None = None,
) -> dict:
    """Pole-strength and constant diagnostics used by the Green checks.

    Returns annulus-wise A estimates, a two-parameter log fit across the
    union of the annuli, and the σ field for the first annulus constant.
    """
    if annuli is None:
        annuli = [(0.1, 0.2), (0.2, 0.3)]
    a_values = []
    a_reports = []
    for r0, r1 in annuli:
        a, report = extract_A(surface, green, r0, r1)
        a_values.append(a)
        a_reports.append(report)
    span_inner = min(r0 for r0, _ in annuli)
    span_outer = max(r1 for _, r1 in annuli)
    c_log, c0, n_pts = log_coefficient_fit(
        surface, green, span_inner, span_outer
    )
    sigma = sigma_field(surface, green, a_values[0])
    return {
        "annuli": [list(a) for a in annuli],
        "A_estimates": a_values,
        "A_reports": a_reports,
        "A_spread": float(max(a_values) - min(a_values)),
        "log_coefficient": c_log,
        "log_coefficient_expected": LOG_COEFF,
        "fit_constant": c0,
        "fit_points": n_pts,
        "residual": green.residual,
        "sigma": sigma,
    }
