"""Mean-zero Neumann Green function with a boundary pole.

For a boundary vertex x₀ and 0 ≤ α < λ₁, solves

    (K − αM) G = δ_{x₀} − (1/Area)·M·1,    ∫ G dv = 0,

via a bordered (Lagrange-multiplier) system so the mean constraint holds
exactly.  Near a *smooth* boundary point the continuum Green function
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
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly, spectrum
from .errors import NumericalError, PreconditionError, UsageError
from .surface import Surface

LOG_COEFF = -1.0 / math.pi  # smooth-boundary pole coefficient


@dataclass(frozen=True)
class GreenResult:
    """Discrete Green function with pole at a boundary vertex."""

    values: np.ndarray
    vertex: int
    x0: np.ndarray
    alpha: float
    norm_l2_sq: float
    residual: float


def _require_smooth_boundary_vertex(surface: Surface, vertex: int) -> None:
    """Usage error out of range; precondition error off the smooth boundary."""
    if not (0 <= vertex < surface.num_vertices):
        raise UsageError(f"vertex index {vertex} out of range")
    if vertex not in set(surface.boundary_vertex_indices().tolist()):
        raise PreconditionError(f"vertex {vertex} is not on the boundary")
    corners = set(surface.corner_vertex_indices().tolist())
    if vertex in corners:
        raise PreconditionError(
            f"vertex {vertex} is a domain corner, where the smooth-boundary "
            "constants do not apply"
        )


def green_function(surface: Surface, vertex: int, alpha: float = 0.0) -> GreenResult:
    """Solve the mean-zero Green problem with pole at ``vertex``."""
    if alpha < 0 or not math.isfinite(alpha):
        raise UsageError("alpha must be nonnegative and finite")
    _require_smooth_boundary_vertex(surface, vertex)
    if alpha > 0.0:
        # The shifted operator is definite on mean-zero fields only below
        # the first nonzero Neumann eigenvalue; alpha = 0 needs no check.
        lam1 = spectrum.lambda1(surface).value
        if alpha >= lam1:
            raise PreconditionError(
                f"alpha = {alpha} is not below the spectral threshold {lam1:.6f}"
            )

    n = surface.num_vertices
    k = assembly.stiffness(surface)
    m = assembly.mass(surface)
    m1 = assembly.mass_row_of_ones(surface)
    a = assembly.area(surface)

    rhs = -m1 / a
    rhs[vertex] += 1.0
    mat = sp.bmat(
        [[(k - alpha * m).tocsc(), sp.csc_matrix(m1[:, None])],
         [sp.csc_matrix(m1[None, :]), None]],
        format="csc",
    )
    try:
        lu = spla.splu(mat)
        sol, residual = assembly.refined_solve(
            lu, mat, np.concatenate([rhs, [0.0]]), 1e-13
        )
    except RuntimeError as exc:
        raise NumericalError(f"Green solve failed: {exc}") from exc
    if residual > 1e-10:
        raise NumericalError(
            f"Green solve stalled at relative residual {residual:.3e}"
        )
    g = sol[:n]
    if not np.all(np.isfinite(g)):
        raise NumericalError("Green solve produced non-finite values")
    norm_sq = float(g @ (m @ g))
    return GreenResult(
        values=g,
        vertex=vertex,
        x0=surface.vertices[vertex].copy(),
        alpha=float(alpha),
        norm_l2_sq=norm_sq,
        residual=residual,
    )


def _annulus(surface: Surface, x0: np.ndarray, r_inner: float,
             r_outer: float, min_points: int):
    """Indices and radii of the ≥ ``min_points`` vertices in the annulus."""
    r = np.hypot(
        surface.vertices[:, 0] - x0[0], surface.vertices[:, 1] - x0[1]
    )
    idx = np.flatnonzero((r >= r_inner) & (r <= r_outer))
    if idx.size < min_points:
        raise PreconditionError(
            f"annulus [{r_inner}, {r_outer}] holds only {idx.size} vertices "
            f"(need {min_points}); refine the mesh"
        )
    return idx, r[idx]


def extract_A(
    surface: Surface,
    green: GreenResult,
    r_inner: float = 0.1,
    r_outer: float = 0.2,
    min_points: int = 30,
) -> tuple[float, dict]:
    """Additive constant A: annulus average of G + (1/π) log r.

    The constant-least-squares fit over annulus vertices is exactly the
    mean of G − LOG_COEFF·log r restricted to the annulus.  Returns the
    constant together with a fit report carrying the annulus bounds, the
    point count, and the RMS of the per-point deviations from the fit.
    """
    idx, r = _annulus(surface, green.x0, r_inner, r_outer, min_points)
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
    min_points: int = 30,
):
    """Two-parameter fit G ≈ c_log·log r + c₀ over an annulus.

    Returns (c_log, c0, n_points); c_log should approach −1/π at a smooth
    boundary pole.
    """
    idx, r = _annulus(surface, green.x0, r_inner, r_outer, min_points)
    basis = np.column_stack([np.log(r), np.ones(idx.size)])
    coef, *_ = np.linalg.lstsq(basis, green.values[idx], rcond=None)
    return float(coef[0]), float(coef[1]), int(idx.size)


def sigma_field(surface: Surface, green: GreenResult, a_const: float) -> np.ndarray:
    """Regular part σ = G + (1/π) log r − A, with σ(x₀) = 0 by definition."""
    r = np.hypot(
        surface.vertices[:, 0] - green.x0[0],
        surface.vertices[:, 1] - green.x0[1],
    )
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
    min_points: int = 30,
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
        a, report = extract_A(surface, green, r0, r1, min_points)
        a_values.append(a)
        a_reports.append(report)
    span_inner = min(r0 for r0, _ in annuli)
    span_outer = max(r1 for _, r1 in annuli)
    c_log, c0, n_pts = log_coefficient_fit(
        surface, green, span_inner, span_outer, min_points
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
