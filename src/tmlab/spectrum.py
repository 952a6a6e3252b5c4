"""First nonzero eigenvalue of the mean-zero Neumann Laplacian.

Solves the generalized problem K u = λ M u on the mean-zero subspace
(K the flat stiffness matrix, M the metric mass matrix; natural boundary
conditions are built into the weak form).  One shift-invert Lanczos
solve (ARPACK through ``scipy.sparse.linalg.eigsh``; Ericsson & Ruhe
1980) at σ = 0 reads the one LU of the mean-zero Neumann operator, K
bordered with M·1 (:func:`tmlab.assembly.neumann_lu`; ``Surface.cache``
says when it is kept).  Solving it for [M v; 0] gives the mean-zero x
with Kx = Mv − μ·M·1: each eigenvector of λ > 0 goes to itself over λ,
and the constant mode, whose M v the border absorbs, goes to 0.  So
λ = 0 is deflated by the operator itself.  Two Ritz pairs are kept:
symmetric domains carry numerically split multiple eigenvalues (splits
~1e-6 relative), and the smaller pair of a resolved cluster is the one
returned.  The start vector is deterministic, so results are
reproducible across runs.

Every α > 0 solve first checks α < λ₁ (:func:`require_below_lambda1`),
by one rule in three steps: compare α with λ₁ when λ₁ is cached; else
return when α lies below :func:`lambda1_lower_bound`; else solve for λ₁
and compare.  The bound is e^{−2·max f}·π²/d² on a mesh whose boundary
polygon is convex with diameter at most d, and 0 on any other mesh.  It
holds for the discrete λ₁ of the mesh itself: K and M are exact P1
integrals and P1 ⊂ H¹, so by min-max the P1 λ₁ is at least the λ₁ of the
polygon, which Payne and Weinberger bound below by π²/d²; the metric
weight e^{2f} at the quadrature points is at most e^{2·max f}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from . import assembly
from .errors import NumericalError, PreconditionError, UsageError
from .surface import Surface


@dataclass(frozen=True)
class Eigenpair:
    """First nonconstant Neumann eigenpair.

    ``vector`` has metric mean zero and unit metric L² norm; the sign is
    fixed so that u is positive at the lowest-index boundary vertex whose
    |u| is within 1e-9 (relative) of the boundary maximum.
    ``iterations`` counts the shift-invert solves, each one solve of K
    bordered with M·1.
    """

    value: float
    vector: np.ndarray
    residual: float
    iterations: int


def eigen_residual(surface: Surface, u: np.ndarray, lam: float) -> float:
    """Dual-norm residual ‖Ku − λMu‖_{(K+M)⁻¹} / ‖u‖_{L²}."""
    k = assembly.stiffness(surface)
    m = assembly.mass(surface)
    r = k @ u - lam * (m @ u)
    denom = assembly.l2_norm(surface, u)
    if denom == 0.0:
        raise NumericalError("eigen_residual of the zero vector")
    return assembly.dual_norm(surface, r) / denom


def _shift_invert(surface: Surface, k, m) -> tuple:
    """Two Ritz pairs of K u = λ M u at σ = 0 and the solves they took.

    The LU it reads is dropped on return, before K + M is factored.
    """
    x1, x2 = surface.vertices[:, 0], surface.vertices[:, 1]
    v0 = x1 + 0.3 * x2 + 0.05 * np.sin(3.0 * (x1 + x2))
    lu = assembly.neumann_lu(surface)
    solves = 0

    def solve(b: np.ndarray) -> np.ndarray:
        nonlocal solves
        solves += 1
        return lu.solve(np.append(b, 0.0))[:-1]

    op_inv = spla.LinearOperator(k.shape, matvec=solve, dtype=float)
    try:
        vals, vecs = spla.eigsh(k, k=2, M=m, sigma=0.0, OPinv=op_inv, v0=v0)
    except spla.ArpackError as exc:
        raise NumericalError(f"shift-invert Lanczos failed: {exc}") from exc
    return vals, vecs, solves


def check_tol(tol: float) -> None:
    """The one rule for a residual tolerance: ``tol > 0``, else :class:`UsageError`."""
    if not tol > 0:
        raise UsageError(f"tol must be positive, not {tol}")


def first_eigenpair(surface: Surface, tol: float = 1e-10) -> Eigenpair:
    """Compute the smallest nonzero Neumann eigenvalue and its eigenfunction.

    Raises :class:`UsageError` when ``tol`` is not positive (:func:`check_tol`),
    and :class:`NumericalError` when the factorization or ARPACK fails, or
    when the dual-norm residual of the returned pair exceeds ``tol``.
    """
    check_tol(tol)
    k = assembly.stiffness(surface)
    m = assembly.mass(surface)
    vals, vecs, solves = _shift_invert(surface, k, m)
    u = assembly.mean_zero_project(surface, vecs[:, int(np.argmin(vals))])
    u /= assembly.l2_norm(surface, u)
    # Sign anchor: the lowest-index boundary vertex within 1e-9 (relative)
    # of max |u|, so mirror peaks that differ by solver noise cannot flip u.
    bidx = np.flatnonzero(surface.boundary()[1] >= 0)
    mag = np.abs(u[bidx])
    top = float(mag.max())
    anchor = bidx[int(np.argmax(mag >= top - 1e-9 * max(top, 1.0)))]
    if u[anchor] < 0:
        u = -u
    lam = float(u @ (k @ u)) / float(u @ (m @ u))
    residual = eigen_residual(surface, u, lam)
    if residual > tol:
        raise NumericalError(
            f"eigen residual {residual:.3e} exceeds tol {tol:.3e} "
            f"after {solves} shift-invert solves"
        )
    return Eigenpair(value=lam, vector=u, residual=residual, iterations=solves)


def lambda1(surface: Surface) -> Eigenpair:
    """The first eigenpair of ``surface`` at ``tol=1e-8``, solved once.

    The pair is kept in ``surface.cache["lambda1"]``; a pair already stored
    there is returned as it is.  Every threshold check (α < λ₁) and every
    eigenfunction seed reads the eigenpair through this accessor.
    """
    pair = surface.cache.get("lambda1")
    if pair is None:
        pair = surface.cache["lambda1"] = first_eigenpair(surface, tol=1e-8)
    return pair


def lambda1_lower_bound(surface: Surface) -> float:
    """A proven lower bound on the discrete λ₁ of ``surface``, from its
    geometry alone: e^{−2·max f}·π²/d²·(1 − 1e-9), d the bound of
    :meth:`Surface.convex_diameter_bound`, and 0 when the boundary polygon
    Ω_h is not convex.

    Proof, for a surface that passes ``validate``:

    * f = 0.  K and M are the exact integrals of P1 fields over Ω_h: the
      gradients are constant on each triangle, and the degree-4 rule, whose
      weights are positive, integrates the quadratic products φᵢφⱼ exactly.
      P1 ⊂ H¹(Ω_h), so by min-max the P1 λ₁ is at least λ₁(Ω_h).
    * On a convex Ω_h of diameter d, λ₁(Ω_h) ≥ π²/d² (Payne and
      Weinberger, *Arch. Rational Mech. Anal.* 5, 1960; the proof corrected
      by Bebendorf, *Z. Anal. Anwend.* 22, 2003).
    * f ≠ 0.  K does not depend on f.  At each quadrature point f_h is a
      convex combination of nodal values, so f_h ≤ max f, and the weights
      are positive: uᵀM_f u ≤ e^{2·max f}·uᵀM_0 u for every u.  Let u have
      metric mean zero and c be its flat mean.  The metric mean minimizes
      (u − c)ᵀM_f(u − c) over constants, and K kills constants, so
      uᵀKu / uᵀM_f u ≥ e^{−2·max f}·(u − c)ᵀK(u − c) / (u − c)ᵀM_0(u − c)
      ≥ e^{−2·max f}·λ₁^h(0).

    The factor 1 − 1e-9 absorbs the rounding of the quadrature weights,
    of the convexity test and of d.  The exponent is capped at 700, which
    only lowers the bound, so that it stays finite.
    """
    d = surface.convex_diameter_bound()
    if d is None:
        return 0.0
    scale = math.exp(min(-2.0 * float(surface.f_nodal.max()), 700.0))
    return (1.0 - 1e-9) * scale * math.pi**2 / d**2


def require_below_lambda1(surface: Surface, alpha: float) -> None:
    """PreconditionError unless α < λ₁, below which K − αM is definite on
    mean-zero fields.

    α = 0 always lies below λ₁ and solves nothing.  For α > 0:

    1. λ₁ cached (:func:`lambda1`): compare α with it;
    2. else, α below :func:`lambda1_lower_bound` (its docstring holds the
       proof): return without solving;
    3. else: solve for λ₁, keep it, and compare.
    """
    if alpha <= 0.0:
        return
    if "lambda1" not in surface.cache and alpha < lambda1_lower_bound(surface):
        return
    if alpha >= (lam1 := lambda1(surface).value):
        raise PreconditionError(
            f"alpha = {alpha} is not below the spectral threshold {lam1:.6f}")


def reaches_threshold(alpha: float, threshold: float) -> bool:
    """Whether α is at the threshold λ₁ or above it, to 1e-12 relative."""
    return alpha >= threshold * (1.0 - 1e-12)
