"""First nonzero eigenvalue of the mean-zero Neumann Laplacian.

Solves the generalized problem K u = λ M u on the mean-zero subspace
(K the flat stiffness matrix, M the metric mass matrix; natural boundary
conditions are built into the weak form).  λ = 0 with constant
eigenfunction is removed by M-orthogonal deflation.  The first nonzero
eigenpair is computed by *block* inverse iteration with Rayleigh–Ritz
extraction: symmetric domains carry numerically split multiple
eigenvalues (splits ~1e-7), which stall single-vector iteration, while a
converged block subspace lets Ritz rotation separate the cluster exactly.
Start vectors are deterministic, so results are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from . import assembly
from .errors import NumericalError
from .surface import Surface


@dataclass(frozen=True)
class Eigenpair:
    """First nonconstant Neumann eigenpair.

    ``vector`` has metric mean zero and unit metric L² norm; the sign is
    fixed so the boundary entry of largest magnitude is positive.
    """

    value: float
    vector: np.ndarray
    residual: float
    iterations: int


def _deflate(surface: Surface):
    m1 = assembly.mass_row_of_ones(surface)
    a = assembly.area(surface)

    def project(v: np.ndarray) -> np.ndarray:
        return v - (m1 @ v) / a

    return project


def eigen_residual(surface: Surface, u: np.ndarray, lam: float) -> float:
    """Dual-norm residual ‖Ku − λMu‖_{(K+M)⁻¹} / ‖u‖_{L²}."""
    k = assembly.stiffness(surface)
    m = assembly.mass(surface)
    r = k @ u - lam * (m @ u)
    denom = assembly.l2_norm(surface, u)
    if denom == 0.0:
        raise NumericalError("eigen_residual of the zero vector")
    return assembly.dual_norm(surface, r) / denom


def _start_block(surface: Surface, width: int) -> np.ndarray:
    """Deterministic, generically independent start vectors."""
    x1, x2 = surface.vertices[:, 0], surface.vertices[:, 1]
    cols = [
        x1 + 0.3 * x2 + 0.05 * np.sin(3.0 * (x1 + x2)),
        x2 - 0.25 * x1 + 0.05 * np.cos(2.0 * x1),
        x1 * x2 + 0.1 * np.sin(2.0 * x1 - x2),
        x1 * x1 - x2 * x2 + 0.07 * np.cos(x1 + 2.0 * x2),
        np.sin(2.0 * x1) + np.cos(3.0 * x2),
    ]
    if width > len(cols):
        raise NumericalError("block width larger than available start vectors")
    return np.column_stack(cols[:width])


def _m_orthonormalize(v: np.ndarray, m) -> np.ndarray:
    """M-orthonormalize columns via the Gram matrix (eigenvalue-safe)."""
    g = v.T @ (m @ v)
    s, q = sla.eigh(g)
    keep = s > max(s.max(), 0.0) * 1e-24
    if not keep.all():
        raise NumericalError("rank-deficient block in inverse iteration")
    return v @ (q / np.sqrt(s))


def first_eigenpair(
    surface: Surface,
    tol: float = 1e-10,
    max_iter: int = 400,
    block: int = 3,
) -> Eigenpair:
    """Compute the smallest nonzero Neumann eigenvalue and its eigenfunction.

    Block inverse iteration on the constant-deflated subspace with a tiny
    positive shift (so the factorized operator is nonsingular).  Each sweep
    applies the inverse with one step of iterative refinement, re-projects
    the constants, M-orthonormalizes, and extracts Ritz pairs; the sweep
    stops when the first Ritz pair's dual-norm residual is below
    ``tol``.
    """
    k = assembly.stiffness(surface)
    m = assembly.mass(surface)
    project = _deflate(surface)

    v = _start_block(surface, block)
    for j in range(block):
        v[:, j] = project(v[:, j])
    v = _m_orthonormalize(v, m)

    # Shift at a fraction of the smallest start-block Rayleigh quotient:
    # an O(λ₁) physical scale that keeps the factorized matrix definite
    # without wrecking the contraction ratio.  (Mesh-dependent bounds such
    # as Gershgorin estimates explode on locally graded meshes.)
    rayleigh = min(float(v[:, j] @ (k @ v[:, j])) for j in range(block))
    rho = max(0.1 * rayleigh, 1e-12)
    shifted = (k + rho * m).tocsc()
    try:
        lu = spla.splu(shifted)
    except RuntimeError as exc:
        raise NumericalError(f"eigen factorization failed: {exc}") from exc

    def solve(b: np.ndarray) -> np.ndarray:
        # Iterative refinement until the linear residual is negligible,
        # so the eigen-iteration's attainable accuracy is set by the
        # pencil, not by the factorization's forward error.
        return assembly.refined_solve(lu, shifted, b, 1e-14)[0]

    lam = np.inf
    res = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        w = np.column_stack([project(solve(np.asarray(m @ v[:, j]))) for j in range(block)])
        w = _m_orthonormalize(w, m)
        # Rayleigh–Ritz in the block subspace (columns are M-orthonormal).
        s = w.T @ (k @ w)
        s = 0.5 * (s + s.T)
        vals, q = sla.eigh(s)
        v = w @ q
        lam = float(vals[0])
        res = eigen_residual(surface, v[:, 0], lam)
        if res <= tol:
            break
    else:
        raise NumericalError(
            f"block inverse iteration did not converge: residual {res:.3e} "
            f"after {max_iter} sweeps"
        )

    u = project(v[:, 0])
    u /= assembly.l2_norm(surface, u)
    bidx = surface.boundary_vertex_indices()
    anchor = bidx[int(np.argmax(np.abs(u[bidx])))]
    if u[anchor] < 0:
        u = -u
    lam = float(u @ (k @ u)) / float(u @ (m @ u))
    return Eigenpair(
        value=lam,
        vector=u,
        residual=eigen_residual(surface, u, lam),
        iterations=it,
    )


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
