"""Piecewise-linear finite-element operators on a conformal surface.

All metric integrals use the measure e^{2f} dx with f interpolated
piecewise-linearly from its nodal values, integrated by the single
6-point degree-4 triangle rule from :mod:`tmlab.quadrature`.  Every
nonlinear quantity in the package (functional values, load vectors,
moments) is defined through the *same* rule, so discrete optimality
conditions close exactly.

The Dirichlet energy is conformally invariant in two dimensions, so the
stiffness matrix is the flat one and does not involve f.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import quadrature as quad
from .errors import NumericalError, UsageError
from .surface import Surface

# ---------------------------------------------------------------------------
# Geometry caches
# ---------------------------------------------------------------------------


def p1_gradients(surface: Surface) -> np.ndarray:
    """(nt, 3, 2) gradients of the three hat functions on each triangle."""
    key = "p1_gradients"
    if key not in surface.cache:
        c = surface.tri_coords()
        areas = surface.euclidean_tri_areas()
        g = np.empty((surface.num_triangles, 3, 2))
        for i in range(3):
            e = c[:, (i + 2) % 3] - c[:, (i + 1) % 3]
            g[:, i, 0] = -e[:, 1]
            g[:, i, 1] = e[:, 0]
        g /= (2.0 * areas)[:, None, None]
        surface.cache[key] = g
    return surface.cache[key]


def quad_points(surface: Surface) -> np.ndarray:
    """(nt, 6, 2) physical quadrature points."""
    key = "quad_points"
    if key not in surface.cache:
        surface.cache[key] = quad.physical_points(surface.tri_coords())
    return surface.cache[key]


def quad_weights(surface: Surface) -> np.ndarray:
    """(nt, 6) metric quadrature weights A_t · w_q · e^{2 f(x_q)}."""
    key = "quad_weights"
    if key not in surface.cache:
        areas = surface.euclidean_tri_areas()
        f_q = interpolate(surface, surface.f_nodal)
        surface.cache[key] = areas[:, None] * quad.WEIGHTS[None, :] * np.exp(2.0 * f_q)
    return surface.cache[key]


def interpolate(surface: Surface, u: np.ndarray) -> np.ndarray:
    """Values of the nodal field ``u`` at all quadrature points, (nt, 6)."""
    return np.einsum("ti,qi->tq", u[surface.triangles], quad.BARY)


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _scatter(surface: Surface, element: np.ndarray) -> sp.csr_matrix:
    """Assemble (nt, 3, 3) element matrices into a CSR vertex matrix."""
    tris = surface.triangles
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    mat = sp.coo_matrix(
        (element.ravel(), (rows, cols)),
        shape=(surface.num_vertices, surface.num_vertices),
    )
    return mat.tocsr()


def stiffness(surface: Surface) -> sp.csr_matrix:
    """Flat Dirichlet stiffness matrix (conformally invariant)."""
    key = "stiffness"
    if key not in surface.cache:
        g = p1_gradients(surface)
        areas = surface.euclidean_tri_areas()
        element = np.einsum("t,tik,tjk->tij", areas, g, g)
        surface.cache[key] = _scatter(surface, element)
    return surface.cache[key]


def mass(surface: Surface) -> sp.csr_matrix:
    """Consistent metric mass matrix ∫ φ_i φ_j e^{2f} dx."""
    key = "mass"
    if key not in surface.cache:
        w = quad_weights(surface)
        element = np.einsum("tq,qi,qj->tij", w, quad.BARY, quad.BARY)
        surface.cache[key] = _scatter(surface, element)
    return surface.cache[key]


def weighted_mass(surface: Surface, gq: np.ndarray) -> sp.csr_matrix:
    """Mass matrix weighted by a quadrature-point field, ∫ g φ_i φ_j dv."""
    w = quad_weights(surface) * gq
    element = np.einsum("tq,qi,qj->tij", w, quad.BARY, quad.BARY)
    return _scatter(surface, element)


def load(surface: Surface, gq: np.ndarray) -> np.ndarray:
    """Load vector l_i = ∫ g φ_i dv from a quadrature-point field g."""
    contrib = np.einsum("tq,qi->ti", quad_weights(surface) * gq, quad.BARY)
    out = np.zeros(surface.num_vertices)
    np.add.at(out, surface.triangles.ravel(), contrib.ravel())
    return out


def integral(surface: Surface, gq: np.ndarray) -> float:
    """∫ g dv for a quadrature-point field g."""
    return float(np.sum(quad_weights(surface) * gq))


def area(surface: Surface) -> float:
    """Metric area ∫ e^{2f} dx of the surface."""
    key = "area"
    if key not in surface.cache:
        surface.cache[key] = float(quad_weights(surface).sum())
    return surface.cache[key]


def mass_row_of_ones(surface: Surface) -> np.ndarray:
    """The vector M·1, i.e. ∫ φ_i dv; its sum is the area."""
    key = "mass_ones"
    if key not in surface.cache:
        surface.cache[key] = np.asarray(
            mass(surface) @ np.ones(surface.num_vertices)
        )
    return surface.cache[key]


def mean(surface: Surface, u: np.ndarray) -> float:
    """Metric mean value (∫ u dv) / area of a nodal field."""
    return float(mass_row_of_ones(surface) @ u) / area(surface)


def mean_zero_project(surface: Surface, u: np.ndarray) -> np.ndarray:
    """Subtract the metric mean value."""
    return u - mean(surface, u)


def dirichlet_norm(surface: Surface, u: np.ndarray) -> float:
    """‖∇u‖ in the metric (= flat) Dirichlet norm, √(uᵀKu)."""
    return float(np.sqrt(max(u @ (stiffness(surface) @ u), 0.0)))


def l2_norm(surface: Surface, u: np.ndarray) -> float:
    """Metric L² norm √(uᵀMu)."""
    return float(np.sqrt(max(u @ (mass(surface) @ u), 0.0)))


# ---------------------------------------------------------------------------
# Cached factorizations
# ---------------------------------------------------------------------------


def _splu(matrix: sp.spmatrix):
    try:
        return spla.splu(matrix.tocsc())
    except RuntimeError as exc:  # singular factorization
        raise NumericalError(f"sparse factorization failed: {exc}") from exc


def km_solver(surface: Surface):
    """LU solver for K + M (used for dual-norm residuals and smoothing)."""
    key = "lu_K_plus_M"
    if key not in surface.cache:
        surface.cache[key] = _splu(
            (stiffness(surface) + mass(surface)).tocsc()
        )
    return surface.cache[key]


def refined_solve(lu, matrix, b: np.ndarray, rtol: float) -> tuple:
    """Solve ``matrix @ x = b`` from its LU factors with iterative refinement.

    Up to three correction steps x += lu.solve(b − matrix·x) are taken
    until the relative residual ‖b − matrix·x‖/‖b‖ is at most ``rtol``.
    Returns x and its relative residual.
    """
    x = lu.solve(b)
    scale = float(np.linalg.norm(b))
    for _ in range(3):
        r = b - matrix @ x
        residual = float(np.linalg.norm(r)) / scale
        if residual <= rtol:
            return x, residual
        x += lu.solve(r)
    return x, float(np.linalg.norm(b - matrix @ x)) / scale


def dual_norm(surface: Surface, r: np.ndarray) -> float:
    """√(rᵀ (K+M)⁻¹ r), the H¹-dual norm of a residual vector."""
    z = km_solver(surface).solve(r)
    return float(np.sqrt(max(r @ z, 0.0)))


# ---------------------------------------------------------------------------
# Point evaluation of nodal fields
# ---------------------------------------------------------------------------


def evaluate(surface: Surface, u: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the piecewise-linear field ``u`` at arbitrary points.

    Points must lie inside (or within roundoff of) the domain.  Location
    uses a centroid KD-tree with a brute-force fallback, so heavily graded
    meshes are handled correctly.
    """
    from scipy.spatial import cKDTree

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 2:
        raise UsageError("points must be an (n, 2) array")

    key = "centroid_tree"
    if key not in surface.cache:
        surface.cache[key] = cKDTree(surface.tri_coords().mean(axis=1))
    tree = surface.cache[key]

    c = surface.tri_coords()
    uu = u[surface.triangles]  # (nt, 3)
    out = np.full(pts.shape[0], np.nan)
    tol = 1e-10

    k = min(32, surface.num_triangles)
    _, cand = tree.query(pts, k=k)
    cand = np.atleast_2d(cand)

    def bary(tids: np.ndarray, p: np.ndarray):
        p0 = c[tids, 0]
        d1 = c[tids, 1] - p0
        d2 = c[tids, 2] - p0
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        rhs = p - p0
        b1 = (rhs[:, 0] * d2[:, 1] - rhs[:, 1] * d2[:, 0]) / det
        b2 = (d1[:, 0] * rhs[:, 1] - d1[:, 1] * rhs[:, 0]) / det
        return b1, b2

    unresolved = []
    for i, p in enumerate(pts):
        tids = cand[i]
        b1, b2 = bary(tids, p[None, :])
        ok = (b1 >= -tol) & (b2 >= -tol) & (b1 + b2 <= 1 + tol)
        hits = np.flatnonzero(ok)
        if hits.size:
            j = tids[hits[0]]
            w1, w2 = float(b1[hits[0]]), float(b2[hits[0]])
            out[i] = (1 - w1 - w2) * uu[j, 0] + w1 * uu[j, 1] + w2 * uu[j, 2]
        else:
            unresolved.append(i)

    if unresolved:
        all_t = np.arange(surface.num_triangles)
        for i in unresolved:
            b1, b2 = bary(all_t, pts[i][None, :])
            ok = (b1 >= -tol) & (b2 >= -tol) & (b1 + b2 <= 1 + tol)
            hits = np.flatnonzero(ok)
            if not hits.size:
                # Closest triangle by clamped barycentric misfit.  Points on
                # the analytic boundary arc sit up to a chord sagitta
                # (~local_edge/8 in barycentric units) outside the polygon of
                # a coarser mesh; clamp those onto the nearest triangle, and
                # reject only points clearly beyond that collar.
                miss = np.maximum(-b1, 0) + np.maximum(-b2, 0) + np.maximum(
                    b1 + b2 - 1, 0
                )
                j = int(np.argmin(miss))
                if miss[j] > 0.05:
                    raise UsageError(
                        f"evaluation point {pts[i]} lies outside the domain"
                    )
            else:
                j = int(hits[0])
            w1 = float(np.clip(b1[j], 0, 1))
            w2 = float(np.clip(b2[j], 0, 1))
            out[i] = (1 - w1 - w2) * uu[j, 0] + w1 * uu[j, 1] + w2 * uu[j, 2]
    return out if np.asarray(points).ndim == 2 else out[0]
