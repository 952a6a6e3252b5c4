"""Piecewise-linear finite-element operators on a conformal surface.

All metric integrals use the measure e^{2f} dx with f interpolated
piecewise-linearly from its nodal values, integrated by the single
6-point degree-4 triangle rule from :mod:`tmlab.quadrature`.  Every
nonlinear quantity in the package (functional values, load vectors,
moments) is defined through the *same* rule, so discrete optimality
conditions close exactly.

The Dirichlet energy is conformally invariant in two dimensions, so the
stiffness matrix is the flat one and does not involve f.

:func:`interpolate` and :func:`load` fix the order in which they sum, so
their results do not depend on how a numpy version contracts arrays.  The
order is the one ``np.einsum`` used when the result files were recorded,
and ``tests/test_assembly.py`` pins it against an ``einsum`` copy.
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
    c = surface.tri_coords()
    areas = surface.euclidean_tri_areas()
    g = np.empty((surface.num_triangles, 3, 2))
    for i in range(3):
        e = c[:, (i + 2) % 3] - c[:, (i + 1) % 3]
        g[:, i, 0] = -e[:, 1]
        g[:, i, 1] = e[:, 0]
    g /= (2.0 * areas)[:, None, None]
    return g


def quad_weights(surface: Surface) -> np.ndarray:
    """(nt, 6) metric quadrature weights A_t · w_q · e^{2 f(x_q)}."""
    key = "quad_weights"
    if key not in surface.cache:
        areas = surface.euclidean_tri_areas()
        f_q = interpolate(surface, surface.f_nodal)
        surface.cache[key] = areas[:, None] * quad.WEIGHTS[None, :] * np.exp(2.0 * f_q)
    return surface.cache[key]


def interpolate(surface: Surface, u: np.ndarray) -> np.ndarray:
    """Values of the nodal field ``u`` at all quadrature points, (nt, 6).

    Point q of triangle t gets (u₀·B_q0 + u₂·B_q2) + u₁·B_q1 with B the
    rule's barycentric table, summed in exactly that order.
    """
    u0, u1, u2 = u.take(surface.triangles.T)
    out = np.empty((u0.size, quad.NQ))
    for q, (b0, b1, b2) in enumerate(quad.BARY):
        out[:, q] = u0 * b0 + u2 * b2 + u1 * b1
    return out


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _csr_pattern(surface: Surface) -> tuple:
    """The fixed CSR pattern that element matrices assemble into.

    Returns ``(perm, step, indices, indptr)``.  The (nt, 3, 3) element
    entries, flattened, in the order ``perm`` (int32) are the entries of
    the COO matrix of :func:`_scatter` as ``coo_matrix(...).tocsr()`` sorts
    them: stably by row, then by column with scipy's own index sort.
    Entries that share a position of the summed CSR matrix (column
    ``indices``, row pointer ``indptr``, both int32) are consecutive;
    ``step`` (bool) marks each entry after the first that starts a new
    position, so ``cumsum(step)`` is every entry's position.  Summing in
    that order adds duplicates in the order ``tocsr`` does.  Cached per
    surface.
    """
    key = "csr_pattern"
    if key not in surface.cache:
        n = surface.num_vertices
        nnz = 9 * surface.num_triangles
        # The cached arrays are allocated before the build's temporaries,
        # so they sit below them on the heap.
        perm = np.empty(nnz, dtype=np.int32)
        step = np.empty(nnz, dtype=bool)
        tris = surface.triangles.astype(np.int32)
        # Element entry 3f + j (f = 3t + i) lies in row tris[t, i] and
        # column tris[t, j]; a stable sort of the f by row, each expanded
        # to its three entries, is a stable sort of the entries by row.
        inc = np.argsort(tris.ravel(), kind="stable").astype(np.int32)
        np.add(3 * inc[:, None], np.arange(3, dtype=np.int32),
               out=perm.reshape(-1, 3))
        cols = tris[inc // 3].ravel()
        del inc
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(3 * np.bincount(tris.ravel(), minlength=n), out=indptr[1:])
        # scipy's in-place index sort permutes the data with the indices,
        # so data = perm comes back as the permutation it applied.
        mat = sp.csr_matrix((perm, cols, indptr), shape=(n, n))
        mat.sort_indices()
        perm, cols = mat.data, mat.indices
        step[0] = True
        np.not_equal(cols[1:], cols[:-1], out=step[1:])
        step[indptr[:-1][np.diff(indptr) > 0]] = True
        slots = np.zeros(nnz + 1, dtype=np.int32)
        np.cumsum(step, out=slots[1:])
        indices, indptr = cols[step], slots[indptr]
        step[0] = False
        surface.cache[key] = (perm, step, indices, indptr)
    return surface.cache[key]


def _scatter(surface: Surface, element: np.ndarray) -> sp.csr_matrix:
    """Assemble (nt, 3, 3) element matrices into a CSR vertex matrix.

    Byte-identical to ``coo_matrix((element.ravel(), (rows, cols))).tocsr()``
    with rows and columns from the triangles' vertex pairs.
    """
    perm, step, indices, indptr = _csr_pattern(surface)
    pos = np.cumsum(step, dtype=np.int32)
    data = np.bincount(pos, weights=element.ravel()[perm], minlength=indices.size)
    n = surface.num_vertices
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


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
    """Load vector l_i = ∫ g φ_i dv from a quadrature-point field g.

    Each triangle's share for its vertex i is summed over the quadrature
    points in order q = 0, …, 5; the shares are then added per vertex in
    triangle order.
    """
    x = quad_weights(surface) * gq
    contrib = np.empty((x.shape[0], 3))
    for i in range(3):
        col = x[:, 0] * quad.BARY[0, i]
        for q in range(1, quad.NQ):
            col += x[:, q] * quad.BARY[q, i]
        contrib[:, i] = col
    return np.bincount(surface.triangles.ravel(), weights=contrib.ravel(),
                       minlength=surface.num_vertices)


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


def admissible(surface: Surface, v: np.ndarray) -> tuple:
    """Map ``v`` onto the admissible sphere: mean zero, unit Dirichlet energy.

    Returns ``(state, norm)``, ``norm`` the Dirichlet norm of the
    mean-zero projection that was divided out.  A zero or non-finite norm
    raises :class:`NumericalError`.
    """
    v = mean_zero_project(surface, v)
    nrm = dirichlet_norm(surface, v)
    if not np.isfinite(nrm) or nrm == 0.0:
        raise NumericalError(
            f"cannot scale a state of Dirichlet norm {nrm} to unit energy"
        )
    return v / nrm, nrm


def l2_norm(surface: Surface, u: np.ndarray) -> float:
    """Metric L² norm √(uᵀMu)."""
    return float(np.sqrt(max(u @ (mass(surface) @ u), 0.0)))


# ---------------------------------------------------------------------------
# Factorizations
# ---------------------------------------------------------------------------


def _splu(matrix: sp.spmatrix):
    try:
        return spla.splu(matrix.tocsc())
    except RuntimeError as exc:  # singular factorization
        raise NumericalError(f"sparse factorization failed: {exc}") from exc


def km_solver(surface: Surface):
    """LU solver for K + M, the Riesz map of :func:`dual_norm`.

    Only :func:`spectrum.eigen_residual` measures in this norm, once per
    eigen solve, so the LU is not kept (see ``Surface.cache``).
    """
    return _splu(stiffness(surface) + mass(surface))


def neumann_solver(surface: Surface):
    """The one LU of the mean-zero Neumann operator: K bordered with M·1.

    Solving ``[[K, M·1], [(M·1)ᵀ, 0]]`` for ``[b; 0]`` gives the mean-zero
    x with Kx = b − μ·M·1 (:func:`riesz_map`).  Its readers:

    - the maximizer (:mod:`tmlab.moser`): one solve per state gives the
      ascent direction and the stationarity residual, and it
      preconditions the Newton step's MINRES;
    - :func:`tmlab.green.green_function`: the preconditioner of its
      conjugate gradients, at every α;
    - :func:`tmlab.spectrum.first_eigenpair`: the shift-invert operator
      at σ = 0, through :func:`neumann_lu`.

    The maximizer and Green read the LU again, so it is kept as
    ``cache["lu_K_bordered"]`` (see ``Surface.cache``).
    """
    return surface.cache.setdefault("lu_K_bordered", neumann_lu(surface))


def neumann_lu(surface: Surface):
    """:func:`neumann_solver`'s kept LU, or, if none, one factored and not kept.

    Exact zeros of K (edges whose two opposite angles sum to π, as on a
    rectangle's diagonals) are dropped from the pattern.
    """
    lu = surface.cache.get("lu_K_bordered")
    if lu is None:
        m1 = mass_row_of_ones(surface)
        mat = sp.bmat([[stiffness(surface), sp.csc_matrix(m1[:, None])],
                       [sp.csc_matrix(m1[None, :]), None]], format="csc")
        mat.eliminate_zeros()
        lu = _splu(mat)
    return lu


def riesz_map(surface: Surface, b: np.ndarray) -> np.ndarray:
    """The mean-zero x with Kx = b − μ·M·1, from :func:`neumann_solver`.

    For 1ᵀb = 0 the multiplier μ vanishes, Kx = b, and √(bᵀx) = √(xᵀKx)
    is the norm of b dual to the mean-zero H¹ seminorm √(uᵀKu).  Readers:
    the maximizer's ascent direction, stationarity residual (also
    :func:`tmlab.moser.el_residual`) and Newton MINRES preconditioner
    (:mod:`tmlab.moser`), and the preconditioner of
    :func:`tmlab.green.green_function` (a constraint preconditioner: every
    iterate it makes is mean-zero).
    """
    return neumann_solver(surface).solve(np.append(b, 0.0))[:-1]


def dual_norm(surface: Surface, r: np.ndarray) -> float:
    """√(rᵀ (K+M)⁻¹ r), the H¹-dual norm of a residual vector."""
    z = km_solver(surface).solve(r)
    return float(np.sqrt(max(r @ z, 0.0)))


# ---------------------------------------------------------------------------
# Point evaluation of nodal fields
# ---------------------------------------------------------------------------


# A point lies in a triangle when its barycentric coordinates are all at
# least -HIT_TOL.
HIT_TOL = 1e-10
_BLOCK = 1 << 16  # (point, candidate) pairs per pass


def evaluate(surface: Surface, u: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The piecewise-linear field ``u`` at (n, 2) points, NaN outside the mesh.

    Made for a few hundred points close together, such as the blow-up fan:
    the candidates are the triangles whose bounding box meets the points'
    bounding box, and each point is tested against all of them.  Of the
    triangles that contain a point (see :data:`HIT_TOL`), the one with the
    nearest centroid gives its value, the lowest index on ties.  Raises
    :class:`UsageError` naming the first point that is not finite.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise UsageError("points must be an (n, 2) array")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise UsageError(f"point {pts[np.argmin(finite)]} is not finite")
    out = np.full(pts.shape[0], np.nan)

    # A point a triangle contains lies outside its bounding box by at most
    # 2·HIT_TOL of its extent; the boxes are widened by twice that.  Points
    # off the mesh's box are outside, and kept from overflowing the test.
    c = surface.tri_coords()
    pad = 4 * HIT_TOL * np.ptp(c, axis=1).max(axis=1, keepdims=True)
    lo, hi = c.min(axis=1) - pad, c.max(axis=1) + pad
    idx = np.flatnonzero(((pts >= lo.min(axis=0)) & (pts <= hi.max(axis=0))).all(axis=1))
    p = pts[idx]
    cand = np.flatnonzero(((lo <= p.max(axis=0, initial=-np.inf))
                           & (hi >= p.min(axis=0, initial=np.inf))).all(axis=1))
    if not cand.size:
        return out

    c = c[cand]
    p0 = c[:, 0]
    d1 = c[:, 1] - p0
    d2 = c[:, 2] - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    centroid = c.mean(axis=1)
    uu = u[surface.triangles[cand]]
    step = max(1, _BLOCK // cand.size)
    for k in range(0, idx.size, step):
        q = p[k:k + step, None, :]
        rhs = q - p0
        b1 = (rhs[..., 0] * d2[:, 1] - rhs[..., 1] * d2[:, 0]) / det
        b2 = (d1[:, 0] * rhs[..., 1] - d1[:, 1] * rhs[..., 0]) / det
        hit = (b1 >= -HIT_TOL) & (b2 >= -HIT_TOL) & (b1 + b2 <= 1 + HIT_TOL)
        gap = np.where(hit, ((q - centroid) ** 2).sum(axis=2), np.inf)
        j = gap.argmin(axis=1)
        rows = np.arange(j.size)
        w1, w2, t = b1[rows, j], b2[rows, j], uu[j]
        vals = (1 - w1 - w2) * t[:, 0] + w1 * t[:, 1] + w2 * t[:, 2]
        out[idx[k:k + step]] = np.where(hit[rows, j], vals, np.nan)
    return out
