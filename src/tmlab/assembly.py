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

from itertools import chain
from typing import NamedTuple

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
    """(nt, 3, 2) gradients of the three hat functions on each triangle.

    Not cached: only the (cached) stiffness matrix reads them.
    """
    c = surface.tri_coords()
    areas = surface.euclidean_tri_areas()
    g = np.empty((surface.num_triangles, 3, 2))
    for i in range(3):
        e = c[:, (i + 2) % 3] - c[:, (i + 1) % 3]
        g[:, i, 0] = -e[:, 1]
        g[:, i, 1] = e[:, 0]
    g /= (2.0 * areas)[:, None, None]
    return g


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
# Cached factorizations
# ---------------------------------------------------------------------------


def _splu(matrix: sp.spmatrix):
    try:
        return spla.splu(matrix.tocsc())
    except RuntimeError as exc:  # singular factorization
        raise NumericalError(f"sparse factorization failed: {exc}") from exc


def km_solver(surface: Surface):
    """LU solver for K + M, the Riesz map of :func:`dual_norm`."""
    key = "lu_K_plus_M"
    if key not in surface.cache:
        surface.cache[key] = _splu(
            (stiffness(surface) + mass(surface)).tocsc()
        )
    return surface.cache[key]


def neumann_solver(surface: Surface):
    """LU solver for K bordered with M·1, ``[[K, M·1], [(M·1)ᵀ, 0]]``.

    Solving it for ``[b; 0]`` gives the mean-zero x with Kx = b − μ·M·1:
    the Riesz representative of b in the mean-zero H¹ seminorm uᵀKu.
    Exact zeros of K (edges whose two opposite angles sum to π, as on a
    rectangle's diagonals) are dropped from the pattern.
    """
    key = "lu_K_bordered"
    if key not in surface.cache:
        k = stiffness(surface).tocsc()
        k.eliminate_zeros()
        m1 = mass_row_of_ones(surface)
        surface.cache[key] = _splu(sp.bmat(
            [[k, sp.csc_matrix(m1[:, None])], [sp.csc_matrix(m1[None, :]), None]],
            format="csc",
        ))
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


# A point counts as inside a triangle when its barycentric coordinates are
# all at least -HIT_TOL.  A point inside no triangle is clamped onto the
# triangle of least summed barycentric misfit when that misfit is at most
# CLAMP_COLLAR: points on the analytic boundary arc sit up to a chord
# sagitta (~local_edge/8 in barycentric units) outside the polygon of a
# coarser mesh.  Beyond the collar a point is outside the domain.
HIT_TOL = 1e-10
CLAMP_COLLAR = 0.05
_CANDIDATES = 32  # nearest-centroid triangles tried first
_BLOCK = 1024  # points per pass; bounds the (points, triangles) arrays

# Reach of a triangle: how far from its centroid c a point can be hit or
# clamped.  With barycentric coordinates λ of p (Σλᵢ = 1) and misfit
# m = Σ max(−λᵢ, 0), p − c = Σ λᵢ(vᵢ − c), so
#     |p − c| ≤ Σ |λᵢ|·R = (1 + 2m)·R,
# with R the largest vertex-to-centroid distance.  A hit has m ≤ 3·HIT_TOL
# and a clamp m ≤ CLAMP_COLLAR.  The extra 0.01 of misfit absorbs the
# rounding of the computed coordinates, which stays far below it unless a
# triangle's aspect ratio nears 1e12.
_REACH = 1.0 + 2.0 * (CLAMP_COLLAR + 0.01)


class Location(NamedTuple):
    """Points located in a mesh by :func:`locate`.

    ``tri`` holds each point's triangle and ``w1``, ``w2`` the barycentric
    weights of that triangle's second and third vertex (the first has
    ``1 - w1 - w2``).  ``outside`` marks points beyond the clamp collar;
    their triangle and weights are meaningless.
    """

    tri: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    outside: np.ndarray

    def values(self, surface: Surface, u: np.ndarray) -> np.ndarray:
        """The piecewise-linear field ``u`` at the points, NaN outside."""
        uu = u[surface.triangles[self.tri]]
        out = (1 - self.w1 - self.w2) * uu[:, 0] + self.w1 * uu[:, 1] \
            + self.w2 * uu[:, 2]
        out[self.outside] = np.nan
        return out


def _barycentric(p0, d1, d2, det, p):
    """Weights of the second and third vertex of triangles (p0, p0+d1, p0+d2)."""
    rhs = p - p0
    b1 = (rhs[..., 0] * d2[..., 1] - rhs[..., 1] * d2[..., 0]) / det
    b2 = (d1[..., 0] * rhs[..., 1] - d1[..., 1] * rhs[..., 0]) / det
    return b1, b2


def _hits(b1, b2) -> np.ndarray:
    return (b1 >= -HIT_TOL) & (b2 >= -HIT_TOL) & (b1 + b2 <= 1 + HIT_TOL)


def _misfit(b1, b2) -> np.ndarray:
    return np.maximum(-b1, 0) + np.maximum(-b2, 0) + np.maximum(b1 + b2 - 1, 0)


def _reach(coords: np.ndarray) -> tuple:
    """Centroids and reaches (see :data:`_REACH`) of (nt, 3, 2) triangles."""
    centroid = coords.mean(axis=1)
    radius = np.sqrt(((coords - centroid[:, None]) ** 2).sum(axis=2)).max(axis=1)
    return centroid, _REACH * radius


class _Locator(NamedTuple):
    tree: object  # cKDTree of the triangle centroids
    lo: np.ndarray  # the centroids' bounding box, widened by the largest
    hi: np.ndarray  # reach of a triangle
    # (cKDTree of centroids, triangle ids, largest reach) per binary order
    # of magnitude of the reach, so a graded mesh's small triangles are
    # searched at their own scale.
    levels: tuple


def _locator(surface: Surface) -> _Locator:
    key = "locator"
    if key not in surface.cache:
        from scipy.spatial import cKDTree

        centroid, reach = _reach(surface.tri_coords())
        scale = np.frexp(reach)[1]
        levels = []
        for e in np.unique(scale):
            ids = np.flatnonzero(scale == e)
            levels.append((cKDTree(centroid[ids]), ids, float(reach[ids].max())))
        r = float(reach.max())
        surface.cache[key] = _Locator(cKDTree(centroid),
                                      centroid.min(axis=0) - r,
                                      centroid.max(axis=0) + r, tuple(levels))
    return surface.cache[key]


def locate(surface: Surface, points: np.ndarray) -> Location:
    """Find the triangle and barycentric weights of each of (n, 2) points.

    Each point is first tested against the 32 triangles with the nearest
    centroids (a KD-tree cached on the surface), nearest first; the first
    that contains it wins, with its weights as computed.  A point none of
    them contains is settled among the triangles within reach of it (see
    :data:`_REACH`), which are all the triangles that can contain or clamp
    it: the lowest-index one that contains it wins, with its weights
    clipped to [0, 1].  If none contains it, the one of least summed
    barycentric misfit is used (lowest index on ties) with clipped weights,
    and the point is ``outside`` when that misfit exceeds
    :data:`CLAMP_COLLAR` or no triangle is within reach.  Raises
    :class:`UsageError` naming the first point that is not finite.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise UsageError("points must be an (n, 2) array")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise UsageError(f"point {pts[np.argmin(finite)]} is not finite")
    loc = _locator(surface)

    c = surface.tri_coords()
    p0 = c[:, 0]
    d1 = c[:, 1] - p0
    d2 = c[:, 2] - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]

    n, nt = pts.shape[0], surface.num_triangles
    tri = np.zeros(n, dtype=np.int64)
    w1 = np.zeros(n)
    w2 = np.zeros(n)
    outside = np.ones(n, dtype=bool)

    # A point beyond the centroids' box widened by the largest reach is out
    # of every triangle's reach.  The box also keeps huge points away from
    # the tree, whose distances would overflow.
    near = np.flatnonzero(((pts >= loc.lo) & (pts <= loc.hi)).all(axis=1))
    k = min(_CANDIDATES, nt)
    for lo in range(0, near.size, _BLOCK):
        idx = near[lo:lo + _BLOCK]
        m = idx.size
        cand = loc.tree.query(pts[idx], k=k)[1].reshape(m, k)
        b1, b2 = _barycentric(p0[cand], d1[cand], d2[cand], det[cand],
                              pts[idx, None, :])
        ok = _hits(b1, b2)
        first = ok.argmax(axis=1)
        rows = np.arange(m)
        tri[idx] = cand[rows, first]
        w1[idx] = b1[rows, first]
        w2[idx] = b2[rows, first]
        outside[idx] = ~ok.any(axis=1)

    # A missed point meets, level by level, the triangles whose centroids
    # are within the level's largest reach: a superset of the triangles
    # within their own reach.  It takes the lowest-index one that contains
    # it, or else the lowest-index one of least misfit.
    missed = near[outside[near]]
    for lo in range(0, missed.size, _BLOCK):
        idx = missed[lo:lo + _BLOCK]
        owner, t = [], []
        for tree, ids, r in loc.levels:
            balls = tree.query_ball_point(pts[idx], r)
            owner.append(np.repeat(np.arange(idx.size), [len(b) for b in balls]))
            t.append(ids[np.fromiter(chain.from_iterable(balls), dtype=np.intp,
                                     count=owner[-1].size)])
        owner = np.concatenate(owner)
        order = np.argsort(owner, kind="stable")
        owner, t = owner[order], np.concatenate(t)[order]
        _, starts, group = np.unique(owner, return_index=True, return_inverse=True)
        b1, b2 = _barycentric(p0[t], d1[t], d2[t], det[t], pts[idx[owner]])
        score = np.where(_hits(b1, b2), -1.0, _misfit(b1, b2))
        least = np.minimum.reduceat(score, starts)
        j = np.minimum.reduceat(np.where(score == least[group], t, nt), starts)
        idx = idx[owner[starts]]
        tri[idx] = j
        b1, b2 = _barycentric(p0[j], d1[j], d2[j], det[j], pts[idx])
        w1[idx] = np.clip(b1, 0, 1)
        w2[idx] = np.clip(b2, 0, 1)
        outside[idx] = least > CLAMP_COLLAR
    return Location(tri, w1, w2, outside)


def evaluate(surface: Surface, u: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the piecewise-linear field ``u`` at arbitrary points.

    A point or an (n, 2) array of points gives a scalar or an (n,) array.
    Points are placed by :func:`locate`.  A point inside no triangle but
    within the clamp collar of one (summed barycentric misfit at most
    :data:`CLAMP_COLLAR`, e.g. a point on the boundary arc between two
    boundary vertices) is clamped onto that triangle.  Raises
    :class:`UsageError` naming the first point that is not finite, or else
    the first beyond the collar.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    loc = locate(surface, pts)
    if loc.outside.any():
        i = int(np.argmax(loc.outside))
        raise UsageError(f"evaluation point {pts[i]} lies outside the domain")
    out = loc.values(surface, u)
    return out if np.asarray(points).ndim == 2 else out[0]
