"""Triangulated planar domains with a conformal metric factor.

A `Surface` is a conforming triangulation of one of three template domains
(rectangle, right half-disk, disk sector) together with a nodal conformal
factor f, representing the metric e^{2f}(dx₁² + dx₂²); f is given by an
expression in x1, x2 that `_compile_f` reads without ``eval``.  The module
builds template meshes at a requested resolution, refines them uniformly or
locally (longest-edge bisection with conformity closure), validates mesh
invariants, and (de)serializes meshes to a canonical dictionary form.

Conventions
-----------
* Triangles are counter-clockwise; boundary edges are oriented so the
  domain lies on their left (CCW traversal of the boundary).
* ``rectangle(a, b)`` is [0, a] × [0, b].
* ``half_disk(R)`` is the *right* half-disk {x₁ ≥ 0, |x| ≤ R}; its straight
  side lies on the x₂-axis, so (R, 0) is a smooth boundary point.
* ``disk_sector(R, angle)`` spans polar angles [0, angle], angle ∈ (0, 2π).
"""

from __future__ import annotations

import ast
import functools
import hashlib
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import PreconditionError, UsageError

_SNAP = 1e-14  # coordinates smaller than this in magnitude are snapped to 0


# ---------------------------------------------------------------------------
# Domain specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainSpec:
    """Template domain identity plus conformal-factor expression.

    Parameters
    ----------
    kind : str
        One of ``"rectangle"``, ``"half_disk"``, ``"disk_sector"``.
    params : tuple of float
        ``rectangle``: (a, b) side lengths; ``half_disk``: (R,);
        ``disk_sector``: (R, angle).
    f_expr : str or None
        Expression for the conformal factor f(x1, x2) in the variables
        ``x1``, ``x2`` (see `_compile_f`); ``None`` means f ≡ 0 (flat
        metric).  It is compiled once, here, so a bad one is rejected when
        the spec is built or read.
    """

    kind: str
    params: tuple
    f_expr: str | None = None
    _steps: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if not all(map(math.isfinite, self.params)):
            raise UsageError(f"domain parameters must be finite: {self.params}")
        if self.kind == "rectangle":
            if len(self.params) != 2 or min(self.params) <= 0:
                raise UsageError("rectangle requires two positive side lengths")
        elif self.kind == "half_disk":
            if len(self.params) != 1 or self.params[0] <= 0:
                raise UsageError("half_disk requires one positive radius")
        elif self.kind == "disk_sector":
            if (
                len(self.params) != 2
                or self.params[0] <= 0
                or not (0 < self.params[1] < 2 * math.pi)
            ):
                raise UsageError(
                    "disk_sector requires a positive radius and an angle in (0, 2*pi)"
                )
        else:
            raise UsageError(f"unknown domain kind: {self.kind!r}")
        steps = _compile_f("0" if self.f_expr is None else self.f_expr)
        object.__setattr__(self, "_steps", steps)

    # -- conformal factor ---------------------------------------------------

    def f_callable(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """Return a vectorized callable for f(x1, x2)."""
        return functools.partial(_run_f, self._steps)

    def corners(self) -> np.ndarray:
        """Exact coordinates of the domain's boundary corners."""
        if self.kind == "rectangle":
            a, b = self.params
            return np.array([[0.0, 0.0], [a, 0.0], [a, b], [0.0, b]])
        if self.kind == "half_disk":
            (r,) = self.params
            return np.array([[0.0, r], [0.0, -r]])
        r, ang = self.params
        return np.array(
            [[0.0, 0.0], [r, 0.0], [r * math.cos(ang), r * math.sin(ang)]]
        )

    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": list(self.params), "f_expr": self.f_expr}

    @classmethod
    def from_dict(cls, d: dict) -> "DomainSpec":
        try:
            return cls(d["kind"], tuple(d["params"]), d.get("f_expr"))
        except (KeyError, TypeError) as exc:
            raise UsageError(f"malformed domain spec: {exc}") from exc


_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: operator.truediv, ast.Pow: operator.pow, ast.UAdd: operator.pos,
        ast.USub: operator.neg}
_FUNCS = dict(exp=np.exp, log=np.log, sqrt=np.sqrt, sin=np.sin, cos=np.cos,
              tan=np.tan, sinh=np.sinh, cosh=np.cosh, tanh=np.tanh,
              arctan=np.arctan, atan=np.arctan, arctan2=np.arctan2,
              atan2=np.arctan2, hypot=np.hypot, abs=np.abs, Abs=np.abs)
_CONSTANTS = {"pi": np.float64(math.pi), "E": np.float64(math.e)}
_NAMES = {"x1", "x2", *_FUNCS, *_CONSTANTS}


def _compile_f(expr: str) -> list:
    """Compile a conformal-factor expression into a program for `_run_f`.

    Accepted: int and float literals (as float64), ``x1``, ``x2``, ``pi``,
    ``E``, ``_OPS`` and calls into ``_FUNCS``.  Nothing is ``eval``-ed: the
    tree is flattened, without recursion, into a postfix program of numpy
    operations, which runs in the order the expression is written.
    """
    try:
        tree = ast.parse(expr, mode="eval")
        unknown = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} - _NAMES
        if unknown:
            names = ", ".join(sorted(unknown))
            raise UsageError(f"conformal factor uses unknown symbols: {names}")
        # Reversed, a pre-order that visits the right operand first is a
        # post-order.  A step is (leaf, 0) or (operation, operand count).
        steps, todo = [], [tree.body]
        while todo:
            node = todo.pop()
            op = type(getattr(node, "op", None))
            if isinstance(node, ast.BinOp) and op in _OPS:
                steps.append((_OPS[op], 2))
                todo += [node.left, node.right]
            elif isinstance(node, ast.UnaryOp) and op in _OPS:
                steps.append((_OPS[op], 1))
                todo.append(node.operand)
            elif (isinstance(node, ast.Call) and not node.keywords
                  and getattr(node.func, "id", None) in _FUNCS
                  and len(node.args) == _FUNCS[node.func.id].nin):
                steps.append((_FUNCS[node.func.id], len(node.args)))
                todo += node.args
            elif isinstance(node, ast.Name) and node.id not in _FUNCS:
                steps.append((_CONSTANTS.get(node.id, node.id), 0))
            elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
                steps.append((np.float64(node.value), 0))  # OverflowError if huge
            else:
                why = "write '**' for a power" if op is ast.BitXor else "unsupported"
                raise ValueError(f"{why}: {ast.get_source_segment(expr, node)!r}")
    except (SyntaxError, ValueError, OverflowError, RecursionError, MemoryError) as exc:
        # The parser raises RecursionError or MemoryError on deep nesting.
        why = str(exc) or "nested too deeply"
        raise UsageError(f"cannot parse conformal factor {expr!r}: {why}") from exc
    return steps[::-1]


def _run_f(steps: list, a, b) -> np.ndarray:
    """f at the points (a, b), by the postfix program ``steps``."""
    xs = {"x1": np.asarray(a, dtype=float), "x2": np.asarray(b, dtype=float)}
    stack = []
    for op, n in steps:
        if n:
            stack[-n:] = [op(*stack[-n:])]
        else:
            stack.append(xs[op] if isinstance(op, str) else op)
    return np.broadcast_to(stack[0], np.shape(a)).copy()


# ---------------------------------------------------------------------------
# Surface
# ---------------------------------------------------------------------------


@dataclass
class Surface:
    """A conforming triangulation carrying a nodal conformal factor.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counter-clockwise
    boundary_edges : (ne, 2) int array, domain on the left
    f_nodal : (nv,) float array, conformal factor at vertices
    spec : DomainSpec
    cache : dict
        Values derived from the surface, dropped on serialization.  Rule:
        a value is kept only when a later call on the same surface reads
        it again; a value with one reader is made in that reader and
        dropped.  Kept: quadrature weights, CSR pattern, K, M, M·1, area,
        the LU of K bordered with M·1, λ₁'s eigenpair, glued-state meshes,
        the parent map `prolong` applies, and the bisection record
        (``"bisection"``: each triangle's reference-edge rotation,
        neighbours, centroid and longest edge) that `refine_local` carries
        from round to round and `adapt_for_point` drops from its result.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    f_nodal: np.ndarray
    spec: DomainSpec
    cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(self.boundary_edges, dtype=np.int64)
        self.f_nodal = np.ascontiguousarray(self.f_nodal, dtype=float)

    # -- basic quantities ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    def tri_coords(self) -> np.ndarray:
        """(nt, 3, 2) vertex coordinates of each triangle."""
        return self.vertices[self.triangles]

    def euclidean_tri_areas(self) -> np.ndarray:
        """Flat (metric-free) triangle areas, all positive for a valid mesh."""
        c = self.tri_coords()
        d1 = c[:, 1] - c[:, 0]
        d2 = c[:, 2] - c[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def edge_lengths(self) -> np.ndarray:
        """(nt, 3) lengths of edges opposite each local vertex."""
        return _edge_lengths(self.tri_coords())

    def distances(self, point) -> np.ndarray:
        """(nv,) Euclidean distances from ``point`` to every vertex."""
        return np.hypot(
            self.vertices[:, 0] - point[0], self.vertices[:, 1] - point[1]
        )

    def boundary_vertex_indices(self) -> np.ndarray:
        return np.unique(self.boundary_edges)

    def corner_vertex_indices(self) -> np.ndarray:
        """Indices of mesh vertices sitting at the domain's corners."""
        corners = self.spec.corners()
        idx = []
        for c in corners:
            d = self.distances(c)
            j = int(np.argmin(d))
            if d[j] < 1e-9 * (1.0 + np.abs(c).max()):
                idx.append(j)
        return np.array(sorted(set(idx)), dtype=np.int64)

    # -- concentration centres ----------------------------------------------
    # Blow-up concentrates at a point of the smooth boundary, so every
    # witness centre, Green pole and bubble seed is a boundary vertex that
    # is not a domain corner.

    def corner_free_radius(self, vertex: int) -> float:
        """Distance from a vertex to the nearest domain corner."""
        x0 = self.vertices[vertex]
        corners = self.spec.corners()
        return float(
            np.min(np.hypot(corners[:, 0] - x0[0], corners[:, 1] - x0[1]))
        )

    def smooth_boundary_vertices(self) -> np.ndarray:
        """Sorted boundary vertex indices that are not domain corners."""
        bidx = self.boundary_vertex_indices()
        return bidx[~np.isin(bidx, self.corner_vertex_indices())]

    def require_smooth_boundary_vertex(self, vertex: int) -> None:
        """Usage error out of range; precondition error off the smooth boundary."""
        if not (0 <= vertex < self.num_vertices):
            raise UsageError(f"vertex index {vertex} out of range")
        if vertex not in self.boundary_edges:
            raise PreconditionError(f"vertex {vertex} is not on the boundary")
        if vertex in self.corner_vertex_indices():
            raise PreconditionError(
                f"vertex {vertex} is a domain corner, where the smooth-boundary "
                "constants do not apply"
            )

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Raise PreconditionError if any mesh invariant fails."""
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise PreconditionError("vertices must be an (nv, 2) array")
        if not np.all(np.isfinite(self.vertices)):
            raise PreconditionError("non-finite vertex coordinates")
        if not np.all(np.isfinite(self.f_nodal)) or self.f_nodal.shape != (
            self.num_vertices,
        ):
            raise PreconditionError("conformal factor must be finite, one per vertex")
        if self.triangles.min(initial=0) < 0 or self.triangles.max(
            initial=-1
        ) >= self.num_vertices:
            raise PreconditionError("triangle indices out of range")
        areas = self.euclidean_tri_areas()
        if np.any(areas <= 0):
            raise PreconditionError("degenerate or mis-oriented triangle present")

        # Edge incidence: interior edges in exactly 2 triangles, boundary in 1.
        nv = self.num_vertices
        _, keys, _, counts = _edge_topology(self.triangles, nv)
        if np.any(counts > 2):
            raise PreconditionError("non-manifold edge (shared by >2 triangles)")
        declared = np.sort(self.boundary_edges.reshape(-1, 2), axis=1)
        in_range = declared.size == 0 or (declared.min() >= 0 and declared.max() < nv)
        declared_keys = np.unique(declared[:, 0] * nv + declared[:, 1])
        if not (in_range and np.array_equal(keys[counts == 1], declared_keys)):
            raise PreconditionError("boundary_edges do not match topological boundary")

        # Disk topology: V - E + F = 1.
        euler = nv - keys.size + self.num_triangles
        if euler != 1:
            raise PreconditionError(f"unexpected Euler characteristic {euler}")

        # Referenced vertices only.
        used = np.zeros(self.num_vertices, dtype=bool)
        used[self.triangles.ravel()] = True
        if not used.all():
            raise PreconditionError("unreferenced vertices present")

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """The canonical mesh dictionary; its arrays are copies, so a caller
        may change them without changing the surface."""
        return {
            "format_version": 1,
            "domain": self.spec.to_dict(),
            "vertices": self.vertices.copy(),
            "triangles": self.triangles.copy(),
            "boundary_edges": self.boundary_edges.copy(),
            "f_nodal": self.f_nodal.copy(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Surface":
        try:
            if int(d.get("format_version", 0)) != 1:
                raise UsageError("unsupported mesh format_version")
            tris, bedges = np.array(d["triangles"]), np.array(d["boundary_edges"])
            if tris.dtype.kind not in "iu" or bedges.dtype.kind not in "iu":
                # A cast to int64 would read 0.4 as 0 and True as 1.
                raise TypeError("mesh indices must be integers")
            surf = cls(
                vertices=np.array(d["vertices"], dtype=float),
                triangles=tris.astype(np.int64, casting="safe", copy=False),
                boundary_edges=bedges.astype(np.int64, casting="safe", copy=False),
                f_nodal=np.array(d["f_nodal"], dtype=float),
                spec=DomainSpec.from_dict(d["domain"]),
            )
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise UsageError(f"malformed mesh dictionary: {exc}") from exc
        return surf

    def content_hash(self) -> str:
        """Stable sha256 over the canonical serialized form."""
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"),
                             default=np.ndarray.tolist)
        return hashlib.sha256(payload.encode()).hexdigest()


def _edge_lengths(c: np.ndarray) -> np.ndarray:
    """(nt, 3) edge lengths from (nt, 3, 2) triangle coordinates."""
    out = np.empty(c.shape[:2])
    for k in range(3):
        d = c[:, (k + 1) % 3] - c[:, (k + 2) % 3]
        out[:, k] = np.hypot(d[:, 0], d[:, 1])
    return out


# ---------------------------------------------------------------------------
# Template meshes
# ---------------------------------------------------------------------------


def build_domain(spec: DomainSpec, h: float) -> Surface:
    """Triangulate a template domain at target edge length ``h``.

    The returned mesh has edges no longer than roughly ``h`` (structured
    grid for rectangles; ring template for circular pieces).
    """
    if not (h > 0) or not math.isfinite(h):
        raise UsageError("mesh size h must be positive and finite")
    if spec.kind == "rectangle":
        verts, tris = _mesh_rectangle(spec.params[0], spec.params[1], h)
    elif spec.kind == "half_disk":
        verts, tris = _mesh_sector(spec.params[0], -math.pi / 2, math.pi / 2, h)
    else:
        verts, tris = _mesh_sector(spec.params[0], 0.0, spec.params[1], h)
    verts[np.abs(verts) < _SNAP] = 0.0
    bedges = _extract_boundary(tris)
    f = spec.f_callable()(verts[:, 0], verts[:, 1])
    surf = Surface(verts, tris, bedges, f, spec)
    return surf


def _mesh_rectangle(a: float, b: float, h: float):
    nx = max(1, int(math.ceil(a / h - 1e-9)))
    ny = max(1, int(math.ceil(b / h - 1e-9)))
    xs = np.linspace(0.0, a, nx + 1)
    ys = np.linspace(0.0, b, ny + 1)
    xv, yv = np.meshgrid(xs, ys, indexing="xy")
    verts = np.column_stack([xv.ravel(), yv.ravel()])

    def vid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return verts, np.asarray(tris, dtype=np.int64)


def _mesh_sector(radius: float, t0: float, t1: float, h: float):
    """Ring-template mesh of the sector t0 ≤ θ ≤ t1, 0 ≤ r ≤ radius."""
    span = t1 - t0
    n = max(2, int(math.ceil(radius / h - 1e-9)))
    # Points per ring grow linearly: ring i has k*i + 1 points, so the
    # outermost arc spacing span*radius/(k*n) is at most ~h.
    k = max(2, int(math.ceil(span * radius / (n * h) - 1e-9)))

    verts = [(0.0, 0.0)]
    ring_idx: list[np.ndarray] = [np.array([0])]
    ring_ang: list[np.ndarray] = [np.array([0.5 * (t0 + t1)])]
    for i in range(1, n + 1):
        m = k * i + 1
        ang = t0 + span * np.arange(m) / (m - 1)
        r = radius * i / n
        start = len(verts)
        verts.extend(zip(r * np.cos(ang), r * np.sin(ang)))
        ring_idx.append(np.arange(start, start + m))
        ring_ang.append(ang)

    tris: list[tuple] = []
    for i in range(1, n + 1):
        tris.extend(
            _triangulate_band(
                ring_idx[i - 1], ring_ang[i - 1], ring_idx[i], ring_ang[i]
            )
        )
    verts = np.asarray(verts, dtype=float)
    # Outer-ring vertices sit exactly on the arc up to roundoff; normalize.
    outer = ring_idx[-1]
    rr = np.hypot(verts[outer, 0], verts[outer, 1])
    verts[outer] *= (radius / rr)[:, None]
    return verts, np.asarray(tris, dtype=np.int64)


def _triangulate_band(inner_idx, inner_ang, outer_idx, outer_ang):
    """CCW triangles between two concentric vertex rings, merged by angle."""
    tris = []
    ii = oo = 0
    ni, no = len(inner_idx), len(outer_idx)
    while ii < ni - 1 or oo < no - 1:
        if ii == ni - 1:
            advance_outer = True
        elif oo == no - 1:
            advance_outer = False
        else:
            advance_outer = outer_ang[oo + 1] <= inner_ang[ii + 1] + 1e-12
        if advance_outer:
            tris.append((inner_idx[ii], outer_idx[oo], outer_idx[oo + 1]))
            oo += 1
        else:
            tris.append((inner_idx[ii], outer_idx[oo], inner_idx[ii + 1]))
            ii += 1
    return tris


def _edge_topology(tris: np.ndarray, n: int):
    """Edge incidence of a triangle array, vectorized.

    Returns ``(oriented, keys, inverse, counts)``: the (3nt, 2) oriented
    edges in blocks 01, 12, 20 (triangle order within each block); the
    sorted unique undirected edge keys ``lo * n + hi``, where ``n`` exceeds
    every vertex index; the index into ``keys`` of each oriented edge; and
    the number of triangles sharing each unique edge.
    """
    oriented = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    lo = oriented.min(axis=1)
    hi = oriented.max(axis=1)
    keys, inverse, counts = np.unique(
        lo * n + hi, return_inverse=True, return_counts=True
    )
    return oriented, keys, inverse, counts


def _extract_boundary(tris: np.ndarray) -> np.ndarray:
    """Oriented boundary edges, those in exactly one triangle, sorted by (u, v)."""
    oriented, _, inverse, counts = _edge_topology(tris, int(tris.max()) + 1)
    out = oriented[counts[inverse] == 1]
    return out[np.lexsort((out[:, 1], out[:, 0]))]


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------


def _arc_radius(spec: DomainSpec) -> float | None:
    if spec.kind in ("half_disk", "disk_sector"):
        return spec.params[0]
    return None


def _arc_chord(pu, pv, radius: float):
    """Whether the edge pu–pv is a chord of the boundary arc |x| = radius.

    Both ends must lie on the arc (|r − radius| ≤ 1e-9·radius) and the edge
    must run across the radius, not along it.  The straight sides of
    ``half_disk`` and ``disk_sector`` lie on rays through the origin, and
    near a corner both ends of a short straight-side edge pass the on-arc
    tolerance; reprojecting its midpoint would land on the corner itself.
    With m the midpoint and d = pv − pu, a chord has m·d ≈ 0 while a radial
    edge has m × d ≈ 0, so the edge counts as tangential when
    |m × d| > |m·d|, i.e. |pu × pv| > ½·| |pv|² − |pu|² |.  Accepts single
    points or (n, 2) arrays of them.
    """
    pu = np.asarray(pu, dtype=float)
    pv = np.asarray(pv, dtype=float)
    xu, yu = pu[..., 0], pu[..., 1]
    xv, yv = pv[..., 0], pv[..., 1]
    tol = 1e-9 * radius
    on_arc = (np.abs(np.hypot(xu, yu) - radius) <= tol) & (
        np.abs(np.hypot(xv, yv) - radius) <= tol
    )
    cross = xu * yv - yu * xv
    dnorm = (xv * xv + yv * yv) - (xu * xu + yu * yu)
    return on_arc & (np.abs(cross) > 0.5 * np.abs(dnorm))


def _midpoint_values(u: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """½(u[a] + u[b]) for each parent edge (a, b) of a new vertex."""
    return 0.5 * (u[parents[:, 0]] + u[parents[:, 1]])


def _new_f(spec: DomainSpec, old_f, verts, new_slice, parents):
    """Conformal factor at newly created vertices.

    Evaluated exactly when an expression is available, otherwise linearly
    interpolated from the two parent vertices of each midpoint.
    """
    if spec.f_expr is not None:
        fn = spec.f_callable()
        return fn(verts[new_slice, 0], verts[new_slice, 1])
    return _midpoint_values(old_f, parents)


def refine(surface: Surface) -> Surface:
    """Uniform 4-way refinement; midpoints of arc edges are reprojected."""
    verts = surface.vertices
    tris = surface.triangles
    nv = surface.num_vertices

    # Global edge list and midpoint index per edge.
    _, keys, inverse, _ = _edge_topology(tris, nv)
    uniq = np.column_stack(np.divmod(keys, nv))
    mids = 0.5 * (verts[uniq[:, 0]] + verts[uniq[:, 1]])

    radius = _arc_radius(surface.spec)
    if radius is not None:
        on_arc = _arc_chord(verts[uniq[:, 0]], verts[uniq[:, 1]], radius)
        if on_arc.any():
            r = np.hypot(mids[on_arc, 0], mids[on_arc, 1])
            mids[on_arc] *= (radius / r)[:, None]
    mids[np.abs(mids) < _SNAP] = 0.0

    new_verts = np.vstack([verts, mids])
    mid_id = nv + inverse.reshape(3, -1)  # rows: m01, m12, m20 per triangle
    m01, m12, m20 = mid_id[0], mid_id[1], mid_id[2]
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    new_tris = np.concatenate(
        [
            np.column_stack([a, m01, m20]),
            np.column_stack([m01, b, m12]),
            np.column_stack([m20, m12, c]),
            np.column_stack([m01, m12, m20]),
        ],
        axis=0,
    )
    f_new = _new_f(surface.spec, surface.f_nodal, new_verts, slice(nv, None), uniq)
    return Surface(
        new_verts,
        new_tris,
        _extract_boundary(new_tris),
        np.concatenate([surface.f_nodal, f_new]),
        surface.spec,
    )


class _Bisection(NamedTuple):
    """Per-surface state carried from one ``refine_local`` round to the next.

    ``rot`` (nt, 3) is each triangle rotated, still CCW, so that edge 0–1 is
    its reference edge; ``nbr[k, t]`` (3, nt) is the triangle across edge
    k → k + 1 of ``rot[t]``, −1 on the boundary; ``centroid`` (nt, 2) and
    ``longest`` (nt,) are each triangle's vertex mean and longest edge, as
    ``adapt_for_point`` reads them.
    """

    rot: np.ndarray
    nbr: np.ndarray
    centroid: np.ndarray
    longest: np.ndarray


_BISECTION = "bisection"
_PROLONGATION = "prolongation"  # (coarse vertex count, each round's parents)


def _bisection(surface: Surface) -> _Bisection:
    """The surface's bisection record, built with one whole-mesh pass if absent."""
    rec = surface.cache.get(_BISECTION)
    if rec is None:
        rot, centroid, longest = _measure(surface.tri_coords(), surface.triangles)
        rec = _Bisection(rot, _neighbours(rot, surface.num_vertices), centroid,
                         longest)
        surface.cache[_BISECTION] = rec
    return rec


def _measure(c: np.ndarray, tris: np.ndarray):
    """``(rot, centroid, longest)`` of the rows ``tris`` with coordinates ``c``.

    The reference edge is the longest edge, ties going to the larger sorted
    vertex pair.
    """
    nxt = np.roll(tris, -1, axis=1)
    d = c - c[:, [1, 2, 0]]
    sq = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    # Largest (sq, lo, hi) in each row: no vertex count enters, so a row
    # carried into a larger mesh keeps the rotation a rebuild would give it.
    first = np.lexsort((np.maximum(tris, nxt), np.minimum(tris, nxt), sq))[:, -1]
    rot = np.take_along_axis(tris, (first[:, None] + np.arange(3)) % 3, axis=1)
    return rot, c.mean(axis=1), _edge_lengths(c).max(axis=1)


def _neighbours(rot: np.ndarray, n: int) -> np.ndarray:
    """(3, len(rot)) row of the triangle across each edge of ``rot``, or −1
    where no other row of ``rot`` shares it; ``n`` exceeds every vertex."""
    _, _, inverse, _ = _edge_topology(rot, n)
    order = np.argsort(inverse, kind="stable")
    twin = inverse[order[1:]] == inverse[order[:-1]]
    a, b = order[:-1][twin], order[1:][twin]
    out = np.full(inverse.size, -1, dtype=np.int64)
    out[a] = b % rot.shape[0]
    out[b] = a % rot.shape[0]
    return out.reshape(3, -1)


def refine_local(surface: Surface, marked: np.ndarray) -> Surface:
    """Bisect the marked triangles and close the refinement conformingly.

    ``marked`` is a bool mask with one entry per triangle.  Each triangle's
    reference edge is its longest edge, ties going to the larger sorted
    vertex pair.  Closure rule: mark the reference edges of the marked
    triangles, then the reference edge of every triangle that has a marked
    edge, until no edge is added.  A triangle with a marked edge is bisected
    across its reference edge, and each child is bisected again across its
    other parent edge if that edge is marked: 2, 3 or 4 children.  The result
    is conforming because every marked edge is split at its midpoint in both
    triangles containing it, and triangles with no marked edge are unchanged.

    Cost.  The work follows the surface's bisection record, kept in
    ``surface.cache`` (see `_Bisection`).  A surface without one pays one
    whole-mesh pass, an edge sort, to build it; the result carries its own,
    derived from the input's, so a sequence of rounds sorts the whole mesh
    once.  The closure is a walk from the marked triangles to the neighbours
    across their reference edges, and only the children are measured and
    linked, to one another and to the unchanged triangles around them, by an
    edge sort of that patch.  What each round still does to the whole mesh
    is a few copies and gathers, no sort.  The boundary edges are the slots
    with no neighbour, sorted by (u, v) as `_extract_boundary` sorts them.

    Numbering.  Unsplit triangles keep their input rows and order at the
    front of the result; the children follow, grouped by their place in the
    split pattern and in parent order within each group.  Midpoints are
    numbered in the order of the first triangle bisected across their edge:
    a cut triangle owns the midpoint of its reference edge unless the
    neighbour across it shares that reference edge and has a lower index.
    This is the order a whole-mesh pass over the sorted edges gives, and the
    children's rotations, centroids and longest edges are computed from
    their output rows with the whole-mesh arithmetic, so every mesh, and
    every record, is bit for bit what a rebuild from scratch gives.
    Midpoints of arc chords are reprojected onto the arc.  The result
    records each midpoint's parent edge for `prolong`.
    """
    marked = np.asarray(marked)
    nv, nt = surface.num_vertices, surface.num_triangles
    if marked.dtype != bool or marked.shape != (nt,):
        raise UsageError("refine_local takes a bool mask with one entry per triangle")
    if not marked.any():
        return surface
    verts, tris = surface.vertices, surface.triangles
    rot, nbr, centroid, longest = _bisection(surface)

    # Closure: a cut triangle's reference edge is split, so the neighbour
    # across it has a split edge and is cut too.
    cut = marked.copy()
    front = np.flatnonzero(marked)
    while front.size:
        nxt = nbr[0, front]
        nxt = nxt[nxt >= 0]
        front = np.unique(nxt[~cut[nxt]])
        cut[front] = True

    # One midpoint per split edge, owned by the cut triangle whose reference
    # edge it is, or by the lower-index one of two that share it; owners in
    # index order number the midpoints.
    idx = np.flatnonzero(cut)
    across = nbr[:, idx]
    shared = (across[0] >= 0) & (nbr[0, across[0]] == idx)
    owner = ~(shared & (across[0] < idx))
    ends = np.sort(rot[idx[owner], :2], axis=1)
    mids = 0.5 * (verts[ends[:, 0]] + verts[ends[:, 1]])
    radius = _arc_radius(surface.spec)
    if radius is not None:
        arc = (across[0, owner] < 0) & _arc_chord(verts[ends[:, 0]],
                                                  verts[ends[:, 1]], radius)
        if arc.any():
            x, y = mids[arc, 0], mids[arc, 1]
            # math.hypot, not np.hypot: the two differ in the last bit for
            # some inputs, and math.hypot keeps arc vertices bit-identical
            # to those of meshes adapted by earlier releases.
            r = np.frompyfunc(math.hypot, 2, 1)(x, y).astype(float)
            mids[arc] = np.column_stack([x * radius / r, y * radius / r])
    mids[np.abs(mids) < _SNAP] = 0.0
    # mid[t]: the midpoint of cut triangle t's reference edge.
    mid = np.full(nt, -1, dtype=np.int64)
    mid[idx[owner]] = nv + np.arange(ends.shape[0])
    mid[idx[~owner]] = mid[across[0, ~owner]]
    new_verts = np.concatenate([verts, mids])
    f_new = _new_f(surface.spec, surface.f_nodal, new_verts, slice(nv, None), ends)

    # Children: bisect (v0, v1, v2) at m0 into (v0, m0, v2) and (m0, v1, v2),
    # then split these across v2-v0 at m2 and v1-v2 at m1 where marked.
    # Edge k ≥ 1 is marked when it is the reference edge of the neighbour
    # across it and that neighbour is cut.
    v0, v1, v2 = rot[idx].T
    m0 = mid[idx]
    s1, s2 = [(n >= 0) & cut[n] & (nbr[0, n] == idx) for n in across[1:]]
    m1, m2 = mid[across[1]], mid[across[2]]

    def tri(a, b, c):
        return np.column_stack([a, b, c])

    kids = np.stack(
        [
            np.where(s2[:, None], tri(v2, m2, m0), tri(v0, m0, v2)),
            tri(m2, v0, m0),
            np.where(s1[:, None], tri(v1, m1, m0), tri(m0, v1, v2)),
            tri(m1, v2, m0),
        ]
    )
    used = np.stack([np.ones_like(s2), s2, np.ones_like(s1), s1])
    kids = kids[used]
    kept = np.flatnonzero(~cut)
    new_tris = np.concatenate([tris.take(kept, axis=0), kids])

    # The output's record.  Kept rows carry over, renumbered; a slot that
    # faced a cut triangle reads −1 until the children are linked, with the
    # kept triangles around them, by an edge sort of that patch.
    nk, nkids = kept.size, kids.shape[0]
    newid = np.full(nt + 1, -1, dtype=np.int64)  # newid[-1]: no neighbour
    newid[kept] = np.arange(nk)
    kid_rot, kid_centroid, kid_longest = _measure(new_verts[kids], kids)
    rot_new = np.concatenate([rot.take(kept, axis=0), kid_rot])
    nbr_new = np.concatenate(
        [newid.take(nbr.take(kept, axis=1)), np.empty((3, nkids), np.int64)], axis=1
    )
    rim = np.unique(newid.take(across))
    rim = rim[rim >= 0]
    patch = np.concatenate([rim, nk + np.arange(nkids)])
    link = _neighbours(rot_new[patch], new_verts.shape[0])
    link = np.where(link >= 0, patch[link], -1)
    face = nbr_new[:, rim]
    nbr_new[:, rim] = np.where(face >= 0, face, link[:, : rim.size])
    nbr_new[:, nk:] = link[:, rim.size:]
    rec = _Bisection(
        rot_new,
        nbr_new,
        np.concatenate([centroid.take(kept, axis=0), kid_centroid]),
        np.concatenate([longest.take(kept), kid_longest]),
    )

    k, t = np.nonzero(nbr_new < 0)
    bedges = np.column_stack([rot_new[t, k], rot_new[t, (k + 1) % 3]])
    out = Surface(
        new_verts,
        new_tris,
        bedges[np.lexsort((bedges[:, 1], bedges[:, 0]))],
        np.concatenate([surface.f_nodal, f_new]),
        surface.spec,
    )
    out.cache[_BISECTION] = rec
    out.cache[_PROLONGATION] = (nv, (ends,))
    return out


ADAPT_MAX_ROUNDS = 400  # bisection rounds before adapt_for_point gives up


def adapt_for_point(
    surface: Surface,
    center,
    inner_scale: float,
    outer_radius: float,
    ratio: float = 8.0,
) -> Surface:
    """Grade the mesh toward ``center``.

    After adaptation every triangle whose centroid lies within
    ``outer_radius`` of ``center`` has longest edge at most
    ``max(inner_scale, min(d, outer_radius)) / ratio`` where d is the
    centroid distance — i.e. resolution ~ d/ratio, saturating at
    ``inner_scale/ratio`` near the center.  The result records the parent
    edges of the rounds' new vertices, the identity when no round runs, so
    :func:`prolong` carries a state on ``surface`` over to it.
    """
    if inner_scale <= 0 or outer_radius <= 0:
        raise UsageError("adaptation scales must be positive")
    cx, cy = float(center[0]), float(center[1])
    surf, rounds = surface, ()
    for _ in range(ADAPT_MAX_ROUNDS):
        rec = _bisection(surf)
        cc, longest = rec.centroid, rec.longest
        d = np.hypot(cc[:, 0] - cx, cc[:, 1] - cy)
        target = np.maximum(inner_scale, np.minimum(d, outer_radius)) / ratio
        marks = (longest > target) & (d <= outer_radius + longest)
        if not marks.any():
            # The record only speeds up further rounds; an adapted mesh
            # would otherwise hold it for its lifetime.
            surf.cache.pop(_BISECTION, None)
            surf.cache[_PROLONGATION] = (surface.num_vertices, rounds)
            return surf
        surf = refine_local(surf, marks)
        rounds += surf.cache[_PROLONGATION][1]
    raise PreconditionError("adaptation did not settle within the round limit")


def prolong(fine: Surface, u) -> np.ndarray:
    """Carry the P1 state ``u`` on the coarse mesh over to ``fine``.

    ``fine`` comes from :func:`refine_local` or :func:`adapt_for_point`,
    which number each midpoint after the vertices it was made from.  So u at
    a new vertex is ½(u[a] + u[b]) over its parent edge (a, b), round by
    round in creation order: the same P1 function, except that a midpoint
    reprojected onto the arc takes its chord midpoint's value.  Raises
    :class:`UsageError` when ``fine`` holds no such record or ``u`` does not
    have the coarse vertex count.
    """
    if _PROLONGATION not in fine.cache:
        raise UsageError("surface was not made by refine_local or adapt_for_point")
    nv, rounds = fine.cache[_PROLONGATION]
    u = np.asarray(u, dtype=float)
    if u.shape != (nv,):
        raise UsageError(f"state has shape {u.shape}; the coarse mesh has {nv} vertices")
    for parents in rounds:
        u = np.concatenate([u, _midpoint_values(u, parents)])
    return u
