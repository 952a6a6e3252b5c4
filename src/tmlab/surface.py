"""Triangulated planar domains with a conformal metric factor.

A `Surface` is a conforming triangulation of a template domain together
with a nodal conformal factor f, representing the metric
e^{2f}(dx₁² + dx₂²); f is given by an expression in x1, x2 that
`_compile_f` reads without ``eval``.  The module builds template meshes at a
requested resolution, refines them uniformly or locally (longest-edge
bisection with conformity closure), validates mesh invariants, and
(de)serializes meshes to a canonical dictionary form.

Conventions
-----------
* Triangles are counter-clockwise; boundary edges are oriented so the
  domain lies on their left (CCW traversal of the boundary).
* A template domain kind is its entry in `KINDS`: parameter names (also
  the CLI's options), rule, corners, arc radius and mesher.
  ``rectangle(width, height)`` is [0, width] × [0, height];
  ``half_disk(radius)`` is the *right* half-disk {x₁ ≥ 0, |x| ≤ R}, its
  straight side on the x₂-axis, so (R, 0) is a smooth boundary point;
  ``disk_sector(radius, angle)`` spans polar angles [0, angle].
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
_HASH_TAG = b"tmlab.Surface.content_hash v2\n"
_WIDTH_DIRECTIONS = 64  # directions whose widths bound a convex diameter


# ---------------------------------------------------------------------------
# Domain specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DomainSpec:
    """Template domain identity plus conformal-factor expression.

    Parameters
    ----------
    kind : str
        A key of `KINDS`.
    params : tuple of float
        The kind's parameters, in the order of its ``names``.
    f_expr : str or None
        Expression for the conformal factor f(x1, x2) in the variables
        ``x1``, ``x2`` (see `_compile_f`); ``None`` means f ≡ 0 (flat
        metric).  It is compiled once, here, so a bad one is rejected when
        the spec is built or read.

    The spec also holds its kind's corners and ``arc_radius`` (``None``
    without an arc), computed once.
    """

    kind: str
    params: tuple
    f_expr: str | None = None
    arc_radius: float | None = field(init=False, repr=False, compare=False)
    _corners: np.ndarray = field(init=False, repr=False, compare=False)
    _steps: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if not all(map(math.isfinite, self.params)):
            raise UsageError(f"domain parameters must be finite: {self.params}")
        kind = KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if kind is None:
            raise UsageError(f"unknown domain kind: {self.kind!r}")
        if len(self.params) != len(kind.names) or not kind.valid(*self.params):
            raise UsageError(kind.message)
        corners = np.array(kind.corners(*self.params), dtype=float).reshape(-1, 2)
        corners.flags.writeable = False
        arc = kind.arc(*self.params) if kind.arc else None
        object.__setattr__(self, "arc_radius", arc)
        object.__setattr__(self, "_corners", corners)
        steps = _compile_f("0" if self.f_expr is None else self.f_expr)
        object.__setattr__(self, "_steps", steps)

    # -- conformal factor ---------------------------------------------------

    def f_callable(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """Return a vectorized callable for f(x1, x2)."""
        return functools.partial(_run_f, self._steps)

    def corners(self) -> np.ndarray:
        """Exact coordinates of the domain's boundary corners, read-only."""
        return self._corners

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


def flat_areas(xy: np.ndarray) -> np.ndarray:
    """Signed flat areas of triangles with corners ``xy`` as from
    :meth:`Surface.tri_xy`: half the cross product of the edges from
    corner 0 to corners 1 and 2."""
    (x0, x1, x2), (y0, y1, y2) = xy
    return 0.5 * ((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))


@dataclass
class Surface:
    """A conforming triangulation carrying a nodal conformal factor.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array, counter-clockwise
    boundary_edges : (ne, 2) int array
        Each boundary edge once, the domain on its left; rows in any order.
    f_nodal : (nv,) float array, conformal factor at vertices
    spec : DomainSpec
    cache : dict
        Values derived from the surface, dropped on serialization.  Rule:
        a value is kept only when a later call on the same surface reads
        it again; a value with one reader is made in that reader and
        dropped.  Kept: quadrature weights, CSR pattern, K, M, M·1, area,
        the boundary record, the LU of K bordered with M·1, λ₁'s eigenpair,
        glued-state meshes and the parent map `prolong` applies.
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

    def tri_xy(self) -> np.ndarray:
        """(2, 3, nt) vertex coordinates of each triangle, indexed [axis,
        local vertex, triangle]: one contiguous row per coordinate."""
        return self.vertices.T.take(self.triangles.T, axis=1)

    def euclidean_tri_areas(self) -> np.ndarray:
        """Flat (metric-free) triangle areas, all positive for a valid mesh."""
        return flat_areas(self.tri_xy())

    def edge_lengths(self) -> np.ndarray:
        """(nt, 3) lengths of edges opposite each local vertex."""
        c = self.tri_coords()
        out = np.empty(c.shape[:2])
        for k in range(3):
            d = c[:, (k + 1) % 3] - c[:, (k + 2) % 3]
            out[:, k] = np.hypot(d[:, 0], d[:, 1])
        return out

    def distances(self, point) -> np.ndarray:
        """(nv,) Euclidean distances from ``point`` to every vertex."""
        return np.hypot(
            self.vertices[:, 0] - point[0], self.vertices[:, 1] - point[1]
        )

    def boundary(self) -> tuple:
        """``(before, after, corner)``, kept in ``cache``: per vertex the
        previous and the next boundary vertex (the domain on the left), −1
        off the boundary, and whether it is the boundary vertex nearest a
        spec corner c and within 1e-9·(1 + max |c|) of it."""
        if "boundary" not in self.cache:
            e, nv = self.boundary_edges, self.num_vertices
            before, after = np.full((2, nv), -1, dtype=np.int64)
            before[e[:, 1]], after[e[:, 0]] = e[:, 0], e[:, 1]
            on = np.flatnonzero(after >= 0)
            corner = np.zeros(nv, dtype=bool)
            for c in self.spec.corners():
                d = np.hypot(*(self.vertices[on] - c).T)
                j = int(np.argmin(d))
                corner[on[j]] |= d[j] < 1e-9 * (1.0 + np.abs(c).max())
            self.cache["boundary"] = before, after, corner
        return self.cache["boundary"]

    def convex_diameter_bound(self) -> float | None:
        """An upper bound on the diameter of the boundary polygon, or None
        when the polygon is not convex.

        Convex means: at every boundary vertex the cross product of the
        incoming and the outgoing boundary edge is ≥ 0 (a left turn or
        straight on), and the turning angles sum to 2π.  A closed polygon's
        turning angles sum to a multiple of 2π, so left turns that sum to 2π
        go round once: the polygon is simple and convex.  On a surface that
        passes :meth:`validate` (positive areas, no folds, disk topology)
        the triangles then tile that polygon.  A side that is straight only
        up to rounding can turn right by ~1e-17 and reads as not convex.

        The bound: the diameter d is the polygon's width in the direction
        of its longest chord, which lies within π/(2n) of one of n
        directions spaced π/n apart, so d ≤ max width / cos(π/(2n)).
        """
        before, after, _ = self.boundary()
        v = np.flatnonzero(after >= 0)
        p = self.vertices
        a = p[v] - p[before[v]]  # edge u → v
        b = p[after[v]] - p[v]  # edge v → w
        cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        turning = np.arctan2(cross, a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]).sum()
        if np.any(cross < 0.0) or round(turning / (2.0 * math.pi)) != 1:
            return None
        n = _WIDTH_DIRECTIONS
        theta = np.arange(n) * (math.pi / n)
        reach = p[v] @ np.array([np.cos(theta), np.sin(theta)])
        width = float((reach.max(axis=0) - reach.min(axis=0)).max())
        return width / math.cos(math.pi / (2 * n))

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

    def require_smooth_boundary_vertex(self, vertex: int) -> None:
        """Usage error unless an integer in range (a bool or a float is not
        one: ``rhs[True] += 1`` would add 1 everywhere); precondition error
        off the smooth boundary."""
        if isinstance(vertex, bool) or not isinstance(vertex, (int, np.integer)):
            raise UsageError(f"vertex index {vertex!r} is not an integer")
        if not (0 <= vertex < self.num_vertices):
            raise UsageError(f"vertex index {vertex} out of range")
        _, after, corner = self.boundary()
        if after[vertex] < 0:
            raise PreconditionError(f"vertex {vertex} is not on the boundary")
        if corner[vertex]:
            raise PreconditionError(
                f"vertex {vertex} is a domain corner, where the smooth-boundary "
                "constants do not apply"
            )

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Raise PreconditionError if any mesh invariant fails."""
        for name, width in (("vertices", 2), ("triangles", 3), ("boundary_edges", 2)):
            a = getattr(self, name)
            if a.ndim != 2 or a.shape[1] != width:
                raise PreconditionError(f"{name} must be an (n, {width}) array")
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

        # Edge incidence: an interior edge in 2 triangles that run it in
        # opposite directions, a boundary edge in 1.
        nv, nt = self.num_vertices, self.num_triangles
        keys, order = _edge_keys(self.triangles, nv)
        start, open_ = _runs(keys, order)
        shared = ~start[1:-1]  # sorted slots i and i + 1 hold one edge
        if np.any(shared[1:] & shared[:-1]):
            raise PreconditionError("non-manifold edge (shared by >2 triangles)")
        tail = self.triangles.T.ravel()[order]  # where each sorted slot's edge starts
        if np.any(shared & (tail[1:] == tail[:-1])):
            raise PreconditionError("triangles fold over a shared edge")
        declared = self.boundary_edges[np.lexsort(self.boundary_edges.T[::-1])]
        if not np.array_equal(declared, _boundary(self.triangles, open_)):
            raise PreconditionError("boundary_edges do not match topological boundary")

        # Disk topology: V - E + F = 1 (each edge in two slots or one), no
        # pinched boundary vertex, one piece through the shared edges.
        euler = nv - (3 * nt + open_.size) // 2 + nt
        if euler != 1:
            raise PreconditionError(f"unexpected Euler characteristic {euler}")
        if np.any(declared[1:, 0] == declared[:-1, 0]):
            raise PreconditionError("boundary pinched at a vertex")
        twin, tri = np.flatnonzero(shared), order % nt
        if not _connected(tri[twin], tri[twin + 1], nt):
            raise PreconditionError("triangles not connected through shared edges")

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
        if not isinstance(d, dict):
            raise UsageError("a mesh document must be a JSON object, not "
                             f"{type(d).__name__}")
        try:
            if int(d.get("format_version", 0)) != 1:
                raise UsageError("unsupported mesh format_version")
            surf = cls(
                vertices=np.array(d["vertices"], dtype=float),
                triangles=_index_array(d["triangles"], 3),
                boundary_edges=_index_array(d["boundary_edges"], 2),
                f_nodal=np.array(d["f_nodal"], dtype=float),
                spec=DomainSpec.from_dict(d["domain"]),
            )
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise UsageError(f"malformed mesh dictionary: {exc}") from exc
        return surf

    def content_hash(self) -> str:
        """sha256 identity of the mesh, its conformal factor and its domain.

        Hashed in order: a version tag; the domain spec's canonical JSON,
        prefixed with its length; then ``vertices``, ``triangles``,
        ``boundary_edges`` and ``f_nodal``, each as its ndim and shape
        (``<i8``) followed by its bytes as ``<f8`` or ``<i8``.  Every part
        is fixed-size or length-prefixed, so the bytes hashed determine the
        mesh.  For meshes with finite, non-empty arrays two hashes are
        equal exactly when the JSON dumps of ``to_dict()`` are: ``repr`` of
        a float is round-trip exact and tells -0.0 from 0.0, and
        ``__post_init__`` fixes the dtypes.  ``tests/test_surface.py``
        pins both.  No output file carries this hash.
        """
        spec = json.dumps(self.spec.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode()
        h = hashlib.sha256(_HASH_TAG + len(spec).to_bytes(8, "little") + spec)
        for a, dtype in ((self.vertices, "<f8"), (self.triangles, "<i8"),
                         (self.boundary_edges, "<i8"), (self.f_nodal, "<f8")):
            a = np.ascontiguousarray(a, dtype=dtype)
            h.update(np.array([a.ndim, *a.shape], dtype="<i8"))
            h.update(a)
        return h.hexdigest()


def _index_array(rows, width: int) -> np.ndarray:
    """Mesh indices as an (n, width) int64 array, or TypeError if one is not
    an integer and ValueError if the rows are not ``width`` wide.  A cast
    would read 0.4 as 0 and True as 1; a list mixing bools with ints reads
    as int64, so its entries read as 0 or 1 are checked for bools."""
    arr = np.array(rows)
    if arr.dtype.kind not in "iu":
        raise TypeError("mesh indices must be integers")
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"index rows must have {width} entries, not shape {arr.shape}")
    if not isinstance(rows, np.ndarray):
        small = np.flatnonzero((arr == 0) | (arr == 1))
        for pos in zip(*np.unravel_index(small, arr.shape)):
            item = functools.reduce(operator.getitem, pos, rows)
            if isinstance(item, (bool, np.bool_)):
                raise TypeError("mesh indices must be integers, not bools")
    return arr.astype(np.int64, casting="safe", copy=False)


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
    verts, tris = KINDS[spec.kind].mesh(*spec.params, h)
    verts[np.abs(verts) < _SNAP] = 0.0
    bedges = _boundary(tris, _runs(*_edge_keys(tris, len(verts)))[1])
    f = spec.f_callable()(verts[:, 0], verts[:, 1])
    return Surface(verts, tris, bedges, f, spec)


def _mesh_rectangle(a: float, b: float, h: float):
    """Structured mesh of [0, a] × [0, b]: each grid cell, row by row, is
    cut along its diagonal from (x, y) into two triangles."""
    nx = max(1, int(math.ceil(a / h - 1e-9)))
    ny = max(1, int(math.ceil(b / h - 1e-9)))
    xv, yv = np.meshgrid(np.linspace(0.0, a, nx + 1), np.linspace(0.0, b, ny + 1))
    verts = np.column_stack([xv.ravel(), yv.ravel()])
    v00 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    v10, v01, v11 = v00 + 1, v00 + nx + 1, v00 + nx + 2
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    return verts, tris.astype(np.int64)


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


class _Kind(NamedTuple):
    """A template domain kind.  Each callable takes the spec's params."""

    names: tuple  # parameter names in params order, also the CLI's options
    valid: Callable  # the rule the params must meet, ...
    message: str  # ... and the UsageError when they do not
    corners: Callable  # exact corner coordinates
    arc: Callable | None  # radius of the boundary arc |x| = r; None: no arc
    mesh: Callable  # (*params, h) -> (vertices, triangles)


KINDS = {
    "rectangle": _Kind(
        ("width", "height"), lambda a, b: min(a, b) > 0,
        "rectangle requires two positive side lengths",
        lambda a, b: [(0.0, 0.0), (a, 0.0), (a, b), (0.0, b)],
        None, _mesh_rectangle),
    "half_disk": _Kind(
        ("radius",), lambda r: r > 0, "half_disk requires one positive radius",
        lambda r: [(0.0, r), (0.0, -r)],
        lambda r: r, lambda r, h: _mesh_sector(r, -math.pi / 2, math.pi / 2, h)),
    "disk_sector": _Kind(
        ("radius", "angle"), lambda r, ang: r > 0 and 0 < ang < 2 * math.pi,
        "disk_sector requires a positive radius and an angle in (0, 2*pi)",
        lambda r, ang: [(0.0, 0.0), (r, 0.0), (r * math.cos(ang), r * math.sin(ang))],
        lambda r, ang: r, lambda r, ang, h: _mesh_sector(r, 0.0, ang, h)),
}


def _edge_keys(rows: np.ndarray, n: int):
    """``(keys, order)``: slot k·len(rows) + t holds the key lo·n + hi of edge
    k → k + 1 of row t, ``n`` exceeding every vertex; ``keys[order]`` is sorted."""
    nxt = rows[:, [1, 2, 0]]
    keys = (np.minimum(rows, nxt) * n + np.maximum(rows, nxt)).T.ravel()
    return keys, np.argsort(keys)


def _runs(keys: np.ndarray, order: np.ndarray):
    """``(start, open_)``: where each run of equal sorted keys starts, with
    one more True past the end, and the slots whose key no other shares."""
    sk = keys[order]
    start = np.ones(sk.size + 1, dtype=bool)
    start[1:-1] = sk[1:] != sk[:-1]
    return start, order[start[:-1] & start[1:]]


def _connected(a: np.ndarray, b: np.ndarray, n: int) -> bool:
    """Whether the links ``a[i]``–``b[i]`` join nodes 0 … n − 1 into one piece:
    each round hooks the larger root of every link across two roots under the
    smaller, then jumps pointers until each node points at its root."""
    root = np.arange(n)
    while (apart := np.flatnonzero((ra := root[a]) != (rb := root[b]))).size:
        ra, rb = ra[apart], rb[apart]
        root[np.maximum(ra, rb)] = np.minimum(ra, rb)
        while not np.array_equal(up := root[root], root):
            root = up
    return bool(np.all(root == 0))


def _boundary(rows: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The edges at the open ``slots`` of ``rows`` as (u, v) rows sorted by
    (u, v): each boundary edge once, the domain on its left."""
    k, t = np.divmod(slots, len(rows))
    e = np.column_stack([rows[t, k], rows[t, (k + 1) % 3]])
    return e[np.lexsort(e.T[::-1])]


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------


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


def _new_f(spec: DomainSpec, f, points, parents):
    """Conformal factor at new vertices ``points``, whose parent edges are
    ``parents``.

    Evaluated exactly when an expression is available, otherwise linearly
    interpolated from the two parent vertices of each midpoint.
    """
    if spec.f_expr is not None:
        fn = spec.f_callable()
        return fn(points[:, 0], points[:, 1])
    return _midpoint_values(f, parents)


def refine(surface: Surface) -> Surface:
    """Uniform 4-way refinement; midpoints of arc edges are reprojected."""
    verts = surface.vertices
    tris = surface.triangles
    nv = surface.num_vertices

    # Midpoint index per edge: each run of equal keys is one edge, in key order.
    keys, order = _edge_keys(tris, nv)
    start = _runs(keys, order)[0][:-1]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(start) - 1
    uniq = np.column_stack(np.divmod(keys[order[start]], nv))
    mids = 0.5 * (verts[uniq[:, 0]] + verts[uniq[:, 1]])

    radius = surface.spec.arc_radius
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
    f_new = _new_f(surface.spec, surface.f_nodal, mids, uniq)
    return Surface(
        new_verts,
        new_tris,
        _boundary(new_tris, _runs(*_edge_keys(new_tris, len(new_verts)))[1]),
        np.concatenate([surface.f_nodal, f_new]),
        surface.spec,
    )


_PROLONGATION = "prolongation"  # (coarse vertex count, each round's parents)


def _measure(c: np.ndarray, tris: np.ndarray):
    """``(rot, centroid, longest)`` of the rows ``tris`` with coordinates ``c``.

    The reference edge is the longest edge, ties going to the larger sorted
    vertex pair.  Every value is computed column by column: numpy reduces
    an axis of length 2 or 3 per row, an order of magnitude slower.
    """
    keys, lengths = [], []
    for k in range(3):  # edge k runs from vertex k to k + 1
        a, b = tris[:, k], tris[:, (k + 1) % 3]
        dx = c[:, k, 0] - c[:, (k + 1) % 3, 0]
        dy = c[:, k, 1] - c[:, (k + 1) % 3, 1]
        keys.append((dx * dx + dy * dy, np.minimum(a, b), np.maximum(a, b)))
        lengths.append(np.hypot(dx, dy))
    # The largest (sq, lo, hi) wins, the later edge on a tie as in a stable
    # sort.  No vertex count enters, so a row carried into a larger mesh
    # keeps the rotation a rebuild would give it.
    def wins(x, y):
        return (x[0] > y[0]) | ((x[0] == y[0]) & (
            (x[1] > y[1]) | ((x[1] == y[1]) & (x[2] >= y[2]))))
    one = wins(keys[1], keys[0])
    best = [np.where(one, x, y) for x, y in zip(keys[1], keys[0])]
    first = np.where(wins(keys[2], best), 2, one)
    rot = np.take_along_axis(tris, (first[:, None] + np.arange(3)) % 3, axis=1)
    centroid = (c[:, 0] + c[:, 1] + c[:, 2]) / 3
    return rot, centroid, np.maximum(np.maximum(lengths[0], lengths[1]), lengths[2])


def _neighbours(rot: np.ndarray, n: int) -> np.ndarray:
    """(3, len(rot)) row of the triangle across each edge of ``rot``, or −1
    where no other row of ``rot`` shares it; ``n`` exceeds every vertex."""
    keys, order = _edge_keys(rot, n)
    sk = keys[order]
    twin = sk[1:] == sk[:-1]
    a, b = order[:-1][twin], order[1:][twin]
    out = np.full(keys.size, -1, dtype=np.int64)
    out[a] = b % rot.shape[0]
    out[b] = a % rot.shape[0]
    return out.reshape(3, -1)


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D integer array, by one sort.  numpy 2.3 and
    later hash before they sort, several times slower on the few thousand
    slots of a patch."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _grown(a: np.ndarray, n: int, need: int = 0) -> np.ndarray:
    """A new buffer holding ``a[:n]``, with room for ``need`` rows and at
    least half as many again as ``n``."""
    out = np.empty((max(need, n + n // 2),) + a.shape[1:], a.dtype)
    out[:n] = a[:n]
    return out


class _Working:
    """A mesh under bisection rounds, in append-only buffers.

    Vertices and their conformal factor fill ``verts[:nv]`` and ``f[:nv]``.
    Triangles fill slots ``[:nt]`` of the row buffers ``tris`` (the rows
    as the surface holds them), ``rot`` (each row rotated, still CCW, so
    that edge 0–1 is its reference edge), ``nbr`` (``nbr[t, k]`` is the
    slot across edge k → k + 1 of ``rot[t]``, −1 on the boundary),
    ``centroid`` and ``longest`` (the vertex mean and longest edge, as
    `adapt_for_point` reads them).  A `refine_local` round tombstones
    its cut rows in ``dead``, appends their children after the last slot
    and relinks only the live rows that faced a cut row; a full buffer
    grows by half.  After each round the mesh's rows are the unsplit rows
    in input order, then the children: the live slots in slot order.  So
    no slot is ever renumbered, and `surface` reads the mesh off the live
    slots.  ``first_new`` is the first slot of the last round's children;
    ``parents`` holds each round's parent edges for `prolong`.
    """

    _ROWS = ("tris", "rot", "nbr", "centroid", "longest", "dead")

    def __init__(self, surface: Surface):
        nv, nt = surface.num_vertices, surface.num_triangles
        rot, centroid, longest = _measure(surface.tri_coords(), surface.triangles)
        self.spec, self.nv0, self.nv, self.nt = surface.spec, nv, nv, nt
        self.first_new, self.parents = 0, []
        self.verts = _grown(surface.vertices, nv)
        self.f = _grown(surface.f_nodal, nv)
        for name, a in zip(self._ROWS, (surface.triangles, rot, _neighbours(rot, nv).T,
                                        centroid, longest, np.zeros(nt, dtype=bool))):
            setattr(self, name, _grown(a, nt))

    def reserve(self, nv: int, nt: int) -> None:
        """Room for ``nv`` vertices and ``nt`` triangle slots."""
        if nv > len(self.verts):
            self.verts, self.f = (_grown(a, self.nv, nv) for a in (self.verts, self.f))
        if nt > len(self.tris):
            for name in self._ROWS:
                setattr(self, name, _grown(getattr(self, name), self.nt, nt))

    def surface(self) -> Surface:
        """The live mesh as a new `Surface` holding the `prolong` record.
        The buffers are dropped before the `Surface` is built, so the state
        is spent."""
        n, dead = self.nt, self.dead[: self.nt]
        live = np.flatnonzero(~dead)
        open_ = np.flatnonzero((self.nbr[:n].T < 0) & ~dead)
        arrays = (self.verts[: self.nv].copy(), self.tris.take(live, axis=0),
                  _boundary(self.rot[:n], open_), self.f[: self.nv].copy())
        del dead
        for name in ("verts", "f", *self._ROWS):
            setattr(self, name, None)
        out = Surface(*arrays, self.spec)
        out.cache[_PROLONGATION] = (self.nv0, tuple(self.parents))
        return out


def refine_local(w: _Working, marked: np.ndarray) -> None:
    """Bisect the marked triangles and close the refinement conformingly.

    One round on the working state ``w`` of `adapt_for_point`, which it
    advances; ``marked`` holds the sorted slots of the live rows to mark.
    Each triangle's reference edge is its longest edge, ties going to the
    larger sorted vertex pair.  Closure rule: mark the reference edges of
    the marked triangles, then the reference edge of every triangle that
    has a marked edge, until no edge is added.  A triangle with a marked
    edge is bisected across its reference edge, and each child is bisected
    again across its other parent edge if that edge is marked: 2, 3 or 4
    children.  The result is conforming because every marked edge is split
    at its midpoint in both triangles containing it, and triangles with no
    marked edge are unchanged.

    Cost.  A round costs the patch, not the mesh: the closure is a walk
    from the marked triangles to the neighbours across their reference
    edges; the cut rows are tombstoned in place; only the children are
    measured, column by column with no per-row sort, and linked, to one
    another and to the unchanged rows around them, by one sort of that
    patch's edge keys; and the vertices are appended.

    Numbering.  Unsplit triangles keep their input rows and order at the
    front of the result; the children follow, grouped by their place in the
    split pattern and in parent order within each group.  Midpoints are
    numbered in the order of the first triangle bisected across their edge:
    a cut triangle owns the midpoint of its reference edge unless the
    neighbour across it shares that reference edge and has a lower index.
    This is the order a whole-mesh pass over the sorted edges gives, and the
    children's rotations, centroids and longest edges are computed from
    their output rows with the whole-mesh arithmetic, so every mesh, and
    every slot's rotation, neighbours, centroid and longest edge, is bit
    for bit what a rebuild from scratch gives.  Midpoints of arc chords are
    reprojected onto the arc.  The state records each midpoint's parent
    edge for `prolong`.
    """
    front = np.asarray(marked, dtype=np.int64)
    # No buffer is bound to a local name: growing one in w.reserve must
    # free the old one.
    nv, nt = w.nv, w.nt

    # Closure: a cut triangle's reference edge is split, so the neighbour
    # across it has a split edge and is cut too.  Cut rows are tombstoned
    # as the walk reaches them.
    w.dead[front] = True
    cut = [front]
    while front.size:
        nxt = w.nbr[front, 0]
        nxt = nxt[nxt >= 0]
        front = _sorted_unique(nxt[~w.dead[nxt]])
        w.dead[front] = True
        cut.append(front)

    # One midpoint per split edge, owned by the cut triangle whose reference
    # edge it is, or by the lower-index one of two that share it; owners in
    # index order number the midpoints.
    idx = np.sort(np.concatenate(cut))
    across = w.nbr[idx].T
    shared = (across[0] >= 0) & (w.nbr[across[0], 0] == idx)
    owner = ~(shared & (across[0] < idx))
    ends = np.sort(w.rot[idx[owner], :2], axis=1)
    pu, pv = w.verts[ends[:, 0]], w.verts[ends[:, 1]]
    mids = 0.5 * (pu + pv)
    radius = w.spec.arc_radius
    if radius is not None:
        arc = (across[0, owner] < 0) & _arc_chord(pu, pv, radius)
        if arc.any():
            x, y = mids[arc, 0], mids[arc, 1]
            # math.hypot, not np.hypot: the two differ in the last bit for
            # some inputs, and math.hypot keeps arc vertices bit-identical
            # to those of meshes adapted by earlier releases.
            r = np.frompyfunc(math.hypot, 2, 1)(x, y).astype(float)
            mids[arc] = np.column_stack([x * radius / r, y * radius / r])
    mids[np.abs(mids) < _SNAP] = 0.0
    # mid[i]: the midpoint of the reference edge of cut row idx[i], found
    # from a row's slot by bisection in idx; meaningful for cut rows only.
    mid = np.empty(idx.size, dtype=np.int64)

    def mid_of(rows):
        return mid[np.minimum(np.searchsorted(idx, rows), idx.size - 1)]

    mid[owner] = nv + np.arange(ends.shape[0])
    mid[~owner] = mid_of(across[0, ~owner])

    # Children: bisect (v0, v1, v2) at m0 into (v0, m0, v2) and (m0, v1, v2),
    # then split these across v2-v0 at m2 and v1-v2 at m1 where marked.
    # Edge k ≥ 1 is marked when it is the reference edge of the neighbour
    # across it and that neighbour is cut.
    v0, v1, v2 = w.rot[idx].T
    m0, m1, m2 = mid, mid_of(across[1]), mid_of(across[2])
    s1, s2 = [(n >= 0) & w.dead[n] & (w.nbr[n, 0] == idx) for n in across[1:]]

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

    # Append the midpoints and the children's slots.
    nmids, nkids = ends.shape[0], kids.shape[0]
    w.reserve(nv + nmids, nt + nkids)
    w.verts[nv : nv + nmids] = mids
    w.f[nv : nv + nmids] = _new_f(w.spec, w.f, mids, ends)
    new = slice(nt, nt + nkids)
    w.tris[new] = kids
    w.rot[new], w.centroid[new], w.longest[new] = _measure(w.verts[kids], kids)
    w.dead[new] = False

    # Link the children, to one another and to the live rows around them,
    # by an edge sort of that patch.  A rim face that points at a tombstoned
    # slot counts as −1 and takes the link.
    rim = _sorted_unique(across.ravel())
    rim = rim[rim >= 0]
    rim = rim[~w.dead[rim]]
    patch = np.concatenate([rim, np.arange(nt, nt + nkids)])
    link = _neighbours(w.rot[patch], nv + nmids)
    link = np.where(link >= 0, patch[link], -1)
    face = w.nbr[rim]
    w.nbr[rim] = np.where((face >= 0) & ~w.dead[face], face, link[:, : rim.size].T)
    w.nbr[new] = link[:, rim.size :].T
    w.nv, w.nt, w.first_new = nv + nmids, nt + nkids, nt
    w.parents.append(ends)


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
    ``inner_scale/ratio`` near the center.  The result is a new `Surface`
    that records the parent edges of the rounds' new vertices, so
    :func:`prolong` carries a state on ``surface`` over to it.  The record
    starts from ``surface`` even when that is itself adapted, so a mesh
    graded further holds only the further rounds.  When no round runs the
    result holds ``surface``'s arrays, a copy of its cache (the mesh is the
    same, so nothing is assembled again) and the identity record.  A centre
    that is not finite, or scales or a ratio that are not positive and
    finite, raise :class:`UsageError`.

    The rounds run on one `_Working` state, one `refine_local` call each,
    and one `Surface` is built at the end.  ``surface`` is left as it was.
    The first round tests every triangle; each later round tests only the
    rows the previous round created (``first_new`` on).  That is exact: a
    row before them is an input row the round did not cut, so it was
    unmarked, and the mark reads nothing but the row's centroid and longest
    edge, which it carries over unchanged.
    """
    cx, cy = float(center[0]), float(center[1])
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise UsageError(f"adaptation centre must be finite, not ({cx}, {cy})")
    for name, value in (("inner_scale", inner_scale),
                        ("outer_radius", outer_radius), ("ratio", ratio)):
        if not (0 < value < math.inf):
            raise UsageError(f"adaptation {name} must be positive and finite, "
                             f"not {value}")
    w, start = _Working(surface), 0
    for _ in range(ADAPT_MAX_ROUNDS):
        cc, longest = w.centroid[start : w.nt], w.longest[start : w.nt]
        d = np.hypot(cc[:, 0] - cx, cc[:, 1] - cy)
        target = np.maximum(inner_scale, np.minimum(d, outer_radius)) / ratio
        new = (longest > target) & (d <= outer_radius + longest)
        if not new.any():
            if w.parents:
                return w.surface()
            out = Surface(surface.vertices, surface.triangles, surface.boundary_edges,
                          surface.f_nodal, surface.spec, dict(surface.cache))
            out.cache[_PROLONGATION] = (surface.num_vertices, ())
            return out
        refine_local(w, start + np.flatnonzero(new))
        start = w.first_new
    raise PreconditionError("adaptation did not settle within the round limit")


def prolong(fine: Surface, u) -> np.ndarray:
    """Carry the P1 state ``u`` on the coarse mesh over to ``fine``.

    ``fine`` comes from :func:`adapt_for_point`, which numbers each
    midpoint after the vertices it was made from.  So u at a new vertex is
    ½(u[a] + u[b]) over its parent edge (a, b), round by round in creation
    order: the same P1 function, except that a midpoint reprojected onto
    the arc takes its chord midpoint's value.  Raises :class:`UsageError`
    when ``fine`` holds no such record or ``u`` does not have the coarse
    vertex count.
    """
    if _PROLONGATION not in fine.cache:
        raise UsageError("surface was not made by adapt_for_point")
    nv, rounds = fine.cache[_PROLONGATION]
    u = np.asarray(u, dtype=float)
    if u.shape != (nv,):
        raise UsageError(f"state has shape {u.shape}; the coarse mesh has {nv} vertices")
    for parents in rounds:
        u = np.concatenate([u, _midpoint_values(u, parents)])
    return u
