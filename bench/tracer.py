"""In-memory span tracer that wraps tmlab's public functions from outside.

The program is not instrumented: :func:`install` replaces each traced
function at every name a caller looks it up by (module globals that hold
the same function object, class attributes, and ``scipy.sparse.linalg.splu``
as seen through the ``spla`` alias of the solver modules), and
:meth:`Installed.remove` puts the originals back.

A span is ``(name, start, end, parent)``; ``parent`` is the index of the
enclosing span or -1.  A span's self time is its duration minus the time
its direct children cover (children of one thread never overlap).
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from collections import Counter

import numpy as np

# Traced names, by layer.  ``Surface.*`` are methods of tmlab.surface.Surface.
LAYERS = {
    "surface": ["build_domain", "refine", "refine_local", "adapt_for_point",
                "Surface.validate", "Surface.to_dict", "Surface.from_dict"],
    "assembly": ["evaluate", "km_solver", "dual_norm"],
    "lu": ["splu"],
    "spectrum": ["first_eigenpair"],
    "moser": ["maximize_subcritical", "functional", "functional_at_beta",
              "gradient", "el_residual", "el_coefficients",
              "blowup_diagnostics"],
    "green": ["green_function", "extract_A", "green_decomposition"],
    "witness": ["ladder_states", "evaluate_ladder", "cap_state", "glued_state",
                "glued_sequence", "lower_bound_check"],
    "records": ["write_json", "write_csv", "read_json", "hash_file",
                "canonical_json"],
    "cli": ["cmd_mesh", "cmd_eigen", "cmd_green", "cmd_maximize"],
}
SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]

# Functions that recurse through their own module global.  While the
# outermost call runs, the original is put back at every site, so the
# recursion records no spans and pays no wrapper cost.
COLLAPSED = {"records.canonical_json"}

# Counts and ratios of one op: name -> (unit, better).
COUNTERS = {
    "surface.adapt.rounds": ("count", "lower"),
    "surface.adapt.triangles_out": ("count", "lower"),
    "surface.adapt.distinct_ratio": ("ratio", "higher"),
    "spectrum.sweeps": ("count", "lower"),
    "moser.ascent_iters": ("count", "lower"),
    "moser.newton_iters": ("count", "lower"),
    "lu.factorizations": ("count", "lower"),
    "lu.factor_nnz": ("count", "lower"),
    "assembly.km_solver.hit_ratio": ("ratio", "higher"),
    "assembly.evaluate.points": ("count", "lower"),
    "records.bytes_written": ("bytes", "lower"),
    "records.bytes_read": ("bytes", "lower"),
}


def per_layer_metrics() -> list:
    """Every metric a traced run reports, as (name, unit, better)."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.self_s", "s", "lower"),
                (f"{name}.calls", "count", "lower")]
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out.append(("untraced.self_s", "s", "lower"))
    out += [(name, unit, better) for name, (unit, better) in COUNTERS.items()]
    out += [("trace.op_ref_s", "s", "lower"), ("trace.overhead_s", "s", "lower")]
    return out


ROOT = "op"  # the benchmark's own span around one workload op


class Tracer:
    """Collects spans and counters in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []  # [name, start, end, parent]
        self.counters: Counter = Counter()
        self.adapt_keys: set = set()
        self._stack: list = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")


def self_times(spans: list) -> list:
    """Per-span self time: duration minus the time of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_, start, end, _) in enumerate(spans)]


def op_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one op traced under root span ``spans[0]``."""
    spans = tracer.spans
    if not spans or spans[0][0] != ROOT:
        raise ValueError("the first span must be the op root")
    selfs = self_times(spans)

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    out["untraced.self_s"] = selfs[0]
    rounds = 0
    km_spans, lu_parents = set(), set()
    for i, (name, _, _, parent) in enumerate(spans[1:], start=1):
        out[f"{name}.self_s"] += selfs[i]
        out[f"{name}.calls"] += 1
        out[f"{name.split('.', 1)[0]}.self_s"] += selfs[i]
        if name == "assembly.km_solver":
            km_spans.add(i)
        elif name == "lu.splu":
            lu_parents.add(parent)
        elif (name == "surface.refine_local"
              and spans[parent][0] == "surface.adapt_for_point"):
            rounds += 1
    counters = tracer.counters
    adapt_calls = out["surface.adapt_for_point.calls"]
    km_calls = len(km_spans)
    out.update({
        "surface.adapt.rounds": rounds,
        "surface.adapt.triangles_out": counters["adapt_triangles_out"],
        "surface.adapt.distinct_ratio":
            len(tracer.adapt_keys) / adapt_calls if adapt_calls else 0.0,
        "spectrum.sweeps": counters["eigen_sweeps"],
        "moser.ascent_iters": counters["ascent_iters"],
        "moser.newton_iters": counters["newton_iters"],
        "lu.factorizations": out["lu.splu.calls"],
        "lu.factor_nnz": counters["lu_nnz"],
        "assembly.km_solver.hit_ratio":
            len(km_spans - lu_parents) / km_calls if km_calls else 0.0,
        "assembly.evaluate.points": counters["evaluate_points"],
        "records.bytes_written": counters["bytes_written"],
        "records.bytes_read": counters["bytes_read"],
    })
    return out


# ---------------------------------------------------------------------------
# Counters recorded at the wrapped boundaries
# ---------------------------------------------------------------------------


def _mesh_key(surf) -> str:
    digest = hashlib.sha256()
    for arr in (surf.vertices, surf.triangles, surf.f_nodal):
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _on_adapt_enter(tracer, args, kwargs):
    surf, center = args[0], args[1]
    rest = tuple(args[2:]) + tuple(sorted(kwargs.items()))
    tracer.adapt_keys.add(
        (_mesh_key(surf), float(center[0]), float(center[1]), rest))


def _on_adapt_exit(tracer, args, kwargs, result):
    tracer.counters["adapt_triangles_out"] += result.num_triangles


def _on_eigen_exit(tracer, args, kwargs, result):
    tracer.counters["eigen_sweeps"] += result.iterations


def _on_maximize_exit(tracer, args, kwargs, result):
    tracer.counters["ascent_iters"] += result.ascent_iterations
    tracer.counters["newton_iters"] += result.newton_iterations


def _on_splu_exit(tracer, args, kwargs, result):
    tracer.counters["lu_nnz"] += result.nnz


def _on_evaluate_enter(tracer, args, kwargs):
    points = args[2] if len(args) > 2 else kwargs["points"]
    tracer.counters["evaluate_points"] += len(np.atleast_2d(points))


def _file_size(args, kwargs) -> int:
    try:
        return os.path.getsize(args[0] if args else kwargs["path"])
    except OSError:
        return 0  # the call itself reports the missing file


def _on_read_enter(tracer, args, kwargs):
    tracer.counters["bytes_read"] += _file_size(args, kwargs)


def _on_write_exit(tracer, args, kwargs, result):
    tracer.counters["bytes_written"] += _file_size(args, kwargs)


ENTER_HOOKS = {
    "surface.adapt_for_point": _on_adapt_enter,
    "assembly.evaluate": _on_evaluate_enter,
    "records.read_json": _on_read_enter,
    "records.hash_file": _on_read_enter,
}
EXIT_HOOKS = {
    "surface.adapt_for_point": _on_adapt_exit,
    "spectrum.first_eigenpair": _on_eigen_exit,
    "moser.maximize_subcritical": _on_maximize_exit,
    "lu.splu": _on_splu_exit,
    "records.write_json": _on_write_exit,
    "records.write_csv": _on_write_exit,
}


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------


def wrap(tracer: Tracer, name: str, fn, sites=()):
    """Return ``fn`` wrapped in a span called ``name``.

    ``sites`` lists the ``(owner, attribute)`` pairs the wrapper is installed
    at; a collapsed function is unwrapped there during its outermost call.
    """
    enter = ENTER_HOOKS.get(name)
    leave = EXIT_HOOKS.get(name)

    def traced(*args, **kwargs):
        if enter is not None:
            enter(tracer, args, kwargs)
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if leave is not None:
            leave(tracer, args, kwargs, result)
        return result

    if name not in COLLAPSED:
        return traced

    def outermost(*args, **kwargs):
        for owner, attr in sites:
            setattr(owner, attr, fn)
        try:
            return traced(*args, **kwargs)
        finally:
            for owner, attr in sites:
                setattr(owner, attr, outermost)

    return outermost


class Installed:
    """The attribute patches made by :func:`install`; ``remove`` undoes them."""

    def __init__(self):
        self.patches: list = []  # (owner, attribute, original)

    def set(self, owner, attr, value) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def _modules():
    import tmlab

    prefix = tmlab.__name__ + "."
    return [m for n, m in sorted(sys.modules.items())
            if n.startswith(prefix) and m is not None]


def install(tracer: Tracer) -> Installed:
    """Wrap every traced function wherever tmlab looks it up."""
    import scipy.sparse.linalg as spla

    import tmlab.cli  # noqa: F401  (loads every module that gets wrapped)
    from tmlab import assembly, green, moser, spectrum
    from tmlab.surface import Surface

    for mod in (assembly, spectrum, moser, green):
        if mod.spla is not spla:
            raise RuntimeError(f"{mod.__name__}.spla is not scipy.sparse.linalg")

    installed = Installed()
    modules = _modules()
    for layer, fns in LAYERS.items():
        for fn_name in fns:
            name = f"{layer}.{fn_name}"
            if layer == "lu":
                installed.set(spla, "splu", wrap(tracer, name, spla.splu))
                continue
            if fn_name.startswith("Surface."):
                attr = fn_name.split(".", 1)[1]
                raw = Surface.__dict__[attr]
                if isinstance(raw, classmethod):
                    value = classmethod(wrap(tracer, name, raw.__func__))
                else:
                    value = wrap(tracer, name, raw)
                installed.set(Surface, attr, value)
                continue
            original = sys.modules[f"tmlab.{layer}"].__dict__[fn_name]
            # Every module global bound to the same function: callers that
            # imported it by name (witness.adapt_for_point) see the wrapper.
            sites = [(mod, attr) for mod in modules
                     for attr, value in vars(mod).items() if value is original]
            wrapped = wrap(tracer, name, original, sites)
            for mod, attr in sites:
                installed.set(mod, attr, wrapped)
    return installed
