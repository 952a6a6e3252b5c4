"""Command-line driver: mesh building, eigensolves, maximization, sweeps,
witness constructions, and Green-function extraction, with deterministic
file outputs.

Every command validates its inputs up front, computes, and then writes
results through the canonical serializer in :mod:`tmlab.records`; no
partial files are left behind on error, and no output may share a file
with another output or with an input.  Exit codes: 0 success, 2 usage
error, 3 violated mathematical precondition, 4 numerical failure.

Outputs are byte-identical across repeated runs of the same command line
on the same input files: no run record holds a clock reading.

The solver modules (``assembly``, ``green``, ``moser``, ``spectrum`` and
``witness``) import scipy, so each subcommand imports the ones it uses:
``tmlab mesh`` and ``--help`` start without them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import records
from . import surface as surface_mod
from .errors import TmlabError, UsageError

TWO_PI = 2.0 * math.pi

_SHAPES = {
    "half-disk": "half_disk",
    "rectangle": "rectangle",
    "disk-sector": "disk_sector",
}


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _load_surface(path: str) -> tuple:
    """Read a mesh JSON file; returns (surface, content-hash of the file)."""
    doc = records.read_json(path)
    surf = surface_mod.Surface.from_dict(doc)
    surf.validate()
    return surf, records.hash_file(path)


def _parse_float_list(text: str, name: str) -> list:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse {name} {text!r}: {exc}") from exc
    if not vals:
        raise UsageError(f"{name} must name at least one value")
    if not all(map(math.isfinite, vals)):
        raise UsageError(f"{name} values must be finite: {text!r}")
    return vals


def _parse_point(text: str) -> np.ndarray:
    vals = _parse_float_list(text, "point")
    if len(vals) != 2:
        raise UsageError("point must be two comma-separated coordinates")
    return np.asarray(vals)


def _parse_annuli(text: str) -> list:
    annuli = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        parts = tok.split(":")
        if len(parts) != 2:
            raise UsageError(
                f"annulus {tok!r} must look like r_inner:r_outer"
            )
        try:
            r0, r1 = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise UsageError(f"cannot parse annulus {tok!r}: {exc}") from exc
        if not (0 < r0 < r1 < math.inf):
            raise UsageError(
                f"annulus {tok!r} needs finite 0 < r_inner < r_outer"
            )
        annuli.append((r0, r1))
    if not annuli:
        raise UsageError("at least one annulus is required")
    return annuli


def _field_out_path(out: str, tag: str) -> str:
    stem = out[:-5] if out.endswith(".json") else out
    return f"{stem}.{tag}.json"


def _check_paths(args) -> None:
    """Fill in the default ``--field`` path, then reject shared files.

    Two outputs that resolve to one file, or an output that resolves to an
    input, would overwrite each other; this is a usage error, raised
    before anything is computed or written.
    """
    if getattr(args, "field_tag", None) and not args.field:
        args.field = _field_out_path(args.out, args.field_tag)
    seen = {}
    for opt in ("mesh", "refine", "out", "field", "plot"):
        path = getattr(args, opt, None)
        if not path:
            continue
        real = os.path.realpath(path)
        if real in seen:
            raise UsageError(
                f"--{seen[real]} and --{opt} name the same file {path!r}"
            )
        seen[real] = opt


def _write_field(path: str, values, mesh_hash: str,
                 record: records.RunRecord) -> None:
    payload = {
        "format_version": 1,
        "kind": "field",
        "mesh_hash": mesh_hash,
        "values": values,
    }
    records.write_json(path, payload, record)


def _radial_profile(surf: surface_mod.Surface, values, center,
                    r_max: float) -> tuple:
    """Per-vertex (distance-to-center, value) pairs sorted by distance."""
    r = surf.distances(center)
    keep = np.flatnonzero(r <= r_max)
    order = keep[np.lexsort((keep, r[keep]))]
    return r[order], np.asarray(values)[order]


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------


def cmd_mesh(args) -> int:
    input_hashes = {}
    if args.refine:
        if args.shape is not None:
            raise UsageError("--refine and --shape are mutually exclusive")
        surf, mesh_hash = _load_surface(args.refine)
        input_hashes["mesh"] = mesh_hash
        times = args.times if args.times is not None else 1
        if times < 1:
            raise UsageError("--times must be at least 1 when refining")
        for _ in range(times):
            surf = surface_mod.refine(surf)
        params = {"refine": args.refine, "times": times}
    else:
        if args.shape is None:
            raise UsageError("either --shape or --refine is required")
        kind = _SHAPES[args.shape]
        if kind == "rectangle":
            if args.width is None or args.height is None:
                raise UsageError("rectangle needs --width and --height")
            shape_params = (args.width, args.height)
        elif kind == "half_disk":
            shape_params = (args.radius,)
        else:
            if args.angle is None:
                raise UsageError("disk-sector needs --angle (radians)")
            shape_params = (args.radius, args.angle)
        if args.h is None:
            raise UsageError("--h (target edge length) is required")
        spec = surface_mod.DomainSpec(kind, shape_params, args.f)
        surf = surface_mod.build_domain(spec, args.h)
        times = args.times if args.times is not None else 0
        if times < 0:
            raise UsageError("--times must be nonnegative")
        for _ in range(times):
            surf = surface_mod.refine(surf)
        params = {
            "shape": args.shape,
            "params": list(shape_params),
            "h": args.h,
            "f": args.f,
            "times": times,
        }
    record = records.RunRecord("mesh", params, input_hashes)
    records.write_json(args.out, surf.to_dict(), record)
    print(
        f"mesh: {surf.num_vertices} vertices, {surf.num_triangles} "
        f"triangles -> {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# eigen
# ---------------------------------------------------------------------------


def cmd_eigen(args) -> int:
    from . import spectrum

    spectrum.check_tol(args.tol)
    surf, mesh_hash = _load_surface(args.mesh)
    pair = spectrum.first_eigenpair(surf, tol=args.tol)
    params = {"mesh": args.mesh, "tol": args.tol}
    record = records.RunRecord("eigen", params, {"mesh": mesh_hash})
    _write_field(args.field, pair.vector, mesh_hash, record)
    payload = {
        "format_version": 1,
        "lambda1": pair.value,
        "residual": pair.residual,
        "iterations": pair.iterations,
        "u0_file": args.field,
    }
    records.write_json(args.out, payload, record)
    print(f"eigen: lambda1 = {pair.value:.12g} "
          f"(residual {pair.residual:.3e}) -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# maximize
# ---------------------------------------------------------------------------


def _eigen_seed(surf: surface_mod.Surface) -> np.ndarray:
    from . import assembly, spectrum

    # Keep the LU the maximizer reads, so the eigen solve borrows it.
    assembly.neumann_solver(surf)
    return spectrum.lambda1(surf).vector.copy()


def _bubble_seed(surf: surface_mod.Surface) -> np.ndarray:
    """Concentrated log-cap seed at the eigenfunction's boundary peak."""
    from . import assembly, witness

    assembly.neumann_solver(surf)  # as in _eigen_seed
    vertex = witness.peak_boundary_vertex(surf)
    delta = witness.default_delta(surf, vertex)
    state = witness.cap_state(surf, vertex, eps=1e-3, delta=delta, t=0.0)
    return state.v


def cmd_maximize(args) -> int:
    from . import moser, spectrum

    moser.check_subcritical(args.alpha, args.eps)
    spectrum.check_tol(args.tol)
    surf, mesh_hash = _load_surface(args.mesh)

    seed_names = ["eigen", "bubble"] if args.seed == "both" else [args.seed]
    seeds = {}
    for name in seed_names:
        u0 = _eigen_seed(surf) if name == "eigen" else _bubble_seed(surf)
        seeds[name] = moser.maximize_subcritical(
            surf, args.alpha, args.eps, u0=u0, tol=args.tol
        )
    best_name = moser.best_seed(seeds)
    best = seeds[best_name]

    params = {
        "mesh": args.mesh,
        "alpha": args.alpha,
        "eps": args.eps,
        "seed": args.seed,
        "tol": args.tol,
    }
    record = records.RunRecord("maximize", params, {"mesh": mesh_hash})
    _write_field(args.field, best.u, mesh_hash, record)

    def seed_block(res) -> dict:
        coeff = moser.el_coefficients(surf, res.u, args.alpha, args.eps)
        return {
            "F_value": res.value,
            "converged": res.converged,
            "el_residual": res.residual,
            "ascent_iterations": res.ascent_iterations,
            "newton_iterations": res.newton_iterations,
            "norm_l2_sq": coeff.norm_sq,
            "lambda_eps": coeff.lambda_eps,
        }

    payload = {
        "format_version": 1,
        "alpha": args.alpha,
        "eps": args.eps,
        "beta": TWO_PI - args.eps,
        "seeds": {name: seed_block(res) for name, res in seeds.items()},
        "best_seed": best_name,
        "F_value": best.value,
        "converged": best.converged,
        "el_residual": best.residual,
        "peak_vertex": best.peak_vertex,
        "peak_is_corner": best.peak_is_corner,
        "u_file": args.field,
    }
    records.write_json(args.out, payload, record)
    print(
        f"maximize: F = {best.value:.12g} via {best_name} seed "
        f"(converged={best.converged}) -> {args.out}"
    )
    if best.peak_is_corner:
        x, y = surf.vertices[best.peak_vertex]
        print(f"warning: the maximizer peaks at the domain corner ({x:.6g}, "
              f"{y:.6g}) (vertex {best.peak_vertex}); F depends on the mesh there",
              file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    from . import moser, spectrum, witness

    alphas = _parse_float_list(args.alphas, "alpha grid")
    eps_ladder = witness.check_ladder(
        _parse_float_list(args.eps_ladder, "eps ladder"), args.q)
    for a in alphas:  # as multiples of lambda1 too, since lambda1 > 0
        moser.check_coefficients(a, args.beta)
    surf, mesh_hash = _load_surface(args.mesh)
    if args.relative:
        alphas = [a * spectrum.lambda1(surf).value for a in alphas]
    matrix = witness.divergence_matrix(surf, alphas, eps_ladder,
                                       beta=args.beta, q=args.q)
    ladders = matrix["ladders"]

    header = [
        "alpha", "level", "eps", "t", "delta", "F_value", "ratio", "growth",
    ]
    rows = []
    for lad in ladders:
        for level, eps in enumerate(lad.eps):
            ratio = lad.ratios[level - 1] if level > 0 else ""
            rows.append([
                lad.alpha, level, eps, lad.ts[level], lad.deltas[level],
                lad.values[level], ratio, lad.growth,
            ])
    params = {
        "mesh": args.mesh,
        "alphas": args.alphas,
        "relative": args.relative,
        "eps_ladder": args.eps_ladder,
        "beta": args.beta,
        "q": args.q,
        "lambda1": matrix["lambda1"],
        "vertex": matrix["vertex"],
    }
    record = records.RunRecord("sweep", params, {"mesh": mesh_hash})
    records.write_csv(args.out, header, rows, record)
    grown = sum(1 for lad in ladders if lad.growth)
    print(
        f"sweep: {len(alphas)} alpha x {len(eps_ladder)} eps "
        f"({grown} growing ladders) -> {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def _witness_bubble(args) -> tuple:
    from . import witness

    n = args.samples
    if n < 2:
        raise UsageError("--samples must be at least 2")
    if args.rho_max <= 0:
        raise UsageError("--rho-max must be positive")
    rho = np.linspace(0.0, args.rho_max, n)
    payload = {
        "format_version": 1,
        "kind": "bubble",
        "rho_max": args.rho_max,
        "samples": n,
        "phi_at_zero": float(witness.bubble_phi(0.0)),
        "phi_at_one": float(witness.bubble_phi(1.0)),
        "mass_total": witness.bubble_mass(np.inf),
        "mass_within_rho_max": witness.bubble_mass(args.rho_max),
    }
    params = {"kind": "bubble", "rho_max": args.rho_max, "samples": n}
    return (payload, params, (rho, witness.bubble_phi(rho)),
            f"witness bubble: phi(1) = {payload['phi_at_one']:.9g}")


def _witness_moser(args, surf, vertex) -> tuple:
    from . import moser, spectrum, witness

    eigenpair = spectrum.lambda1(surf)
    state = witness.moser_sequence(surf, eigenpair, vertex, args.eps,
                                   q=args.q)
    fv = moser.functional_at_beta(surf, state.v, args.alpha, args.beta)
    payload = {
        "format_version": 1,
        "kind": "moser",
        "alpha": args.alpha,
        "beta": args.beta,
        "lambda1": eigenpair.value,
        "eps": state.eps,
        "t": state.t,
        "delta": state.delta,
        "bump_amplitude": state.bump_amplitude,
        "vertex": state.vertex,
        "center": [float(c) for c in surf.vertices[state.vertex]],
        "plateau_radius": state.delta * math.sqrt(state.eps),
        "F_value": fv.value,
    }
    params = {
        "kind": "moser", "mesh": args.mesh, "eps": args.eps,
        "alpha": args.alpha, "beta": args.beta, "q": args.q,
        "vertex": args.vertex,
    }
    profile = _radial_profile(surf, state.v, surf.vertices[state.vertex],
                              r_max=3.0 * state.delta)
    return payload, params, profile, f"witness moser: F = {fv.value:.12g}"


def _witness_glued(args, surf, vertex) -> tuple:
    from . import witness

    check = witness.lower_bound_check(surf, vertex, args.eps,
                                      alpha=args.alpha)
    state = check.pop("state")
    payload = {"format_version": 1, "kind": "glued", **check,
               "prenorm": state.prenorm, "vertex": state.vertex}
    params = {
        "kind": "glued", "mesh": args.mesh, "eps": args.eps,
        "alpha": args.alpha, "vertex": args.vertex,
    }
    profile = _radial_profile(state.surface, state.v,
                              state.surface.vertices[state.vertex], r_max=1.0)
    return payload, params, profile, (
        f"witness glued: F = {check['value']:.12g} vs bound "
        f"{check['bound']:.12g} (passed={check['passed']})"
    )


def cmd_witness(args) -> int:
    from . import moser, witness

    if args.kind == "bubble":
        input_hashes = {}
        payload, params, profile, message = _witness_bubble(args)
    else:
        if args.mesh is None:
            raise UsageError(f"witness kind {args.kind!r} requires --mesh")
        if not (0 < args.eps < 0.1):
            raise UsageError("eps must lie in (0, 0.1) for witness states")
        if args.kind == "moser":
            moser.check_coefficients(args.alpha, args.beta)
            witness.check_ladder([args.eps], args.q)
        else:
            moser.check_coefficients(args.alpha)
        surf, mesh_hash = _load_surface(args.mesh)
        input_hashes = {"mesh": mesh_hash}
        if args.vertex is None:
            vertex = witness.peak_boundary_vertex(surf)
        else:
            surf.require_smooth_boundary_vertex(args.vertex)
            vertex = args.vertex
        build = _witness_moser if args.kind == "moser" else _witness_glued
        payload, params, profile, message = build(args, surf, vertex)
    record = records.RunRecord("witness", params, input_hashes)
    if args.plot:
        xs, ys = (records.require_finite(a) for a in profile)
    records.write_json(args.out, payload, record)
    if args.plot:
        records.write_profile(args.plot, xs, ys, record)
    print(f"{message} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# green
# ---------------------------------------------------------------------------


def cmd_green(args) -> int:
    from . import green as green_mod, moser, witness

    moser.check_coefficients(args.alpha)
    annuli = _parse_annuli(args.annuli)
    surf, mesh_hash = _load_surface(args.mesh)
    if (args.vertex is None) == (args.point is None):
        raise UsageError("exactly one of --vertex/--point is required")
    if args.vertex is not None:
        vertex = args.vertex
        surf.require_smooth_boundary_vertex(vertex)
    else:
        vertex = witness.smooth_boundary_vertex(surf, _parse_point(args.point))
    green_mod.check_annuli(surf, surf.vertices[vertex], annuli)

    result = green_mod.green_function(surf, vertex, alpha=args.alpha)
    decomp = green_mod.green_decomposition(surf, result, annuli=annuli)
    sigma = decomp.pop("sigma")

    params = {
        "mesh": args.mesh,
        "vertex": vertex,
        "alpha": args.alpha,
        "annuli": args.annuli,
    }
    record = records.RunRecord("green", params, {"mesh": mesh_hash})
    _write_field(args.field, result.values, mesh_hash, record)

    payload = {
        "format_version": 1,
        "vertex": vertex,
        "x0": [float(c) for c in result.x0],
        "alpha": args.alpha,
        "A_x0": decomp["A_estimates"][0],
        "sigma_max_abs": float(np.max(np.abs(sigma))),
        "G_file": args.field,
    }
    payload.update(decomp)
    records.write_json(args.out, payload, record)
    print(
        f"green: A = {payload['A_x0']:.9g} (spread {decomp['A_spread']:.3g}, "
        f"residual {decomp['residual']:.3e}) -> {args.out}"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmlab",
        description=(
            "Numerical laboratory for a sharp mean-zero exponential-class "
            "inequality on surfaces with boundary."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", required=True, help="output file path")

    p = sub.add_parser("mesh", help="build or refine a triangulated domain")
    p.add_argument("--shape", choices=sorted(_SHAPES))
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--width", type=float)
    p.add_argument("--height", type=float)
    p.add_argument("--angle", type=float, help="sector angle in radians")
    p.add_argument("--h", type=float, help="target edge length")
    p.add_argument("--f", help="conformal factor expression in x1, x2")
    p.add_argument("--refine", metavar="MESH_JSON",
                   help="refine an existing mesh file instead of building")
    p.add_argument("--times", type=int,
                   help="uniform refinements to apply "
                        "(default 1 with --refine, else 0)")
    common(p)
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("eigen", help="first mean-zero Neumann eigenpair")
    p.add_argument("--mesh", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--field", help="output path for the eigenfunction")
    common(p)
    p.set_defaults(func=cmd_eigen, field_tag="u0")

    p = sub.add_parser("maximize", help="maximize the subcritical functional")
    p.add_argument("--mesh", required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--eps", type=float, required=True,
                   help="subcritical defect: exponent rate is 2*pi - eps")
    p.add_argument("--seed", choices=["eigen", "bubble", "both"],
                   default="both")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--field", help="output path for the maximizer field")
    common(p)
    p.set_defaults(func=cmd_maximize, field_tag="u")

    p = sub.add_parser("sweep", help="witness values over an (alpha, eps) grid")
    p.add_argument("--mesh", required=True)
    p.add_argument("--alphas", required=True,
                   help="comma-separated alpha grid")
    p.add_argument("--relative", action="store_true",
                   help="read --alphas as multiples of lambda1")
    p.add_argument("--eps-ladder", required=True,
                   help="comma-separated decreasing concentration scales")
    p.add_argument("--beta", type=float, default=TWO_PI)
    p.add_argument("--q", type=float, default=0.28,
                   help="eigen-branch amplitude exponent t = L^-q, in (1/4, 1/2)")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("witness", help="explicit concentration constructions")
    p.add_argument("--kind", choices=["moser", "glued", "bubble"],
                   required=True)
    p.add_argument("--mesh")
    p.add_argument("--eps", type=float, default=1e-4,
                   help="concentration scale of the construction")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=TWO_PI)
    p.add_argument("--q", type=float, default=0.28,
                   help="moser: amplitude exponent t = L^-q, in (1/4, 1/2)")
    p.add_argument("--vertex", type=int,
                   help="smooth boundary vertex index of the concentration "
                        "point (default: where u0 peaks on the boundary)")
    p.add_argument("--rho-max", type=float, default=5.0,
                   help="bubble: largest sampled radius")
    p.add_argument("--samples", type=int, default=201,
                   help="bubble: number of radial samples")
    p.add_argument("--plot", help="optional two-column profile output path")
    common(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("green", help="mean-zero Green function at a boundary pole")
    p.add_argument("--mesh", required=True)
    p.add_argument("--vertex", type=int, help="pole vertex index")
    p.add_argument("--point", help="pole location x,y (nearest boundary vertex)")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--annuli", default="0.1:0.2,0.2:0.3",
                   help="comma-separated r_inner:r_outer annuli")
    p.add_argument("--field", help="output path for the Green field")
    common(p)
    p.set_defaults(func=cmd_green, field_tag="G")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise UsageError(f"--{name.replace('_', '-')} must be finite, "
                                 f"got {value}")
        _check_paths(args)
        return args.func(args)
    except TmlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
