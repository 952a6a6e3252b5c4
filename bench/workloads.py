"""The four benchmark workloads.

Each workload has ``inputs(seed)``, which draws plain values from the seed,
and ``op(inputs, workdir)``, which builds every ``Surface`` from those
values (no cache survives from one op to the next), calls tmlab, checks
the results against the acceptance bounds and returns a fingerprint: the
``content_hash`` of every adapted mesh, the sha256 of every CLI output
file, or the sha256 of the computed fields.  Two ops on the same inputs
must return equal fingerprints.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from pathlib import Path

import numpy as np

# Module attributes, not names imported from them: the tracer wraps
# functions where callers look them up.
from tmlab import cli, moser, spectrum, surface, witness
from tmlab.surface import DomainSpec

PI = math.pi
TWO_PI = 2.0 * PI


class CheckFailed(Exception):
    """A workload's correctness check did not hold."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# adapt_ladder: acceptance 5 cut to two rungs
# ---------------------------------------------------------------------------


def adapt_ladder_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {"center_y": rng.choice([0.40, 0.45, 0.50, 0.55, 0.60])}


def adapt_ladder_op(inputs: dict, workdir: Path) -> dict:
    s = surface.build_domain(DomainSpec("rectangle", (2.0, 1.0)), 0.05)
    lam1 = spectrum.first_eigenpair(s, tol=1e-8)
    s.cache["lambda1"] = lam1
    vertex = witness.smooth_boundary_vertex(s, (0.0, inputs["center_y"]))
    rungs = witness.ladder_states(s, vertex, (1e-9, 1e-14), q=0.28,
                                  need_eigen_branch=False, adapt=True)
    grow = witness.evaluate_ladder(rungs, 0.0, 2.2 * PI, lam1.value)
    stable = witness.evaluate_ladder(rungs, 0.0, 1.8 * PI, lam1.value)
    _check(len(grow.ratios) == 1 and grow.ratios[0] >= 1.5,
           f"growth ratio {grow.ratios} < 1.5 at beta = 2.2 pi")
    change = abs(stable.values[-1] - stable.values[-2]) / abs(stable.values[-2])
    _check(change <= 0.05, f"last relative change {change:.4g} > 0.05 "
                           "at beta = 1.8 pi")
    return {f"rung{i}.mesh": r.surface.content_hash()
            for i, r in enumerate(rungs)}


# ---------------------------------------------------------------------------
# glued_bound: acceptance 7 with the pole moved along the arc
# ---------------------------------------------------------------------------


def glued_bound_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {"theta": round(rng.uniform(-0.4, 0.4), 6)}


def glued_bound_op(inputs: dict, workdir: Path) -> dict:
    s = surface.build_domain(DomainSpec("half_disk", (1.0,)), 0.04)
    th = inputs["theta"]
    vertex = witness.smooth_boundary_vertex(s, (math.cos(th), math.sin(th)))
    lam1 = spectrum.first_eigenpair(s, tol=1e-8)
    s.cache["lambda1"] = lam1
    prints = {}
    for tag, alpha in (("alpha0", 0.0), ("alpha005", 0.05 * lam1.value)):
        chk = witness.lower_bound_check(s, vertex, 1e-4, alpha=alpha)
        _check(chk["passed"] and chk["margin"] > 0.0,
               f"{tag}: value {chk['value']:.6g} does not beat bound "
               f"{chk['bound']:.6g}")
        _check(abs(chk["b"] - 1.0 / TWO_PI) <= 0.05,
               f"{tag}: |b - 1/2pi| = {abs(chk['b'] - 1.0 / TWO_PI):.4g} > 0.05")
        prints[f"{tag}.mesh"] = chk["state"].surface.content_hash()
    return prints


# ---------------------------------------------------------------------------
# maximize_grid: both seeds over a 3 x 2 (alpha / lambda1, eps) grid
# ---------------------------------------------------------------------------


def maximize_grid_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    ratios = [0.0] + [round(c + rng.uniform(-0.05, 0.05), 4) for c in (0.3, 0.6)]
    eps = [round(c + rng.uniform(-0.05, 0.05), 4) for c in (0.5, 0.25)]
    return {"alpha_ratios": ratios, "eps": eps}


def maximize_grid_op(inputs: dict, workdir: Path) -> dict:
    coarse = surface.build_domain(DomainSpec("half_disk", (1.0,)), 0.05)
    s = surface.refine(coarse)
    seeds = {"eigen": cli._eigen_seed(s), "bubble": cli._bubble_seed(s)}
    lam1 = s.cache["lambda1"].value
    prints = {}
    for ratio in inputs["alpha_ratios"]:
        for eps in inputs["eps"]:
            cell = f"a{ratio}_e{eps}"
            results = {}
            for name, u0 in seeds.items():
                res = moser.maximize_subcritical(s, ratio * lam1, eps, u0=u0)
                _check(res.converged and not res.tainted,
                       f"{cell} {name}: converged={res.converged} "
                       f"tainted={res.tainted}")
                results[name] = res
            fe, fb = results["eigen"].value, results["bubble"].value
            _check(abs(fe - fb) <= 1e-9 * max(abs(fe), abs(fb)),
                   f"{cell}: seeds disagree on F ({fe!r} vs {fb!r})")
            best = max(results.values(), key=lambda r: r.value)
            diag = moser.blowup_diagnostics(s, best.u, ratio * lam1, eps)
            prints[cell] = _digest(best.u, diag.psi, diag.phi)
    return prints


# ---------------------------------------------------------------------------
# cli_pipeline: five tmlab commands writing and reading files
# ---------------------------------------------------------------------------

# j'_{1,1}^2, the first nonzero Neumann eigenvalue of the unit half-disk.
HALF_DISK_LAMBDA1 = 3.38996


def cli_pipeline_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    c = round(rng.uniform(0.02, 0.1), 4)
    th = rng.uniform(-0.6, 0.6)
    return {"f": f"{c}*x1*x2",
            "point": f"{math.cos(th):.6f},{math.sin(th):.6f}"}


def cli_pipeline_op(inputs: dict, workdir: Path) -> dict:
    commands = [
        ["mesh", "--shape", "half-disk", "--h", "0.05", "--f", inputs["f"],
         "--out", "coarse.json"],
        ["mesh", "--refine", "coarse.json", "--times", "2", "--out", "fine.json"],
        ["eigen", "--mesh", "fine.json", "--out", "eigen.json"],
        ["green", "--mesh", "fine.json", "--point", inputs["point"],
         "--out", "green.json"],
        ["maximize", "--mesh", "coarse.json", "--eps", "0.5",
         "--out", "max.json"],
    ]
    workdir.mkdir(parents=True, exist_ok=True)
    for old in workdir.iterdir():
        old.unlink()
    # Relative paths keep the run records, hence the file bytes, identical
    # from one op to the next.
    back = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in commands:
            code = cli.main(argv)
            _check(code == 0, f"tmlab {argv[0]} exited with {code}")
    finally:
        os.chdir(back)

    def load(name):
        return json.loads((workdir / name).read_text())

    lam1 = load("eigen.json")["lambda1"]
    _check(abs(lam1 - HALF_DISK_LAMBDA1) <= 0.01 * HALF_DISK_LAMBDA1,
           f"lambda1 = {lam1!r} is not within 1% of {HALF_DISK_LAMBDA1}")
    spread = load("green.json")["A_spread"]
    _check(spread <= 0.02, f"Green A_spread = {spread!r} > 0.02")
    _check(load("max.json")["converged"], "maximize did not converge")
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.iterdir())}


WORKLOADS = {
    "adapt_ladder": (adapt_ladder_inputs, adapt_ladder_op),
    "glued_bound": (glued_bound_inputs, glued_bound_op),
    "maximize_grid": (maximize_grid_inputs, maximize_grid_op),
    "cli_pipeline": (cli_pipeline_inputs, cli_pipeline_op),
}
