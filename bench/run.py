"""tmlab benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload adapt_ladder --seed 1 --seconds 24 --trace 0

The run imports tmlab from ``src/`` of the checkout, measures set-up time
in fresh interpreters, then runs workload ops back to back in this process
(a closed loop with one client) until ``--seconds`` is spent, with at least
two ops so every op can be checked against the first one.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``:

* ``--trace 0``: the end-to-end metrics ``op_ref_s``, ``setup_s`` and
  ``peak_rss_mb``, untraced;
* ``--trace 1``: the per-layer metrics of :mod:`tracer`.  Ops alternate
  untraced and traced, so the tracing overhead is measured in the same run.

Times are at reference CPU speed (see :mod:`calibrate`): every op and
every set-up probe runs under a :class:`calibrate.SpeedMeter`, which
scales out the speed changes of a shared host.  The raw wall times are
printed and kept in the results file as well.

Per-op results (wall times, fingerprints, failures) go to
``.bench_out/<workload>-seed<seed>-trace<t>.json`` and, with tracing, the
spans to ``.bench_out/<workload>-seed<seed>.spans.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibrate import SpeedMeter  # stdlib only, so set-up probes can meter imports

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 3
MIN_OPS = 2
HARD_STOP_S = 120.0  # no new op starts after this, so a run ends in time

# One BLAS thread: the machine is shared and has few cores, and SuperLU,
# the dominant solver, is single-threaded anyway.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"


def load_program():
    """Import tmlab from this checkout, with its deferred imports.

    ``sympy`` (conformal factors) and ``scipy.spatial`` (point location) are
    imported by tmlab on first use.  They are imported here so that they
    count as set-up and no op pays them when the others do not.
    """
    src = ROOT / "src"
    if not (src / "tmlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no tmlab sources under {src}")
    sys.path.insert(0, str(src))
    import scipy.spatial  # noqa: F401
    import sympy  # noqa: F401
    import tmlab
    import tmlab.cli  # noqa: F401  (imports every solver module)

    if Path(tmlab.__file__).resolve().parent != src / "tmlab":
        raise SystemExit(f"error: tmlab imported from {tmlab.__file__}, "
                         f"not from {src}")
    import workloads

    return workloads


def measure_setup(workload: str, seed: int) -> tuple:
    """From starting a fresh interpreter until an op could begin.

    Returns the wall seconds and the reference seconds of each probe.  The
    probe meters its own set-up; the part before its meter starts, the
    interpreter's start, is scaled by the speed the meter saw.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    walls, refs = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        words = line.split()
        if code != 0 or len(words) != 3 or words[0] != "ready":
            raise SystemExit(f"error: set-up probe failed (exit {code})")
        metered_wall, metered_ref = float(words[1]), float(words[2])
        walls.append(elapsed)
        refs.append(elapsed * metered_ref / metered_wall)
    return walls, refs


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def supported_percentile(n: int) -> str:
    """The highest percentile with at least ten samples beyond it."""
    p = math.floor(100.0 * (1.0 - 10.0 / n)) if n > 10 else 0
    if p <= 50:
        return "none above the median"
    return f"p{p}"


def run_ops(wl, inputs: dict, seconds: float, trace: bool) -> dict:
    # tracer imports numpy, so it is imported after the BLAS settings.
    from tracer import ROOT as ROOT_SPAN
    from tracer import Tracer, install, op_metrics

    _, op = wl
    workdir = OUT / f"work-{os.getpid()}"
    walls, traced_walls, layer_rows, spans = [], [], [], []
    refs, traced_refs, cycles = [], [], []
    failures, reference, prints = [], None, []
    start = time.perf_counter()
    k = 0
    while True:
        traced = trace and k % 2 == 1
        tracer = installed = None
        if traced:
            tracer = Tracer()
            installed = install(tracer)
        fingerprint = None
        gc.collect()  # start every op with the same collector state
        t0 = time.perf_counter()
        with SpeedMeter() as meter:
            try:
                root = tracer.open(ROOT_SPAN) if traced else None
                try:
                    with contextlib.redirect_stdout(io.StringIO()):
                        fingerprint = op(inputs, workdir)
                finally:
                    if traced:
                        tracer.close(root)
            except Exception as exc:  # an op that raises is a failed op
                failures.append({"op": k,
                                 "error": f"{type(exc).__name__}: {exc}",
                                 "traceback": traceback.format_exc()})
            finally:
                if traced:
                    installed.remove()
        cycles.append(time.perf_counter() - t0)
        (traced_walls if traced else walls).append(meter.wall_s)
        (traced_refs if traced else refs).append(meter.ref_s)
        if fingerprint is not None:
            prints.append(fingerprint)
            if reference is None:
                reference = fingerprint
            elif fingerprint != reference:
                diff = sorted(key for key in set(reference) | set(fingerprint)
                              if reference.get(key) != fingerprint.get(key))
                failures.append({"op": k, "error":
                                 f"output differs from the first op: {diff}"})
        if traced:
            layer_rows.append(op_metrics(tracer))
            spans.append(tracer.spans)
        k += 1
        elapsed = time.perf_counter() - start
        # Start another op if an op as fast as the fastest so far still
        # ends in time: bursts of contention on the shared machine do not
        # cost the run a sample.
        if k >= MIN_OPS and (elapsed + min(cycles) > seconds
                             or elapsed > HARD_STOP_S):
            break
    if workdir.exists():
        for p in workdir.iterdir():
            p.unlink()
        workdir.rmdir()
    return {"walls": walls, "traced_walls": traced_walls,
            "refs": refs, "traced_refs": traced_refs,
            "layer_rows": layer_rows, "spans": spans, "failures": failures,
            "attempted": k, "fingerprints": prints}


def end_to_end(res: dict, setup_refs: list) -> dict:
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "op_ref_s": {"value": statistics.median(res["refs"]), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_refs), "unit": "s"},
        "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MiB"},
    }


def per_layer(res: dict) -> dict:
    from tracer import per_layer_metrics

    metrics = {}
    for name, unit, _ in per_layer_metrics():
        if name == "trace.op_ref_s":
            value = statistics.median(res["traced_refs"])
        elif name == "trace.overhead_s":
            value = (statistics.median(res["traced_refs"])
                     - statistics.median(res["refs"]))
        else:
            value = statistics.median(row[name] for row in res["layer_rows"])
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        with SpeedMeter() as meter:
            code = run(args, parser)
        print(f"ready {meter.wall_s!r} {meter.ref_s!r}", flush=True)
        return code
    return run(args, parser)


def run(args, parser) -> int:
    workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl[0](args.seed)
    if args.setup_probe:
        return 0

    setup_walls, setup_refs = measure_setup(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    res = run_ops(wl, inputs, args.seconds, bool(args.trace))
    metrics = per_layer(res) if args.trace else end_to_end(res, setup_refs)
    failed = len({f["op"] for f in res["failures"]})
    attempted = res["attempted"]

    tag = f"{args.workload}-seed{args.seed}"
    record = {
        "workload": args.workload, "seed": args.seed, "inputs": inputs,
        "machine": machine(),
        "trace": args.trace, "setup_wall_s": setup_walls,
        "setup_ref_s": setup_refs, "wall_s": res["walls"],
        "op_ref_s": res["refs"], "traced_wall_s": res["traced_walls"],
        "traced_op_ref_s": res["traced_refs"], "attempted": attempted,
        "failed": failed, "failures": res["failures"],
        "fingerprints": res["fingerprints"], "metrics": metrics,
    }
    (OUT / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"{tag}.spans.json").write_text(json.dumps(
            [{"op": 2 * i + 1, "spans": s} for i, s in enumerate(res["spans"])]))

    print(f"workload {args.workload}, seed {args.seed}, inputs {inputs}")
    for f in res["failures"]:
        print(f"FAILED op {f['op']}: {f['error']}")
    n = len(res["walls"])
    print(f"ops_failed: {failed / attempted:.4g} fraction "
          f"({failed} of {attempted} ops)")
    print(f"untraced ops: n = {n}, percentiles supported beyond the "
          f"median: {supported_percentile(n)}")
    print(f"wall_s: {statistics.median(res['walls']):.6g} s (median raw "
          f"op time); setup wall: {statistics.median(setup_walls):.6g} s")
    if res["fingerprints"]:
        print(f"fingerprint: {json.dumps(res['fingerprints'][0])}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    if args.trace:
        from tracer import LAYERS

        top = max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"]["value"])
        print(f"largest self-time layer: {top}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
