"""Measure how fast the CPU ran while a piece of work ran.

The benchmark runs on shared hosts where the speed one core delivers changes
by up to half within seconds and drifts over minutes, with CPU time equal to
wall time throughout: the drift is in the processor, not in waiting.  A raw
op time then measures the host as much as the program.

:class:`SpeedMeter` samples the speed while the work runs.  Every
``PERIOD_S`` a ``SIGALRM`` handler runs a fixed pure-Python probe (about
0.25 ms; no tmlab code) and times it.  The work time between two probes,
divided by the probe time around it, is that stretch of work in probe
units; the sum over the whole op, times ``REF_PROBE_S``, is the op's time
at reference speed:

    ref_s = REF_PROBE_S * sum(segment_s / probe_s)

``REF_PROBE_S`` is a fixed constant near the probe's time on the machine of
NOTES.md in a quiet period; it only sets the scale, so that reference
seconds are close to seconds there.  A program change moves the work
between probes and leaves the probe alone, so it moves ``ref_s`` as it
moves wall time.  The probes take about 1% of the time; ``wall_s`` is the
elapsed time without them.

Python runs the handler between bytecodes, so a probe due during a long C
call (a SuperLU factorization) runs when the call returns; the segment then
ends there, which is still correct.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
REF_PROBE_S = 2.5e-4  # sets the scale of reference seconds
SMOOTH = 5  # probes per rolling median, against a single interrupted probe


def probe() -> int:
    """A fixed amount of interpreted work on a dict of tuples."""
    counts = {}
    for i in range(600):
        key = (i % 37, i // 37)
        counts[key] = counts.get(key, 0) + i
    total = 0
    for (a, _), v in counts.items():
        total += v if a & 1 else -v
    return total


def _timed_probe() -> tuple:
    t0 = time.perf_counter()
    probe()
    return t0, time.perf_counter() - t0


def _rolling_median(xs: list, k: int) -> list:
    h = k // 2
    return [statistics.median(xs[max(0, i - h):i + h + 1])
            for i in range(len(xs))]


class SpeedMeter:
    """Context manager: ``wall_s`` and ``ref_s`` of the work inside it."""

    def __init__(self):
        self.samples = []  # (start, duration) of every probe
        self.wall_s = self.ref_s = None
        self._old = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(_timed_probe())

    def __enter__(self) -> "SpeedMeter":
        self.samples = [_timed_probe()]
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(_timed_probe())
        self.wall_s, self.ref_s = integrate(self.samples)


def integrate(samples: list) -> tuple:
    """Wall and reference seconds between probes ``(start, duration)``.

    Each stretch between two probes is divided by the mean of the two
    (rolling-median) probe times around it.
    """
    probes = _rolling_median([d for _, d in samples], SMOOTH)
    wall = units = 0.0
    for i in range(1, len(samples)):
        seg = samples[i][0] - (samples[i - 1][0] + samples[i - 1][1])
        wall += seg
        units += seg / (0.5 * (probes[i - 1] + probes[i]))
    return wall, units * REF_PROBE_S
