"""Self-test of the speed meter.

Run from the root of a checkout:  python3 -m pytest bench/test_calibrate.py
"""

from __future__ import annotations

import signal
import time

import pytest

import calibrate as C


def test_integrate_scales_each_stretch_by_its_probes(monkeypatch):
    # Probes of 1 ms, 1 ms, then 2 ms (the CPU got twice as slow), each
    # stretch 0.1 s of work.  SMOOTH = 1 so the raw probe times are used.
    monkeypatch.setattr(C, "SMOOTH", 1)
    samples = [(0.0, 1e-3), (0.101, 1e-3), (0.202, 2e-3)]
    wall, ref = C.integrate(samples)
    assert wall == pytest.approx(0.2)
    units = 0.1 / 1e-3 + 0.1 / 1.5e-3
    assert ref == pytest.approx(units * C.REF_PROBE_S)


def test_one_slow_probe_is_smoothed_out():
    samples = [(0.1 * i, 1e-3) for i in range(9)]
    samples[4] = (0.4, 50e-3)  # a probe hit by an interrupt
    _, ref = C.integrate(samples)
    steady = [(0.1 * i, 1e-3) for i in range(9)]
    _, ref_steady = C.integrate(steady)
    assert ref == pytest.approx(ref_steady, rel=0.2)


def test_meter_samples_during_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with C.SpeedMeter() as meter:
        while time.perf_counter() - t0 < 0.3:
            C.probe()
    elapsed = time.perf_counter() - t0
    assert len(meter.samples) > 5
    assert 0.0 < meter.wall_s <= elapsed
    assert meter.ref_s > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
