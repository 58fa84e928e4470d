"""Machine-speed sampling for the benchmark.

On a host that shares its cores (the 2-core reference host of README.md)
the same fixed computation takes up to 2x longer from one second to the
next, in CPU time as well as in wall time, and 15 s averages still differ
by ~14%.  So the untraced run samples the machine's speed while it works:
every INTERVAL seconds a SIGALRM handler runs one fixed calibration loop
and records its duration.  The time spent in the handler is kept out of
the work timings, and every timed stretch of work (the imports, one
set-up, one operation) is divided by the median calibration duration
sampled around it.

The calibration is one RK4 loop on Python floats and one on numpy float64
scalars, each with a Python function call per right-hand side: the mix
of interpreter work and numpy scalar calls of slconv's own scalar code
paths, and no slconv code.  Against the benchmark's operations the first
alone under-corrected (runs in slow spells still read slower) and the
second alone over-corrected; in a paired test the two together followed
the slowdowns best.  One sample takes about 5 ms on the reference host.
"""

import gc
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.1
# samples taken up to PAD seconds before or after a timed stretch count
# for it, so that a short operation sees several
PAD = 0.2
# seconds one calibration duration stands for in the metrics reported in
# seconds (setup_s): about its median duration on the reference host
REF_CAL_S = 0.005


def _rhs(t, y0, y1):
    return y1 / (1.0 + 0.1 * t), -30.0 * y0


def _rk4(y0, y1, s, h, steps):
    for _ in range(steps):
        a0, a1 = _rhs(s, y0, y1)
        b0, b1 = _rhs(s + 0.5 * h, y0 + 0.5 * h * a0, y1 + 0.5 * h * a1)
        c0, c1 = _rhs(s + 0.5 * h, y0 + 0.5 * h * b0, y1 + 0.5 * h * b1)
        d0, d1 = _rhs(s + h, y0 + h * c0, y1 + h * c1)
        y0 = y0 + h / 6.0 * (a0 + 2.0 * (b0 + c0) + d0)
        y1 = y1 + h / 6.0 * (a1 + 2.0 * (b1 + c1) + d1)
        s = s + h
    return y0, y1


def calibrate():
    """Seconds taken by a fixed RK4 integration on Python floats and one
    on numpy scalars.  The garbage collector is paused meanwhile: the
    loops allocate many objects, and the collections they would trigger
    cost in proportion to the work's live objects, not to the loops
    (single samples up to 3x the median during the imports with it on)."""
    gc_was_on = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    _rk4(1.0, 0.0, 0.0, 1e-3, 4000)
    _rk4(np.float64(1.0), np.float64(0.0), np.float64(0.0), 1e-3, 350)
    t = time.perf_counter() - t
    if gc_was_on:
        gc.enable()
    return t


class SpeedSampler:
    """Samples calibrate() every INTERVAL seconds between start() and
    stop()."""

    def __init__(self):
        self.samples = []      # (perf_counter at start, duration)
        self.paused = 0.0      # seconds spent inside the handler
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self.samples.append((t0, calibrate()))
            self.paused += time.perf_counter() - t0
        finally:
            self._busy = False

    def work_clock(self):
        """perf_counter without the time spent calibrating."""
        return time.perf_counter() - self.paused

    def cal_between(self, t0, t1):
        """Median calibration duration of the samples taken within PAD
        seconds of [t0, t1] (perf_counter times), or of all samples if
        none falls there."""
        near = [d for t, d in self.samples if t0 - PAD <= t <= t1 + PAD]
        return statistics.median(near or [d for _, d in self.samples])

    def scaled(self, t0, t1, work_s):
        """work_s (a stretch of work done between perf_counter times t0
        and t1) in units of the calibration duration sampled around it."""
        return work_s / self.cal_between(t0, t1)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
