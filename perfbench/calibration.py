"""Host-speed calibration for end-to-end timings.

The benchmark shares its machine with other tenants. They take the
virtual CPU away for stretches (steal time), and while it runs they
swing its speed by up to 2x within seconds. Work is therefore timed in
process CPU time, which leaves out the time the process did not run;
the program is single-threaded and BLAS is held at one thread, so on an
unshared core that CPU time is its wall time. To cancel the swing in
speed, an interval timer interrupts the main thread every SAMPLE_EVERY_S
and the handler times, in CPU time, a fixed unit of interpreter and BLAS
work (run once untimed to warm the caches, then once timed). Each
measured interval is rescaled to the speed at which that unit takes
REF_UNIT_S, using the median unit time sampled during the interval and
the WINDOW_S before it. The sampling costs about 1% of the run, and that
share is the same on every commit.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

SAMPLE_EVERY_S = 0.01
WINDOW_S = 0.05
MIN_SAMPLES = 8
# Timed unit on an idle core of the reference host (see README.md).
REF_UNIT_S = 42e-6


class SpeedProbe:
    """Context manager sampling host speed while it is entered."""

    def __init__(self):
        self._texts = [repr(0.37 * i + 1e-3) for i in range(100)]
        self._matrix = np.arange(48 * 48, dtype=float).reshape(48, 48) / 2304.0
        self._stamps: list[float] = []
        self._units: list[float] = []
        self._previous = None

    def _unit(self) -> float:
        total = sum(float(t) for t in self._texts)
        counts: dict[int, int] = {}
        for j in range(200):
            counts[j & 15] = counts.get(j & 15, 0) + 1
        return total + float((self._matrix @ self._matrix)[0, 0]) + counts[3]

    def _sample(self, *_signal_args) -> None:
        self._unit()
        c0 = time.process_time()
        self._unit()
        c1 = time.process_time()
        self._stamps.append(time.perf_counter())
        self._units.append(c1 - c0)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(MIN_SAMPLES):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def unit_seconds(self, start: float, end: float) -> float:
        """Median unit time sampled in [start - WINDOW_S, end], at least MIN_SAMPLES."""
        hi = bisect.bisect_right(self._stamps, end)
        lo = min(bisect.bisect_left(self._stamps, start - WINDOW_S), hi - MIN_SAMPLES)
        return statistics.median(self._units[max(lo, 0):hi])

    def factor(self, start: float, end: float) -> float:
        """Multiplier taking CPU seconds spent in the perf_counter interval
        [start, end] to calibrated seconds."""
        return REF_UNIT_S / self.unit_seconds(start, end)

    def timed(self, fn, *args):
        """Run fn; returns (result, CPU seconds, calibrated seconds)."""
        start, c0 = time.perf_counter(), time.process_time()
        result = fn(*args)
        cpu, end = time.process_time() - c0, time.perf_counter()
        return result, cpu, cpu * self.factor(start, end)

    def median_unit(self) -> float:
        return statistics.median(self._units)
