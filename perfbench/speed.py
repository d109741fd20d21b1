"""Correcting timings for the machine's own speed swings.

On a shared machine the same code runs up to 40% slower for stretches of
seconds to minutes while other tenants load the cores it runs on, and a
median over one run does not average that out.  So the benchmark reads a
fixed calibration kernel between operations and scales each operation's
wall time by ``REFERENCE_S`` over the kernel's mean time in the readings
on both sides of it.  Reported times are wall times at the speed at which
the kernel takes ``REFERENCE_S``: a change to the program moves them, a
change in machine load mostly does not.

The kernel mixes the two kinds of work the program does, interpreted
Python over dictionaries and small NumPy distance computations, and uses
nothing from the program.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's time on an unloaded 2-vCPU x86-64 VM.
REFERENCE_S = 0.020


class SpeedGauge:
    """Reads the machine's current speed by timing the calibration kernel."""

    def __init__(self) -> None:
        self._points = np.random.default_rng(0).normal(size=(4000, 2))
        self._last = self._read()

    def _read(self) -> float:
        points = self._points
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for i in range(60_000):
            counts[i % 977] = counts.get(i % 977, 0) + i
        for i in range(80):
            np.flatnonzero(((points - points[i]) ** 2).sum(axis=1) <= 0.04)
        return time.perf_counter() - start

    def mark(self) -> None:
        """Take the reading that starts a timed interval."""
        self._last = self._read()

    def scale(self) -> float:
        """Factor taking a time measured since the last reading to
        reference speed; the reading it takes starts the next interval."""
        now = self._read()
        factor = 2.0 * REFERENCE_S / (self._last + now)
        self._last = now
        return factor
