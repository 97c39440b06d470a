"""Timings at a reference machine speed.

The reference machine is a 2-core VM whose single-thread speed drifts by
up to ~55% over tens of seconds (the same pure-Python loop measured 35 to
55 ms within one minute).  A run of 20 s sits inside one such phase, so
raw wall times differ by 30% from run to run whatever the program does.

End-to-end figures dominated by CPU work are therefore scaled by the
machine's speed measured in the same run: a fixed pure-Python loop is
timed before and after each measured interval, and the interval's time
is multiplied by ``REFERENCE_S`` over the mean of the two (a rate is
divided by it).  The scaled value is what the interval would have taken
on a machine that runs the loop in ``REFERENCE_S``; a program change
moves it exactly as it moves the raw figure.  Raw figures are printed
beside the result.

The two cores' speeds drift independently (the loop takes 16 to 31 ms
on either, second to second), so the loop runs on the core the
measured work runs on: :class:`Speed` takes that core's number and
moves the calling thread there for the calibration only.
"""

from __future__ import annotations

import os
import statistics
import time

#: Wall time of :func:`calibration_s` the scaled figures refer to.
REFERENCE_S = 0.020


def calibration_s(cpu: int | None = None) -> float:
    """Median wall time of three runs of a fixed pure-Python loop, on
    core ``cpu`` when given."""
    if cpu is not None:
        home = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        try:
            return calibration_s()
        finally:
            os.sched_setaffinity(0, home)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        d: dict[int, float] = {}
        for i in range(100_000):
            d[i % 1000] = d.get(i % 1000, 0.0) + i * 1.5
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Speed:
    """Scale factors for consecutive intervals: call :meth:`factor` at
    the end of each; the calibration taken there also starts the next."""

    def __init__(self, cpu: int | None = None) -> None:
        self.cpu = cpu
        self._last = calibration_s(cpu)

    def factor(self) -> float:
        """Multiply the interval's time by this (divide a rate)."""
        now = calibration_s(self.cpu)
        f = REFERENCE_S / ((self._last + now) / 2)
        self._last = now
        return f
