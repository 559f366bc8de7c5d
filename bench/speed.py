"""Machine speed, measured with a fixed reference kernel, to scale timings by.

The shared 2-core machine this benchmark was built on changed speed by up
to 2x within minutes, whatever ran on it. Over one 50-second probe, a fixed
``hb_higher`` call read between 1.00x and 1.66x its best time. The same call
divided by the time of the reference kernel, measured just before it, read
between 1.00x and 1.12x. So every end-to-end time is reported in
*reference seconds*: the measured seconds times ``REFERENCE_S`` over the
reference kernel's time at that moment. On a machine that runs the kernel in
``REFERENCE_S`` they are plain seconds. The raw seconds go to the run's
record as well.

The kernel is Akiyama-Tanigawa for B_0..B_40 from witness.py. It does exact
``Fraction`` work like the program's, and no ``hgbern`` code, so a change to
the program cannot change it.
"""

from __future__ import annotations

import time

import witness

# the kernel's best time on the machine the benchmark was defined on
# (Python 3.11.7, 2 cores)
REFERENCE_S = 0.0025
CALIBRATE_EVERY_S = 0.25


def reference_seconds() -> float:
    """The fastest of three runs of the reference kernel."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        witness.classical_bernoulli(40)
        best = min(best, time.perf_counter() - start)
    return best


class Speed:
    """The latest reference time, refreshed at most every CALIBRATE_EVERY_S."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._at = float("-inf")

    def now(self) -> float:
        """The current reference time, measuring it again if it is stale."""
        if time.perf_counter() - self._at >= CALIBRATE_EVERY_S:
            self.samples.append(reference_seconds())
            self._at = time.perf_counter()
        return self.samples[-1]


def scaled(seconds: float, before: float, after: float) -> float:
    """Seconds measured between two reference times, in reference seconds."""
    return seconds * REFERENCE_S * 2 / (before + after)
