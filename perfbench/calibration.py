"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one core drifts: a fixed pure-Python
loop of Fraction arithmetic was measured taking between 10 and 21 ms
per 3-second window on the same 2-core machine, with the slow and fast
stretches lasting tens of seconds, and single passes scatter further.
Wall times of the program drift with it, so two runs of the same code
could differ by more than any bound a benchmark can hold.

Every timing the benchmark reports is therefore in reference seconds:
the measured wall time scaled by REFERENCE_S / m, where m is the median
time of this loop over the passes next to the call: the two passes on
each side of it, and every pass that ended within a quarter of the
call's duration (at most WINDOW_S) of it.  Where the loop takes
REFERENCE_S the two agree.  The loop does the kind of work the program
does (small-Fraction arithmetic in the interpreter), so both slow down
together.  Short calls take the speed of the moment; long ones, whose
inside no pass can see, pool more passes so that the scatter of single
passes drops out.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

REFERENCE_S = 0.010  # about the loop's time on the 2-core machine the figures come from
NEAREST = 2  # passes on each side of a call
WINDOW_S = 1.0


def _loop() -> Fraction:
    total = Fraction(0)
    for k in range(1, 2500):
        total += Fraction(k % 7 + 1, k % 97 + 1)
    return total


def speed_sample() -> float:
    """Wall seconds of one pass of the calibration loop."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


class SpeedLog:
    """The calibration passes of one run, each with the time it ended."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.passes: list[float] = []

    def sample(self) -> None:
        seconds = speed_sample()
        self.ends.append(time.perf_counter())
        self.passes.append(seconds)

    def scale(self, start: float, seconds: float) -> float:
        """Reference seconds of a call that began at ``start`` (perf_counter)
        and took ``seconds``; the log must hold a pass after it."""
        reach = min(seconds / 4, WINDOW_S)
        after = bisect_left(self.ends, start + seconds)  # the pass right after the call
        lo = max(0, min(bisect_left(self.ends, start - reach), after - NEAREST))
        hi = max(bisect_right(self.ends, start + seconds + reach), after + NEAREST)
        return seconds * REFERENCE_S / statistics.median(self.passes[lo:hi])
