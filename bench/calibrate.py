"""Machine-speed calibration for the benchmark's timings.

The machine this benchmark was written on, a 2-vCPU virtual machine,
shares its host with other tenants.  Its effective speed drifts by up to 2x within seconds, in CPU
time as well as in wall time.  So the benchmark runs a fixed pure-Python
kernel between measurements: tuple building, dict updates and Fraction
arithmetic, the mix the package spends its time on.  Each measured time
is scaled by REFERENCE_S over the mean of the kernel samples taken just
before and just after it.  The result is in reference seconds: seconds
on a machine where one kernel run takes REFERENCE_S of CPU time.  The
kernel does not touch firstreturn, so no change to the package can move
the scale.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.030
SEGMENT_S = 0.5  # measured work between two kernel samples, at most about


def _kernel(n: int = 60000):
    acc, seen, window = Fraction(0), {}, ()
    for i in range(n):
        window = (i & 7, i & 3) + window[:6]
        seen[window] = seen.get(window, 0) + 1
        if i % 16 == 0:
            acc += Fraction(i, 3 + (i & 15))
    return len(seen), acc


def sample() -> float:
    """CPU seconds of one kernel run."""
    start = time.process_time()
    _kernel()
    return time.process_time() - start


def scaled(times, marks):
    """Each of `times` in reference units.

    `marks` are (count, kernel seconds) pairs in the order taken, where
    count is how many of `times` had been measured when the sample ran; the
    first has count 0 and the last has count len(times).
    """
    out, j = [], 0
    for i, t in enumerate(times):
        while marks[j + 1][0] <= i:
            j += 1
        out.append(t * 2 * REFERENCE_S / (marks[j][1] + marks[j + 1][1]))
    return out


def span_factor(marks) -> float:
    """Scale for a time spanning all the marks."""
    return REFERENCE_S / statistics.median(k for _, k in marks)
