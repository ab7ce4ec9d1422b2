"""Machine-speed normalisation of the benchmark's timings.

On a small shared host the same op can take 1.5-2x longer for tens of
seconds at a time while other tenants load the machine, so raw wall-clock
medians of back-to-back runs differ by 20-40%. Just before and just after
every timed call the benchmark times a fixed pure-Python kernel that does the same kinds of
work as the program (a row-by-row scan of a large nested list, like the
matcher's slack updates, and small frozen dataclasses built from math calls,
like the per-pair planner). Each timing is reported scaled by the mean of
the two ``REFERENCE_S / kernel time`` samples: wall-clock seconds on a machine that runs the
kernel in ``REFERENCE_S``. The kernel is benchmark code, so a change to the
program moves the scaled figures exactly as it moves the raw ones; the raw
figures are printed as well.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from time import perf_counter

# Kernel time on an idle 2-vCPU Intel Xeon (Python 3.11): the unit the
# scaled timings are expressed against.
REFERENCE_S = 1.6e-3

# The matcher-like part scans every third row of a 300 x 300 list of lists,
# a working set of the matcher's size, so it also feels cache pressure.
_GRID = [[((i * 7 + j * 13) % 101) / 101.0 for j in range(300)] for i in range(300)]


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def _kernel() -> float:
    slack = [math.inf] * 300
    for row in _GRID[::3]:
        for j in range(300):
            s = 1.0 - row[j]
            if s < slack[j]:
                slack[j] = s
    total = sum(slack)
    for i in range(600):
        x = i * 0.001 + 0.5
        p = _Pair(math.sqrt(x) * math.cos(x), max(0.0, x - math.atan2(x, 1.3)))
        total += p.a + p.b
    return total


def scale() -> float:
    """``REFERENCE_S`` over the median of three kernel timings taken now."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return REFERENCE_S / statistics.median(times)
