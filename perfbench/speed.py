"""Machine-speed calibration: report times at a fixed reference speed.

The machine's speed drifts.  On 2 shared vCPUs the same pure-Python loop takes
from 1x to 2x its best time from one second to the next, and op times follow
it: raw median op times of repeated runs spread by 15-30%.  So the run times
a fixed calibration loop between ops, outside the timed region, and divides
each op's wall time by the slowdown around it: the median of the nearby
calibration times over the loop's time at full speed.

Under contention, big-int and dict work slows by a different factor than
float and small-int work.  So there are two loops, and each workload uses
the one (or both) whose work is of its kind.
"""

from __future__ import annotations

import math
import statistics
import time

WINDOW = 4  # an op's slowdown uses the calibrations within this many ops of it


def bigint_work() -> int:
    """A dict of big-int rows updated by shifts and XORs, as in RankState and
    the samplers."""
    rows = {}
    x = 0x9E3779B97F4A7C15
    for _ in range(6000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        key = x & 4095
        row = rows.get(key)
        rows[key] = row ^ (x << (x % 2500)) if row else x << (x & 1023)
    return len(rows)


def float_work() -> float:
    """Float polynomials, logs and exps in Python, as in the pgf, threshold
    and mpmath code."""
    acc = 0.0
    for i in range(1, 8000):
        u = i / 8000.0
        rho = 0.9 * u**3 + 0.1 * u**24
        acc += -math.log1p(-0.999 * u) / (rho + 1e-9) + math.exp(-u)
    return acc


# kind -> (loops, their time at full speed on a 2-vCPU x86_64 VM, Python 3.11)
CALIBRATIONS = {
    "bigint": ((bigint_work,), 0.002),
    "float": ((float_work,), 0.0023),
    "mixed": ((bigint_work, float_work), 0.0043),
}


class Calibration:
    def __init__(self, kind: str):
        self.loops, self.ref_s = CALIBRATIONS[kind]

    def sample(self) -> float:
        """Seconds one pass of the loops takes now."""
        t0 = time.perf_counter()
        for loop in self.loops:
            loop()
        return time.perf_counter() - t0

    def slowdown(self, samples) -> float:
        return statistics.median(samples) / self.ref_s

    def reference_times(self, op_times: list, samples: list) -> list:
        """Op times at the reference speed.

        samples[i] is taken just before op i and samples[-1] after the last
        op.  One sample lasts a few ms and is noisy on its own, so an op's
        slowdown is the median over the window around it.
        """
        return [dt / self.slowdown(samples[max(0, i - WINDOW): i + 2 + WINDOW])
                for i, dt in enumerate(op_times)]
