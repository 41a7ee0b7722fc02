"""Machine-speed calibration for the benchmark's end-to-end times.

The host the reference figures come from is shared and its speed drifts by
+-25% over minutes.  A fixed CPU kernel, timed right before and after a
measurement, tracks that drift; multiplying a time by ``speed_factor`` turns
it into seconds at the reference machine's quiet speed.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Kernel time on the reference machine (2-CPU Intel Xeon) when quiet.
CALIBRATION_S = 0.015


def calibrate() -> float:
    """Seconds the kernel takes now: the fastest of three tries.

    The kernel mixes an interpreted loop with small numpy calls, as vwave
    does, and touches nothing of vwave.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(180_000):
            acc += i * i
        a = np.arange(1000.0)
        for _ in range(600):
            a = np.sqrt(a * a + 1.0)
        best = min(best, time.perf_counter() - t0)
    return best


def speed_factor(before: float, after: float) -> float:
    return CALIBRATION_S / (0.5 * (before + after))
