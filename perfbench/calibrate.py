"""Machine-speed calibration of the benchmark's timings.

On a shared host, other jobs slow a small VM down by up to 2x for seconds
at a time, and nearly alike for all interpreted Python code on one CPU (the
benchmark pins itself to one).  A fixed pure-Python kernel, timed right before and right after each
operation, measures the machine's speed at that moment.  An operation's
calibrated time is its wall time times BASELINE_S over the kernel's time
around it: what the operation takes on a machine where the kernel takes
BASELINE_S.

BASELINE_S is the kernel's uncontended time (the 10th percentile of its
samples) on the 2-core VM where the baseline was measured: Intel Xeon at
2.0 GHz, Python 3.11.7.  To see the kernel's time on another machine:

    python3 perfbench/calibrate.py
"""
from __future__ import annotations

import math
import statistics
import time

BASELINE_S = 0.78e-3
# Kernel window beside an operation, as a share of the operation's time.
WINDOW_SHARE = 0.05


def kernel() -> float:
    """Float math, tuple allocation and dict stores: the program's own mix."""
    acc = 0.0
    slots = {}
    for i in range(3000):
        x = i * 1e-3
        acc += math.sin(x) * math.cos(x) + math.tan(0.5 * x)
        slots[i & 63] = (x, acc)
    return acc


def time_kernel(min_s: float = 0.0) -> float:
    """Mean time of one kernel run, over runs lasting at least min_s (one at least).

    A long operation averages the host's speed over its whole duration, so
    it is calibrated against windows of runs in proportion to it.
    """
    runs = 0
    start = time.perf_counter()
    while True:
        kernel()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_s:
            return elapsed / runs


def scale(raw_s: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """Calibrated seconds of a span timed between two kernel timings."""
    return raw_s * BASELINE_S / (0.5 * (kernel_before_s + kernel_after_s))


if __name__ == "__main__":
    samples = sorted(time_kernel() for _ in range(5000))
    print(f"kernel over {len(samples)} samples: p10 {samples[len(samples) // 10] * 1e3:.4f} ms, "
          f"median {statistics.median(samples) * 1e3:.4f} ms (BASELINE_S {BASELINE_S * 1e3:g} ms)")
