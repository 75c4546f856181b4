"""Machine-speed calibration for the benchmark's time metrics.

The machine the benchmark was defined on (2 vCPUs, Python 3.11) changes speed
in phases of seconds to minutes: a fixed trapbound request took between about
29 and 59 ms, with CPU time moving alongside wall time and no steal time, and
a whole 30-s run could fall inside a slow phase.  No statistic over one run's
raw times removes that.

``kernel_ms`` times a fixed pure-Python kernel (floats, ``math.exp``, tuples
and a small heap, the kind of work trapbound's integrators do) that shares no
code with trapbound.  Over an 80-s probe the coefficient of variation of
request time fell from 0.18 raw to 0.05 once divided by the kernel's time.
Time metrics are therefore reported in reference milliseconds:
``raw_ms * REFERENCE_KERNEL_MS / kernel_ms`` with the kernel timed next to the
measurement.  ``REFERENCE_KERNEL_MS`` is the kernel's time in that machine's
fast phase, so there reference and raw milliseconds agree when it runs at
full speed; on other machines the figures scale by their relative speed.
A code change to trapbound cannot move the kernel, so comparisons between
commits on one machine are unaffected.
"""

from __future__ import annotations

import heapq
import math
import time

#: Kernel time, in ms, in the fast phase of the machine the benchmark was
#: defined on.
REFERENCE_KERNEL_MS = 1.8

_KERNEL_STEPS = 2500


def _kernel() -> float:
    heap: list = []
    acc = 0.0
    for i in range(_KERNEL_STEPS):
        x = (i * 0.6180339887498949) % 1.0
        acc += math.exp(-x) * x
        heapq.heappush(heap, (-x, i, acc))
        if len(heap) > 64:
            heapq.heappop(heap)
    return acc


def kernel_ms() -> float:
    """Time one run of the calibration kernel, in ms."""
    start = time.perf_counter_ns()
    _kernel()
    return (time.perf_counter_ns() - start) / 1e6


def scale(kernel_times_ms) -> float:
    """Factor that turns raw times into reference times, from nearby kernel timings."""
    times = sorted(kernel_times_ms)
    return REFERENCE_KERNEL_MS / times[len(times) // 2]
