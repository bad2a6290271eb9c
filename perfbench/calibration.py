"""Host-speed probe: a fixed piece of pure-Python work timed next to each command.

On a shared host the CPU speed a process gets changes by up to a factor of
two from one second to the next, in CPU time as much as in wall time, and
slow phases last long enough that the median over a 20 s run still moves
by 20%.  The probe is timed in the same process immediately before each
measured interval; dividing the interval by it cancels the host's speed
at that moment.  A calibrated time is the interval scaled to a host on
which the probe takes REFERENCE_PROBE_S: seconds at the typical speed of
the machine the benchmark was tuned on.

The probe allocates little and runs with the cyclic garbage collector off,
so the size of the program's heap does not change its time.
"""

from __future__ import annotations

import gc
import math
import time

PROBE_LOOPS = 3000
# median probe time on the 2-CPU Intel Xeon machine used to tune the benchmark
REFERENCE_PROBE_S = 0.0016


def _work(loops: int) -> float:
    acc = 0.0
    slots = [0.0] * 64
    for i in range(loops):
        x = math.sin(i * 0.001) * 1.5 + acc * 1e-9
        acc += x * x
        slots[i & 63] = x
        acc += sum((x, acc, i)) * 1e-12
    return acc + slots[0]


def probe() -> float:
    """Seconds the probe's fixed work takes now, in this process."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work(PROBE_LOOPS)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def calibrated(seconds: float, probe_seconds: float) -> float:
    """An interval scaled to the reference host speed, given the probe time next to it."""
    return seconds * REFERENCE_PROBE_S / probe_seconds
