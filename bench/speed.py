"""Times scaled to a reference host speed.

The benchmark runs on shared hosts whose speed wanders.  On the 2-vCPU
x86_64 host this benchmark was written on, a fixed interpreter loop took
between 43 and 85 ms within four minutes, in phases lasting from under a
second to minutes, with the process's CPU time equal to its wall time
(the host, not the process, slows down).  Raw wall times of 30-second
runs spread 13-30% between runs (distance between quartiles over the
median).

So every timed piece of work is bracketed by a fixed reference kernel,
and its wall time is scaled by ``REFERENCE_S / kernel time``, the kernel
time being the mean of the medians just before and just after the work.
A scaled time is the time the work would take on a host that runs the
kernel in ``REFERENCE_S``; it moves with the program, not with the host.
The kernel never runs inside the timed work.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.008   # about the kernel's time on that host when it ran fastest
SAMPLES = 3


def kernel() -> float:
    """Seconds for a fixed mix of interpreter and small-array work."""
    t0 = perf_counter()
    x = 0.0
    for i in range(60000):
        x += math.sin(i * 1e-3) * 0.5
    a = np.arange(2000.0)
    for _ in range(300):
        a = np.sqrt(a * a + 1.0)
    return perf_counter() - t0


def kernel_time() -> float:
    return statistics.median(kernel() for _ in range(SAMPLES))


class Scaled:
    """``with Scaled() as s: work`` gives ``s.wall`` and ``s.seconds`` (scaled)."""

    def __enter__(self) -> "Scaled":
        self.before = kernel_time()
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = perf_counter() - self.t0
        self.scale = REFERENCE_S / (0.5 * (self.before + kernel_time()))
        self.seconds = self.wall * self.scale
