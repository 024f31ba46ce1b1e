"""The host-speed reference: a fixed pure-Python kernel, timed next to
the measured work.

The benchmark runs on shared virtual machines whose speed drifts by up
to 40 % within seconds to minutes (see README.md): the vCPU itself runs
slower, so CPU time drifts with wall time and no clock inside the guest
sees around it.  The drift slows this kernel and the program alike, so
``run.py`` scales every wall-clock metric by the kernel's time measured
beside the work, and reports it as time on a *reference host*, one on
which the kernel takes :data:`NOMINAL_S`.  The kernel is part of the
benchmark, not of the program: a change to the program moves the scaled
metrics, a change of host speed does not.
"""

from __future__ import annotations

import statistics
import time

#: The kernel's time on the reference host (about what it takes on the
#: two-vCPU host the benchmark was built on).
NOMINAL_S = 0.5e-3
#: Length of one probe between serve segments.
PROBE_S = 0.1


def kernel() -> int:
    total = 0
    for i in range(5000):
        total += i * i
    return total


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def probe(seconds: float) -> float:
    """Median kernel time over about ``seconds`` of back-to-back runs."""
    times = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        times.append(kernel_seconds())
    return statistics.median(times)
