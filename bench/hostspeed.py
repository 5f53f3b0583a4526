"""Scale measured times to the reference machine's speed.

The host this benchmark was built on runs the same Python code up to
twice as fast at some moments as at others, and the speed drifts over
tens of seconds (measurements in README.md).  A run therefore samples
the speed while it measures: every ``PERIOD_S`` of process CPU time a
``SIGPROF`` handler times a fixed kernel of the benchmark's own code.  The
kernel never calls ``permpat`` and keeps no data between samples: it
builds a separable word of 1500 with ``gen.separable``, which stays
within the core's own caches.  How much memory the program touches
between two samples therefore moves the kernel little (README.md), and
a change to the program's working set shows in the scaled times instead
of being scaled away.  A measured interval is scaled by ``REF_S`` over
the median kernel time of the samples near it, after the time the
handler itself spent inside the interval is taken out.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from typing import List, Tuple

import gen

PERIOD_S = 0.1
WINDOW_S = 0.5  # samples this close to an interval describe its speed
# median kernel time on the reference machine (2 vCPU Xeon at 2.0 GHz,
# Python 3.11.7) at its usual speed
REF_S = 0.0010


class Probe:
    """Speed samples of one run: (end time, kernel seconds)."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    @staticmethod
    def kernel() -> None:
        gen.separable(1500, random.Random(3))

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def median_kernel_s(self) -> float:
        """The run's median kernel time: the speed every time was scaled by."""
        return statistics.median(d for _, d in self.samples)

    def scaled(self, start: float, end: float) -> float:
        """Seconds the interval [start, end] would have taken at the
        reference speed."""
        inside = sum(d for t, d in self.samples if start < t <= end)
        near = [d for t, d in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if len(near) < 3:
            mid = (start + end) / 2
            near = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:5]]
        return (end - start - inside) * REF_S / statistics.median(near)
