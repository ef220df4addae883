"""Host speed, measured next to the jobs.

On the shared 2-core machine the benchmark was built on, other tenants slow
one core or both by up to 1.9x, in stretches from half a second to minutes,
and CPU time inflates with wall time, so neither tells the program's cost
apart from the host's state.  Before a job, a fixed kernel of the
benchmark's own, which calls nothing in the package, is timed on each core
and the benchmark moves to the faster one; the job runs there, and so do
the program's pool threads, which inherit the placement.  A job of EVERY_S
or longer is followed by another probe.  Its latency is reported at the
reference speed:

    normalized = measured * REFERENCE_S / kernel time on the job's core

averaging the kernel times before and after the job where there are two.
REFERENCE_S is near the kernel's time on an idle core of that machine
(x86-64 VM, Python 3.11.7, numpy 2.4.6), so normalized figures read as
seconds there.  The kernel mixes the two kinds of work the package does:
Fraction arithmetic, sorting and hashing in the interpreter, and small numpy
operations as in an ODE right-hand side.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.0009
# a job starts with a fresh probe when the last one is older than this;
# shorter jobs share one, which keeps the probes' share of a run near 6%
EVERY_S = 0.05
# each probe of a core is the best of a few back-to-back kernel calls, so
# that one preemption does not mark the moment as slow
REPEATS = 2

_M = np.eye(4) * 0.9 + 0.01


def kernel() -> None:
    xs = [Fraction(i % 97 + 1, i % 13 + 1) for i in range(100)]
    xs.sort()
    counts: dict = {}
    for x in xs:
        counts[x] = counts.get(x, 0) + 1
    sum(xs)
    v = np.ones(4)
    for _ in range(75):
        v = np.tanh(_M @ v) + 0.1


def sample() -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Places the calling thread on the faster core and gives the kernel
    time there, probing again when the last probe is older than EVERY_S."""

    def __init__(self) -> None:
        self.cores = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.core = None
        self.kernel_s = 0.0
        self._at = -float("inf")

    def _probe(self) -> dict:
        if len(self.cores) < 2:
            return {None: sample()}
        times = {}
        for core in self.cores:
            os.sched_setaffinity(0, {core})
            times[core] = sample()
        return times

    def _place(self, times: dict) -> None:
        self.core = min(times, key=times.get)
        self.kernel_s = times[self.core]
        if self.core is not None:
            os.sched_setaffinity(0, {self.core})
        self._at = time.perf_counter()

    def before(self, fresh: bool = False) -> float:
        if fresh or time.perf_counter() - self._at >= EVERY_S:
            self._place(self._probe())
        return self.kernel_s

    def after(self, seconds: float) -> float:
        """The kernel time standing for a job that just took `seconds`."""
        if seconds < EVERY_S:
            return self.kernel_s
        core, before = self.core, self.kernel_s
        times = self._probe()
        self._place(times)
        return 0.5 * (before + times[core])

    def release(self) -> None:
        if self.cores:
            os.sched_setaffinity(0, self.cores)
