"""Speed of the machine, read off a fixed reference kernel between ops.

On a shared virtual machine the same fixed work takes up to a third more or
less CPU time from one minute to the next: the host's other tenants change
how fast the guest's cores run.  That is more than any bound a run could be
held to.  The worker therefore runs a fixed reference kernel between ops
and divides every CPU time of the run by the run's speed factor: the mean
CPU time of the kernel over the run, over its nominal time ``NOMINAL_S``.
The mean, not the median: one call takes either about 24 or about 37 ms,
the host switching between two speeds from one call to the next, and the
ops average over those switches as the mean does while the median jumps
between the two.  A normalised time reads in seconds on a machine that runs
the kernel in ``NOMINAL_S``.

The kernel calls nothing of landau_td, so a change to the package moves the
normalised times exactly as it moves the raw ones.  It is made of the kinds
of work the package's ops are made of: a Python float loop, numpy calls on
small arrays, ``solve_ivp`` on a Python right-hand side and ``quad`` on a
Python integrand.  Measured over nine minutes of 30-second windows on a
2-vCPU virtual machine whose speed moved by 30 to 60 % between windows, its
time followed the CPU time of fixed dynamics, coherent and cold-import ops
with correlation about 0.9 and slope 0.8 to 1.2, and dividing by it cut
their spread between windows two to three times.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter, process_time
from typing import List, Tuple

# a round figure inside the range of the kernel's mean CPU time per call,
# 0.03 to 0.05 s, on the 2-vCPU Xeon virtual machine the benchmark was
# written on
NOMINAL_S = 0.04
# sample the kernel once per this much op CPU time (about 8 % of a run)
SAMPLE_EVERY_S = 0.5


class Speed:
    """Reference-kernel calls of one process: (wall clock at the end of the
    call, CPU seconds of the call)."""

    def __init__(self) -> None:
        # imported here, after the process has measured its own set-up, so
        # the kernel's imports never count towards setup_s
        import numpy
        from scipy.integrate import quad, solve_ivp

        self.np, self.quad, self.solve_ivp = numpy, quad, solve_ivp
        self.samples: List[Tuple[float, float]] = []
        self._owed = 0.0

    def kernel(self) -> None:
        s = 0.0
        for i in range(50000):
            s += math.sin(i * 1e-3) * (i % 7)
        np = self.np
        x = np.linspace(0.0, 1.0, 400)
        for i in range(500):
            s += float((np.exp(-x * (i * 0.01)) * np.cos(x)).sum())

        def rhs(t, y):
            return [y[1], -(1.0 + 0.3 * math.sin(0.7 * t)) * y[0] - 0.01 * y[1]]

        self.solve_ivp(rhs, (0.0, 12.0), [1.0, 0.0], rtol=1e-9, atol=1e-11)
        for _ in range(20):
            self.quad(lambda x: math.exp(-0.1 * x) * math.cos(3.0 * x) ** 2, 0.0, 40.0, limit=500, epsabs=1e-12)

    def sample(self, calls: int = 1) -> None:
        for _ in range(calls):
            c0 = process_time()
            self.kernel()
            self.samples.append((perf_counter(), process_time() - c0))

    def after_op(self, op_cpu_seconds: float) -> None:
        """Sample once per SAMPLE_EVERY_S of op CPU time, so the samples
        spread over the run as its ops do."""
        self._owed += op_cpu_seconds
        calls = int(self._owed // SAMPLE_EVERY_S)
        self._owed -= calls * SAMPLE_EVERY_S
        self.sample(calls)

    def factor(self) -> float:
        """Mean kernel CPU time over its nominal value (> 1: the machine
        runs slower than nominal)."""
        return statistics.fmean(dt for _, dt in self.samples) / NOMINAL_S
