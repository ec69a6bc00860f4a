"""Host speed, measured by short fixed calibration bursts between the timed
pieces of a workload.

On a shared host the same code runs at different speeds in different
minutes, because other tenants load the physical cores.  A burst is a fixed
loop of small numpy calls on 5-vectors, the shape of one optimizer step.  It
uses numpy only and no code of the ssag package, so a change to the package
cannot move it.  The burst loop reacts to host load more strongly than the
workloads do, which also spend time in full-data kernels, allocation and
file output; `SENSITIVITY` is the share of the burst's slowdown that the
workloads' times follow (see README.md for how it was measured).
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Calibration bursts made each time a workload calls the probe.
BURSTS_PER_PROBE = 3
#: Iterations of the step-shaped loop in one burst.
BURST_ITERS = 400
#: Burst time on the reference machine in a quiet minute (see README.md).
BURST_REF_S = 1.55e-3
#: Share of the burst's slowdown that workload times follow.
SENSITIVITY = 0.35


class Probe:
    """Calibration bursts of one workload repetition."""

    def __init__(self):
        self._x = np.random.default_rng(0).standard_normal(5)
        self.burst_s: list[float] = []

    def __call__(self) -> None:
        for _ in range(BURSTS_PER_PROBE):
            t0 = perf_counter()
            v = np.zeros(5)
            for _ in range(BURST_ITERS):
                g = self._x * (1.0 / (1.0 + np.exp(-float(self._x @ v)))) + 0.1 * v
                v -= 0.01 * g
            self.burst_s.append(perf_counter() - t0)

    def slowdown(self) -> float:
        """How much slower than the reference machine in a quiet minute the
        host ran the workload: 1.0 is reference speed."""
        burst = statistics.median(self.burst_s) / BURST_REF_S
        return 1.0 + SENSITIVITY * (burst - 1.0)
