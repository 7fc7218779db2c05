"""Host-speed gauge: fixed reference code timed between a workload's operations.

On a shared host the speed of the same code drifts by tens of percent over
seconds to minutes, as other tenants come and go. A gauge runs a short piece
of the benchmark's own reference code between the workload's operations and
times it. Every timing the benchmark reports is multiplied by
``NOMINAL_NS[kind] / mean(samples taken around it)``: it reads as the time the
operation would take on a host where the reference code takes
``NOMINAL_NS[kind]``. The reference never calls twinloop, so a change to the
simulator moves the scaled timings exactly as it moves the raw ones.

Two kinds of reference, one per kind of workload, because the host's drift
slows them by different factors:

- ``scalar``: ten rounds of 16-element numpy arithmetic, a 4×4 matrix product
  and Python arithmetic, interpreter-bound like one query interval of the loop.
- ``vector``: 5,000 complex normal draws and an elementwise threshold count,
  bandwidth-bound like the channel's Monte Carlo.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# Typical times of one reference op on a 2-vCPU x86_64 VM (Python 3.11.7,
# numpy 2.4.6). The choice only sets the scale of the reported timings.
NOMINAL_NS = {"scalar": 120_000, "vector": 320_000}
WARMUP = 5

_VEC = np.linspace(0.1, 1.0, 16)
_MAT = np.eye(4) * 0.5
_DRAWS = 5_000


def scalar_op():
    x, total = _VEC.copy(), 0.0
    for i in range(10):
        x = np.sqrt(x * x + 0.01)
        m = _MAT @ _MAT
        total += float(x.sum()) + m[0, 0]
        record = {"i": i, "total": total}
        total += record["i"] * 1e-9
        for j in range(20):
            total += j * 0.5
    return total


def make_vector_op():
    rng = np.random.default_rng(0)

    def vector_op():
        z = rng.standard_normal(_DRAWS) + 1j * rng.standard_normal(_DRAWS)
        return int(np.count_nonzero(np.abs(z + 1.0) ** 2 < 0.01))

    return vector_op


class Gauge:
    """Timed samples of one kind of reference op, in the order taken."""

    def __init__(self, kind):
        self.op = scalar_op if kind == "scalar" else make_vector_op()
        self.nominal_ns = NOMINAL_NS[kind]
        self.samples_ns = array("q")
        self.total_ns = 0             # summed sample time, to subtract from walls
        for _ in range(WARMUP):
            self.op()

    def sample(self):
        start = time.perf_counter_ns()
        self.op()
        elapsed = time.perf_counter_ns() - start
        self.samples_ns.append(elapsed)
        self.total_ns += elapsed

    def scale(self, lo, hi):
        """Factor from host time to reference-host time for a stretch that
        lies between samples ``lo`` and ``hi - 1``; the window is clipped to
        the samples taken and holds at least one. 1.0 with no samples."""
        n = len(self.samples_ns)
        if n == 0:
            return 1.0
        lo = min(max(lo, 0), n - 1)
        hi = min(max(hi, lo + 1), n)
        window = self.samples_ns[lo:hi]
        return self.nominal_ns * len(window) / sum(window)
