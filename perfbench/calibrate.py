"""Host-speed calibration: a fixed kernel timed between operations.

The benchmark shares a few cores of a busy host, whose speed drifts by
tens of percent within seconds and by up to 2x for minutes at a time; a
slow phase stretches CPU time as much as wall time, so no clock of the
process alone can shed it. The kernel below does a fixed amount of the
kind of work the program does (a small-array Metropolis sweep in numpy,
like ``sampler.simulated_anneal``, and ``strptime``/``float`` parsing,
like ``marketdata.load_prices``), and never calls the program. Timing
it next to each operation measures how fast the host runs right then.

``Speed`` keeps those samples. ``scale(t)`` is ``NOMINAL_S`` divided by
the median of the samples nearest to time ``t``; multiplying a measured
time by it gives the time on a host where the kernel takes ``NOMINAL_S``.
Since the kernel is benchmark code, a change to the program moves the
scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import statistics
from datetime import datetime
from time import perf_counter

import numpy as np

NOMINAL_S = 0.020   # reference; the kernel's median ran 17-28 ms on a shared 2-vCPU Xeon VM
NEAREST = 16        # samples whose median gives the host speed at one moment

_rng = np.random.default_rng(20240411)
_B = _rng.standard_normal((32, 32))
_B = (_B + _B.T) / 2.0
_X0 = (_rng.random((64, 32)) < 0.5).astype(float)
_LOGU = -np.log(_rng.random((64, 32 * 12)))
_DATES = [f"2020-{k % 12 + 1:02d}-{k % 28 + 1:02d}" for k in range(1500)]
_CLOSES = [f"{k}.{k % 100:02d}" for k in range(1500)]


def kernel() -> float:
    """Fixed work; returns a checksum so that nothing is optimised away."""
    X = _X0.copy()
    G = X @ _B
    step = 0
    for _ in range(12):
        for i in range(32):
            xi = X[:, i]
            delta = (1.0 - 2.0 * xi) * G[:, i]
            accept = delta < 0.5 * _LOGU[:, step]
            step += 1
            if accept.any():
                sgn = np.where(accept, 1.0 - 2.0 * xi, 0.0)
                X[:, i] = xi + sgn
                G += sgn[:, None] * _B[i]
    total = float(X.sum())
    for d, c in zip(_DATES, _CLOSES):
        total += datetime.strptime(d, "%Y-%m-%d").day + float(c)
    return total


class Speed:
    """Kernel timings over one run, and the time scale they imply."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (time taken, kernel seconds)

    def sample(self, at_least: float = 0.0) -> None:
        """Time the kernel once, then again until ``at_least`` seconds are spent."""
        spent = 0.0
        while True:
            t0 = perf_counter()
            kernel()
            dt = perf_counter() - t0
            self.samples.append((t0, dt))
            spent += dt
            if spent >= at_least:
                return

    def scale(self, t: float) -> float:
        near = sorted(self.samples, key=lambda s: abs(s[0] - t))[:NEAREST]
        return NOMINAL_S / statistics.median(dt for _, dt in near)

    def median_s(self) -> float:
        return statistics.median(dt for _, dt in self.samples)
