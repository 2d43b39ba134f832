"""Frozen reference kernel: a yardstick for the host's speed at this moment.

The benchmark host's CPU speed drifts by tens of percent within seconds and
between runs, and process CPU time drifts with it, so neither wall time nor
CPU time of a single run repeats. The kernel below does a fixed amount of
the two kinds of work dfclab spends its time on: pure-Python arithmetic on
small frozen dataclasses, as dual numbers do it, and a Horner loop over
small numpy arrays. Timing it between jobs measures the current speed; a
job's time at reference speed is its raw time scaled by NOMINAL_S over the
kernel time measured around it.

Which work the kernel does matters. A tight integer loop slowed by 1.6x
across the host's slow and fast phases while dfclab's jobs slowed by 2x;
the object-heavy loop and the numpy loop slowed as the jobs did (see
README.md).

Never change the kernel or NOMINAL_S: doing so changes the unit every time
is reported in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# Kernel time that defines reference speed; within the range of its median
# on the 2-core host the figures in README.md come from.
NOMINAL_S = 0.002

_COEFFS = np.linspace(0.1, 1.0, 24).astype(complex)
_POINTS = np.exp(1j * np.linspace(0.0, 6.0, 24))


@dataclass(frozen=True)
class _Pair:
    """A value and its derivative, as forward-mode differentiation carries them."""

    v: float
    d: float = 0.0

    def __add__(self, other):
        return _Pair(self.v + other.v, self.d + other.d)

    def __mul__(self, other):
        return _Pair(self.v * other.v, self.v * other.d + self.d * other.v)


def kernel() -> float:
    env = {"r": _Pair(3.7), "one": _Pair(1.0)}
    x = _Pair(0.3, 1.0)
    acc = 0.0
    for _ in range(300):
        y = env["r"] * x * (env["one"] + _Pair(-x.v, -x.d))
        acc += y.d
        x = _Pair(y.v, 1.0)
    for _ in range(15):
        h = np.zeros_like(_POINTS)
        for c in _COEFFS[::-1]:
            h = h * _POINTS + c
    return acc + float(h.real.sum())


def time_kernel() -> tuple[float, float]:
    """(start, seconds) of one kernel call made now."""
    t0 = time.perf_counter()
    kernel()
    return t0, time.perf_counter() - t0


def speed_factors(
    kernels: list[tuple[float, float]], spans: list[tuple[float, float]]
) -> list[float]:
    """Per-job factors that turn raw seconds into seconds at reference speed.

    ``kernels`` holds (start, seconds) of a kernel call made just before
    each job and one after the last; ``spans`` the (start, end) of each job.
    Job i is scaled by the mean kernel time over the kernels that start
    within one job duration of its span, and always the two adjacent ones.
    The host switches between fast and slow states within a second, so a
    long job needs the kernels around it to see the same mix of states; for
    a short job only the adjacent ones remain, which followed fast changes
    best (a wider fixed window, up to 7 kernel calls, let a job's time
    spread 9-13% over rounds instead of about 7%).
    """
    if len(kernels) != len(spans) + 1:
        raise ValueError("need one kernel call before each job and one after the last")
    factors = []
    for i, (start, end) in enumerate(spans):
        reach = end - start
        times = [
            k
            for j, (t, k) in enumerate(kernels)
            if j in (i, i + 1) or start - reach <= t <= end + reach
        ]
        factors.append(NOMINAL_S * len(times) / sum(times))
    return factors
