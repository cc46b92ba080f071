"""A machine-speed probe that runs on the benchmark's own thread.

On a shared host the CPU speed seen by one process can change by 1.7x
within seconds, as other tenants load the same cores. Raw times of one
fixed workload then spread by 10-30% from run to run. While a SpeedProbe
is active, a timer signal runs a fixed kernel of about a millisecond every
PROBE_INTERVAL_S. The kernel runs on the same thread as the workload, so
each sample sees the speed the workload saw at that moment.
`reference_time` takes the probe's own samples out of an interval and
rescales the rest to the speed at which the kernel takes
REFERENCE_KERNEL_S.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_INTERVAL_S = 0.05
REFERENCE_KERNEL_S = 0.001
MIN_SAMPLES = 5


def kernel() -> Fraction:
    """Fixed pure-Python work: exact rational sums, like pcvote's own."""
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i % 97 + 1)
    return total


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, *_) -> None:
        start = perf_counter()
        kernel()
        self.samples.append(perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def reference_time(self, elapsed: float, mark: int) -> float:
        """`elapsed` seconds measured since `mark`, less the probe samples
        taken in that interval, at reference speed. The speed is the mean
        kernel time of the interval's samples, or of the last MIN_SAMPLES
        when the interval has fewer."""
        during = self.samples[mark:]
        recent = during if len(during) >= MIN_SAMPLES else self.samples[-MIN_SAMPLES:]
        return (elapsed - sum(during)) * REFERENCE_KERNEL_S / statistics.fmean(recent)
