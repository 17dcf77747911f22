"""Machine-speed calibration for a shared, drifting host.

The VM the benchmark was defined on runs the same Python code up to about
1.6 times slower for tens of seconds at a time, as its neighbours' load
comes and goes.  No statistic inside one run removes a slowdown that
covers the whole run, so the benchmark measures the machine's speed next
to the program: between operations it times a fixed pure-Python kernel
that does not use braidcomb, and scales each operation's latency by

    REFERENCE_KERNEL_S / (median kernel time within WINDOW_S of the operation)

The scaled latency is the latency the operation would have had on the
machine running at the reference speed, the speed at which the kernel
takes REFERENCE_KERNEL_S.  A change to braidcomb moves the scaled times as
much as the raw ones; a change in the machine's speed mostly cancels.
Raw times stay in each run's report.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

# Kernel time at the reference speed: the median on the 2-core Intel Xeon
# VM (Python 3.11) the benchmark was defined on, in a fast period.
REFERENCE_KERNEL_S = 0.0034
SAMPLE_EVERY_S = 0.2  # at most one kernel sample per interval
WINDOW_S = 2.0  # samples within this distance of an operation scale it
MIN_SAMPLES = 7  # fewer in the window: use the nearest this many

_TUPLE = tuple(range(40))


def kernel() -> int:
    """Fixed interpreter work in the mix braidcomb does: small dicts keyed by
    tuples, tuple slicing and hashing, list building and sorting, string
    keys and big-integer arithmetic.  It allocates well under a megabyte."""
    table: dict = {}
    acc = 0
    for i in range(700):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
        acc += len(_TUPLE[i % 7 : i % 7 + 20]) * (i ^ 0x55)
        acc ^= hash(_TUPLE[::-1][:10] + (i,)) & 0xFF
    rows = [((i * 7919) % 1009, i, str(i)) for i in range(2500)]
    rows.sort()
    acc += len({r[2]: r for r in rows})
    x, y = 3**1500, 7**1200
    for i in range(12):
        x, y = y, (x * y) % (10**1200 + i)
    return acc + (x & 0xFF)


class SpeedProbe:
    """Kernel timings taken through a run, and the scale they imply."""

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoint of each sample, ascending
        self.durations: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)
        self.last = end

    def maybe_sample(self) -> None:
        if perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def sample_burst(self, count: int) -> None:
        for _ in range(count):
            self.sample()

    def kernel_s_at(self, t: float) -> float:
        """Median kernel time around time t."""
        if not self.durations:
            raise ValueError("no speed samples taken")
        lo = bisect_left(self.times, t - WINDOW_S)
        hi = bisect_right(self.times, t + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            nearest = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - t))[:MIN_SAMPLES]
            return statistics.median(self.durations[i] for i in nearest)
        return statistics.median(self.durations[lo:hi])

    def scale_at(self, t: float) -> float:
        """Factor that turns a time measured around t into reference time."""
        return REFERENCE_KERNEL_S / self.kernel_s_at(t)

    def overall_kernel_s(self) -> float:
        return statistics.median(self.durations)
