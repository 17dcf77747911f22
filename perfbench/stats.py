"""The tail percentile: the highest candidate backed by at least ten
samples beyond it."""

from __future__ import annotations

import math

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def rank_index(p: float, n: int) -> int:
    """0-based index of the nearest-rank p-th percentile among n sorted samples."""
    # Rounding first keeps float error (99.9 / 100 * 10000 = 9990.000000000002)
    # from moving the rank.
    return max(0, math.ceil(round(p * n / 100.0, 9)) - 1)


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with at least MIN_BEYOND of n
    samples strictly above its rank.

    Workloads pass the operation count of one pass, which is fixed by the
    workload and seed, so the chosen percentile does not change when a
    faster program fits more passes into a run.
    """
    for p in TAIL_CANDIDATES:
        if n - (rank_index(p, n) + 1) >= MIN_BEYOND:
            return p
    raise ValueError(f"{n} samples cannot back any tail percentile; need at least {2 * MIN_BEYOND}")


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[rank_index(p, len(ordered))]
