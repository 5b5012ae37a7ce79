"""Summary statistics shared by the benchmark's workloads."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

#: Percentiles a tail may be reported at, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(pct, value)`` at the highest ladder percentile that leaves at least
    :data:`TAIL_MIN_BEYOND` samples beyond it (the median when none does)."""
    n = len(values)
    chosen = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            chosen = pct
    return chosen, percentile(values, chosen)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
