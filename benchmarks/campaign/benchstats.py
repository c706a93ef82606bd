"""Order statistics shared by the campaign benchmark and its comparator.

Every timing the benchmark reports is a median plus, where the sample
allows it, the highest percentile that still has at least ten samples
beyond it (a p90 needs 100 samples, a p99 needs 1000).
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)

#: samples that must lie beyond a percentile for it to be reported
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 <= q <= 100); 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th percentile."""
    return n - math.ceil(n * q / 100.0)


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile with at least :data:`MIN_BEYOND` samples
    beyond it, or ``None`` when even the median lacks them."""
    for q in TAIL_PERCENTILES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0.0 if undefined)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0
