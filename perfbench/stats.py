"""Small order statistics shared by the benchmark and its tests."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A tail percentile is reported only where at least this many samples lie beyond it.
TAIL_BEYOND = 10


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The ``pct`` percentile by the nearest-rank rule (a value that occurred)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values: Sequence[float], pct: float) -> int:
    """How many samples lie strictly above the nearest-rank ``pct`` position."""
    return len(values) - max(1, math.ceil(pct / 100.0 * len(values)))


def tail_percentile(count: int, min_beyond: int = TAIL_BEYOND) -> int:
    """The highest whole percentile with ``min_beyond`` samples beyond it.

    With 100 samples that is p90; with fewer than ``min_beyond + 1`` samples
    no percentile qualifies and 0 is returned.
    """
    if count <= min_beyond:
        return 0
    pct = math.floor(100.0 * (count - min_beyond) / count)
    while pct > 0 and count - math.ceil(pct / 100.0 * count) < min_beyond:
        pct -= 1
    return pct


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0
