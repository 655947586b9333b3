"""Order statistics shared by the benchmark's parent and worker processes."""

from __future__ import annotations

import statistics

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(percentile, value)``: the value is the sample with exactly
    ``TAIL_BEYOND`` samples above it in sorted order, and the percentile is
    the share of samples at or below it.  ``None`` when there are too few
    samples for any such percentile.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    return 100.0 * (n - TAIL_BEYOND) / n, float(ordered[n - TAIL_BEYOND - 1])
