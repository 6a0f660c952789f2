"""Quartiles and spreads of a set of runs, and the tail-percentile rule."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reportable only with this many timed ops beyond it.
MIN_BEYOND = 10


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf
