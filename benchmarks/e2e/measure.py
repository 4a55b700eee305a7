"""Arithmetic shared by the driver, the comparison and the tests."""

from __future__ import annotations

import numbers
import statistics
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def worsening(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of ``parent``
    (negative = better), for a metric where ``better`` is lower or higher."""
    if parent == 0:
        return 0.0 if change == 0 else float("inf")
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def canonical(value) -> str:
    """A type-insensitive, bit-exact spelling of one result value."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return repr(value)
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return float(value).hex()
    return repr(value)


def answer_text(rows) -> str:
    """A result's rows as canonical text, in an order of their own: ORDER BY
    leaves the order of tied rows open, and two strategies may differ there."""
    return ";".join(sorted(",".join(canonical(v) for v in row) for row in rows))
