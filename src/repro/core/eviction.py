"""Cache eviction: lowest profit first.

The manager calls :func:`select_victims` after every admission and the
governor's shed calls it under a byte budget; it returns the keys to drop
so the cache fits ``max_entries`` and/or the byte budget.  The rank is the
dynamic decision metric of Section 2.1 / [20], measured in rows saved.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .cache_entry import AggregateCacheEntry
from .cache_key import CacheKey


def select_victims(
    entries: Dict[CacheKey, AggregateCacheEntry],
    max_entries: Optional[int],
    max_bytes: Optional[int],
) -> List[CacheKey]:
    """Lowest-rank-first victims until both budgets hold (empty if within).

    An entry's rank is its :meth:`~repro.core.metrics.CacheMetrics.profit`
    (its key's uses × the rows its build folded) per unit of the budget
    that is over: per slot when only ``max_entries`` is, per byte when
    ``max_bytes`` is.  Ties go to the least recently used.  Nothing in the
    rank is a measured time, so one replay evicts the same entries every
    run.
    """
    count = len(entries)
    nbytes = sum(e.metrics.size_bytes for e in entries.values())

    def over() -> bool:
        return (max_entries is not None and count > max_entries) or (
            max_bytes is not None and nbytes > max_bytes
        )

    if not over():
        return []
    per_byte = max_bytes is not None and nbytes > max_bytes

    def rank(item):
        metrics = item[1].metrics
        profit = metrics.profit()
        if per_byte:
            profit /= max(1, metrics.size_bytes)
        return profit, metrics.last_access_clock

    victims: List[CacheKey] = []
    for key, entry in sorted(entries.items(), key=rank):
        if not over():
            break
        victims.append(key)
        count -= 1
        nbytes -= entry.metrics.size_bytes
    return victims
