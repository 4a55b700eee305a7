"""Cache eviction policies.

The manager calls the eviction policy after every admission; the policy
returns the keys to drop so the cache fits its configured budget
(``max_entries`` and/or ``max_bytes``).  Two classic policies are provided:
least-recently-used and lowest-profit-first (the dynamic decision metric of
Section 2.1 / [20], measured in rows saved).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Protocol

from .cache_entry import AggregateCacheEntry
from .cache_key import CacheKey


class EvictionPolicy(Protocol):
    """Selects victims when the cache exceeds its budget."""

    def select_victims(
        self,
        entries: Dict[CacheKey, AggregateCacheEntry],
        max_entries: Optional[int],
        max_bytes: Optional[int],
    ) -> List[CacheKey]:
        """Keys to drop so the cache fits its budget (empty if within)."""
        ...


@dataclass
class LruEviction:
    """Evict the least recently used entries first."""

    def select_victims(
        self,
        entries: Dict[CacheKey, AggregateCacheEntry],
        max_entries: Optional[int],
        max_bytes: Optional[int],
    ) -> List[CacheKey]:
        """Oldest-access-first victims until within budget."""
        return _evict_in_order(
            entries,
            max_entries,
            max_bytes,
            rank=lambda e, per_byte: e.metrics.last_access_clock,
        )


@dataclass
class ProfitEviction:
    """Evict the entries that save the fewest rows first.

    An entry's rank is its :meth:`~repro.core.metrics.CacheMetrics.profit`
    (its key's uses × the rows its build folded) per unit of the budget
    that is over: per slot when only ``max_entries`` is, per byte when
    ``max_bytes`` is (the governor's shed passes a byte budget).  Ties go
    to the least recently used.  Nothing in the rank is a measured time,
    so one replay evicts the same entries every run.
    """

    def select_victims(
        self,
        entries: Dict[CacheKey, AggregateCacheEntry],
        max_entries: Optional[int],
        max_bytes: Optional[int],
    ) -> List[CacheKey]:
        """Lowest-rank-first victims until within budget."""
        return _evict_in_order(entries, max_entries, max_bytes, rank=_profit_rank)


def _profit_rank(entry: AggregateCacheEntry, per_byte: bool):
    metrics = entry.metrics
    profit = metrics.profit()
    if per_byte:
        profit /= max(1, metrics.size_bytes)
    return profit, metrics.last_access_clock


def _evict_in_order(
    entries: Dict[CacheKey, AggregateCacheEntry],
    max_entries: Optional[int],
    max_bytes: Optional[int],
    rank: Callable[[AggregateCacheEntry, bool], object],
) -> List[CacheKey]:
    """Drop entries in ``rank`` order (lowest first) until both budgets
    hold.  ``rank`` is told whether the byte budget is the one over."""
    count = len(entries)
    nbytes = sum(e.metrics.size_bytes for e in entries.values())

    def over() -> bool:
        return (max_entries is not None and count > max_entries) or (
            max_bytes is not None and nbytes > max_bytes
        )

    if not over():
        return []
    per_byte = max_bytes is not None and nbytes > max_bytes
    ordered = sorted(entries.items(), key=lambda kv: rank(kv[1], per_byte))
    victims: List[CacheKey] = []
    for key, entry in ordered:
        if not over():
            break
        victims.append(key)
        count -= 1
        nbytes -= entry.metrics.size_bytes
    return victims
