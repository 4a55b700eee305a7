"""Execution strategies and cache configuration.

The four strategies are exactly the ones compared throughout Section 6.4:

* ``UNCACHED`` — evaluate every partition subjoin, no cache (Section 2.3.1);
* ``CACHED_NO_PRUNING`` — use the aggregate cache for the all-main subjoin,
  evaluate all remaining ``2^t - 1`` compensation subjoins (Section 2.3.2);
* ``CACHED_EMPTY_DELTA`` — additionally skip compensation subjoins that
  reference a physically empty partition (the dimension-table optimization);
* ``CACHED_FULL_PRUNING`` — additionally apply matching-dependency dynamic
  tid-range pruning (Equation 5), logical hot/cold pruning (Section 5.4),
  and — when enabled — join predicate pushdown for the subjoins that survive
  (Section 5.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class ExecutionStrategy(enum.Enum):
    """How an aggregate query is answered."""

    UNCACHED = "uncached"
    CACHED_NO_PRUNING = "cached_no_pruning"
    CACHED_EMPTY_DELTA = "cached_empty_delta"
    CACHED_FULL_PRUNING = "cached_full_pruning"

    @property
    def uses_cache(self) -> bool:
        """True for every strategy except UNCACHED."""
        return self is not ExecutionStrategy.UNCACHED

    @property
    def prunes_empty(self) -> bool:
        """True when empty-partition pruning applies."""
        return self in (
            ExecutionStrategy.CACHED_EMPTY_DELTA,
            ExecutionStrategy.CACHED_FULL_PRUNING,
        )

    @property
    def prunes_dynamic(self) -> bool:
        """True when MD tid-range / logical pruning applies."""
        return self is ExecutionStrategy.CACHED_FULL_PRUNING


@dataclass
class CacheConfig:
    """The aggregate cache's switches, each kept for a caller that sets it.

    A read that names no strategy runs ``CACHED_FULL_PRUNING``;
    referential integrity is always enforced (the matching-dependency
    lookup at insert time is the RI check, Section 6.3); every computed
    aggregate is admitted; the plan cache holds 128 plans; and eviction
    ranks by profit (:mod:`repro.core.eviction`).  The one byte bound is
    the governor's memory budget.
    """

    # Apply join predicate pushdown to unpruned mixed subjoins.
    predicate_pushdown: bool = True
    # Maximum number of entries (None = unbounded).
    max_entries: Optional[int] = None
    # Star-join-aware variant reduction (see repro.plan.star_join): under
    # the pruning strategies, exclude tables whose delta partitions are
    # provably empty from compensation-variant generation and re-attach
    # their mains to every variant, collapsing 2^t-1 enumerated subjoins
    # to 2^k-1 over the k remaining tables.  Off = enumerate exhaustively
    # and rely on per-combo pruning alone (the paper's baseline).
    star_join_reduction: bool = True
