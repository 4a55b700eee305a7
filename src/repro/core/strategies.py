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
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union


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


class MaintenanceMode(enum.Enum):
    """What happens to cache entries at delta-merge time (Section 5.2)."""

    INCREMENTAL = "incremental"  # fold the merged delta into the entry
    DROP = "drop"  # invalidate; the next query recreates the entry


@dataclass
class CacheConfig:
    """Tuning knobs of the aggregate cache manager."""

    # Default strategy when a query does not name one explicitly.
    default_strategy: ExecutionStrategy = ExecutionStrategy.CACHED_FULL_PRUNING
    # Apply join predicate pushdown to unpruned mixed subjoins.
    predicate_pushdown: bool = True
    # Entry lifecycle at merge time.
    maintenance_mode: MaintenanceMode = MaintenanceMode.INCREMENTAL
    # Maximum number of entries (None = unbounded); eviction policy applies.
    max_entries: Optional[int] = None
    # Maximum total approximate bytes of cached values (None = unbounded).
    max_bytes: Optional[int] = None
    # Enforce referential integrity on matching-dependency lookups.
    enforce_referential_integrity: bool = True
    # Physical plans cached per (statement, strategy); 0 disables the plan
    # cache (every query re-binds and re-plans).
    plan_cache_size: int = 128
    # Star-join-aware variant reduction (see repro.plan.star_join): under
    # the pruning strategies, exclude tables whose delta partitions are
    # provably empty from compensation-variant generation and re-attach
    # their mains to every variant, collapsing 2^t-1 enumerated subjoins
    # to 2^k-1 over the k remaining tables.  Off = enumerate exhaustively
    # and rely on per-combo pruning alone (the paper's baseline).
    star_join_reduction: bool = True
    # Config-wide star-join override: None = detect automatically; any
    # iterable (or comma-separated string) of table/alias names restricts
    # exclusion candidates to exactly those names (() = exclude nothing).
    # A per-query star_join_tables=... takes precedence when given.
    star_join_tables: Optional[Union[str, Iterable[str]]] = None
