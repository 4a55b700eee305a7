"""Per-entry aggregate cache metrics (Fig. 2: "Aggregate Cache Metrics").

The metrics mirror the fields the paper lists — the aggregate's size, the
number of aggregated records in main and delta, execution times for main and
delta compensation, maintenance times, and usage information — and feed the
profit estimate used for eviction (Mueller et al. [20], cited in Section
2.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class EntryStatus(enum.Enum):
    """Lifecycle state of a cache entry."""

    ACTIVE = "active"
    INVALIDATED = "invalidated"  # dropped at merge (MaintenanceMode.DROP)


@dataclass
class CacheMetrics:
    """Mutable per-entry statistics.

    Times are seconds of wall clock.  ``logical_clock`` orders accesses for
    LRU eviction without depending on the system clock (the engine passes a
    monotonically increasing access counter).
    """

    status: EntryStatus = EntryStatus.ACTIVE
    size_bytes: int = 0
    aggregated_records_main: int = 0
    aggregated_records_delta: int = 0
    creation_time_main: float = 0.0  # seconds to compute the main aggregate
    compensation_time_delta: float = 0.0  # cumulative delta-compensation time
    compensation_time_main: float = 0.0  # cumulative main-compensation time
    maintenance_time: float = 0.0  # cumulative merge-maintenance time
    reference_count: int = 0  # uses of the key, earlier residencies included
    last_access_clock: int = 0

    # ------------------------------------------------------------------
    def record_use(self, clock: int) -> None:
        """Count one use and refresh the LRU clock."""
        self.reference_count += 1
        self.last_access_clock = clock

    def average_delta_compensation(self) -> float:
        """Mean delta-compensation seconds per use (0 before any use)."""
        if self.reference_count == 0:
            return 0.0
        return self.compensation_time_delta / self.reference_count

    def profit(self) -> int:
        """Rows the entry saves: uses × ``aggregated_records_main``.

        Each use of the entry spares the all-main aggregate its build
        folded — the Dursun et al. benefit metric (hits × rebuild cost,
        PAPERS.md), with the rebuild cost in rows, not seconds, so the rank
        repeats exactly from run to run.  ``reference_count`` counts the
        key's uses, remembered across evictions (the manager's ghost
        history), so a rebuilt entry ranks by its statement's whole
        history.  Compensation and maintenance times stay out: an entry
        kept and one rebuilt pay the same compensation.  Eviction divides
        by the budget it is over (:class:`~repro.core.eviction.ProfitEviction`).
        """
        return self.reference_count * self.aggregated_records_main
