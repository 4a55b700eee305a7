"""Per-entry aggregate cache metrics (Fig. 2: "Aggregate Cache Metrics").

The metrics mirror the fields the paper lists — the aggregate's size, the
number of aggregated records in main and delta, execution times for main and
delta compensation, maintenance times, and usage information — and feed the
profit estimate used for admission, eviction, and maintenance decisions
(Mueller et al. [20], cited in Section 2.1).
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
    reference_count: int = 0
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

    def profit(self) -> float:
        """Estimated benefit of keeping this entry.

        The entry saves roughly ``creation_time_main`` per use (that is what
        on-the-fly aggregation of the main would cost) and costs the average
        delta/main compensation per use plus its share of maintenance.  The
        estimate is normalized per byte so eviction favours small, hot,
        expensive-to-rebuild aggregates — the shape of the profit metric in
        [20].
        """
        uses = max(1, self.reference_count)
        saved = self.creation_time_main * uses
        cost = (
            self.compensation_time_delta
            + self.compensation_time_main
            + self.maintenance_time
        )
        return (saved - cost) / max(1, self.size_bytes)
