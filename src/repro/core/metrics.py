"""Per-entry aggregate cache metrics (Fig. 2: "Aggregate Cache Metrics").

Of the fields the paper lists, the entry keeps the aggregate's size, the number of records aggregated from main, and usage information:
what the eviction rank (Mueller et al. [20], cited in Section 2.1) and the
cache's gauges read.  The paper's creation, compensation and maintenance
times are not kept: no policy reads them — the rank counts rows, not
seconds, so it repeats from run to run — and per-read and per-merge times
are on the query report, the trace spans and the metrics registry instead.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheMetrics:
    """Mutable per-entry statistics.

    ``last_access_clock`` orders accesses (eviction's rank ties, the shed's
    memo order) without depending on the system clock (the engine passes a
    monotonically increasing access counter).
    """

    size_bytes: int = 0
    aggregated_records_main: int = 0
    reference_count: int = 0  # uses of the key, earlier residencies included
    last_access_clock: int = 0

    # ------------------------------------------------------------------
    def record_use(self, clock: int) -> None:
        """Count one use and refresh the LRU clock."""
        self.reference_count += 1
        self.last_access_clock = clock

    def profit(self) -> int:
        """Rows the entry saves: uses × ``aggregated_records_main``.

        Each use of the entry spares the all-main aggregate its build
        folded — the Dursun et al. benefit metric (hits × rebuild cost,
        PAPERS.md), with the rebuild cost in rows, not seconds, so the rank
        repeats exactly from run to run.  ``reference_count`` counts the
        key's uses, remembered across evictions (the manager's ghost
        history), so a rebuilt entry ranks by its statement's whole
        history.  No time enters: an entry kept and one rebuilt pay the
        same compensation.  Eviction divides by the budget it is over
        (:func:`~repro.core.eviction.select_victims`).
        """
        return self.reference_count * self.aggregated_records_main
