"""Aggregate cache entries (Fig. 2).

An entry binds a :class:`CacheKey` to

* the **value**: the grouped aggregate computed over *one all-main partition
  combination only* (never the deltas — that is the whole point of the
  design: inserts go to the delta and cannot invalidate the entry);
* the **visibility snapshot**: one bit vector per referenced main partition,
  captured at creation time through the consistent view manager — the
  mains' state in the memo the entry is born with
  (:func:`repro.core.delta_memo.birth_memo`), whose step subtracts the
  stored rows a reader no longer sees (main compensation, Section 2.2);
* the **metrics** used for admission/eviction/maintenance decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import CacheError
from ..query.aggregates import GroupedAggregates
from ..storage.bitvector import BitVector
from ..storage.partition import Partition
from .cache_key import CacheKey
from .metrics import CacheMetrics, EntryStatus


@dataclass
class ResultOrder:
    """The remembered output order of a *pure hit* (architecture §4).

    When a read was answered by one entry whose compensation memo holds
    nothing after the read's step, its finished rows are ``finalize(entry.value)``
    filtered by HAVING, sorted by ORDER BY and cut by LIMIT.  This records
    only that order — the slots of ``value``'s groups, not the rows — plus
    everything needed to tell that a later read would derive the same
    order again; the manager checks it
    (``AggregateCacheManager._reuse_result``) and emits the rows straight
    from ``entry.value``.  Immutable once installed.
    """

    #: Slots of ``value``'s groups in output order, HAVING and LIMIT applied.
    slots: np.ndarray
    #: ``AggregateQuery.presentation_key()`` of the statement (entries are
    #: shared by statements differing only in HAVING / ORDER BY / LIMIT).
    presentation: Tuple
    #: The ``entry.value`` and ``entry.delta_memo`` objects the order was
    #: derived beside; reuse requires the entry to still hold both (the
    #: memo's empty ``folded`` is what makes the value the whole answer).
    value: GroupedAggregates
    memo: "object"
    #: The plan signature at the time: equal signatures mean no DML, merge,
    #: registration or config switch touched a referenced table since.
    signature: Tuple
    #: Snapshot of the remembering read, and the smallest MVCC stamp above
    #: it in any partition of any referenced table (``inf`` = none): the
    #: order serves readers in ``[anchor, horizon)``.
    anchor: int
    horizon: float
    #: ``delta_memo_rows_saved`` an incremental hit reports for this plan.
    rows_saved: int = 0

    def nbytes(self) -> int:
        """The slot array: 8 bytes per remembered group."""
        return self.slots.nbytes


@dataclass
class AggregateCacheEntry:
    """One cached aggregate extent."""

    key: CacheKey
    query: "object"  # the bound AggregateQuery this entry caches
    value: GroupedAggregates
    # alias -> the table owning each referenced main partition
    tables: Dict[str, "object"]
    # alias -> the main partition the entry is defined on
    main_partitions: Dict[str, Partition]
    # alias -> visibility of that main partition at creation/maintenance time
    visibility: Dict[str, BitVector]
    snapshot: int  # transaction id the visibility was captured at
    # alias -> partition.invalidation_epoch at snapshot time, or -1 while the
    # stored visibility keeps rows the stamps hide (merge maintenance): an
    # alias whose main's epoch still equals it is as stored, in O(1)
    invalidation_epochs: Dict[str, int] = field(default_factory=dict)
    metrics: CacheMetrics = field(default_factory=CacheMetrics)
    # The entry's compensation memo (repro.core.delta_memo.DeltaMemo), or
    # None: reads then step from the entry's birth memo and install the
    # result.  Memo objects are immutable; the manager swaps them
    # compare-and-set style under its lock, and any lifecycle event that
    # re-anchors the entry (merge maintenance via rebase) resets it.
    delta_memo: "object" = None
    # The remembered output order of the last pure hit, or None; swapped
    # under the manager's lock like the memo, reset by rebase.
    result_order: Optional[ResultOrder] = None
    # alias -> change bits of the columns the query reads there, filled in
    # on first use by repro.core.effective_rows.read_masks.
    read_masks: Optional[Dict[str, int]] = None

    def __post_init__(self):
        missing = set(self.main_partitions) ^ set(self.visibility)
        if missing:
            raise CacheError(
                f"entry visibility does not cover aliases {sorted(missing)}"
            )
        for alias, partition in self.main_partitions.items():
            if len(self.visibility[alias]) != partition.row_count:
                raise CacheError(
                    f"visibility length mismatch for alias {alias!r}: "
                    f"{len(self.visibility[alias])} != {partition.row_count}"
                )
            self.invalidation_epochs.setdefault(alias, partition.invalidation_epoch)

    # ------------------------------------------------------------------
    @property
    def is_active(self) -> bool:
        """False once invalidated (DROP-mode maintenance)."""
        return self.metrics.status is EntryStatus.ACTIVE

    def invalidate(self) -> None:
        """Mark the entry invalidated; the next lookup replaces it."""
        self.metrics.status = EntryStatus.INVALIDATED

    def matches_current_partitions(self) -> bool:
        """False once a referenced main partition was rebuilt (delta merge)
        without this entry being maintained — the entry is then stale and
        must be recomputed rather than compensated.

        Checks both object identity (the table may have swapped in a rebuilt
        partition under the same name) and snapshot length.
        """
        for alias, partition in self.main_partitions.items():
            live = self.tables[alias].partition(partition.name)
            if live is not partition:
                return False
            if len(self.visibility[alias]) != partition.row_count:
                return False
        return True

    def rebase(
        self,
        alias: str,
        new_partition: Partition,
        new_visibility: BitVector,
        new_value: GroupedAggregates,
        snapshot: int,
    ) -> None:
        """Re-anchor one alias after its main partition was rebuilt by a
        merge and the value was incrementally maintained (Section 5.2)."""
        if alias not in self.main_partitions:
            raise CacheError(f"entry does not reference alias {alias!r}")
        if len(new_visibility) != new_partition.row_count:
            raise CacheError("rebase visibility length mismatch")
        self.main_partitions[alias] = new_partition
        self.visibility[alias] = new_visibility
        self.invalidation_epochs[alias] = new_partition.invalidation_epoch
        self.value = new_value
        self.snapshot = snapshot
        self.metrics.size_bytes = new_value.approximate_nbytes()
        self.metrics.aggregated_records_main = new_value.total_rows_aggregated()
        # The merge rebuilt at least one referenced partition, so the memo's
        # watermarks and identity set no longer describe the live layout.
        self.delta_memo = None
        self.result_order = None

    def __repr__(self) -> str:
        return (
            f"AggregateCacheEntry(key={self.key.combo}, "
            f"groups={self.value.group_count()}, status={self.metrics.status.value})"
        )
