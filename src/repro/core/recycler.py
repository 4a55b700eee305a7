"""Cross-query recycling of subjoin-level intermediates (Dursun et al.).

The aggregate cache memoizes *whole query results*; two overlapping queries —
same join core, different group-by or aggregate list — still recompute each
other's compensation subjoins from scratch.  "Revisiting Reuse in Main Memory
Database Systems" (PAPERS.md) closes exactly this gap with subplan-level
reuse, and this module is its adaptation to the main/delta compensation
model: a shared, thread-safe :class:`SubjoinRecycler` of *joined row-index
sets*, keyed by everything that determines a subjoin's output tuples and
nothing that doesn't.

What is stored
--------------
For each evaluated compensation subjoin, the post-residual
:class:`~repro.query.operators.JoinedProvider` state: the per-alias joined
index arrays (shared with the producing query, never mutated) plus the
partitions they index.  Group-by and aggregates are deliberately **not**
part of the key — on a hit, the consumer re-aggregates the recycled tuples
into its own grouped state, so a Q3-shaped and a Q5-shaped query over the
same customer/orders/orderline core share one join evaluation.

Key and validity model
----------------------
The key is ``(join-core fingerprint, plan signature, kernel tag, per-alias
partition/pushdown/fixed-rows state)``:

* **join-core fingerprint** — FROM list in declaration order, join edges and
  WHERE filters in list order (:func:`join_core_fingerprint`).  Declaration
  order is part of the fingerprint because
  :func:`~repro.plan.cost.choose_join_order` tie-breaks on it: two queries
  share a fingerprint only if they provably produce the same join order,
  scan the same rows, and therefore emit bit-identical tuple orderings —
  the property the executor's serial/parallel parity guarantee rests on.
* **plan signature** — the per-table version counters.  DML bumps them, so
  entries never outlive a write's partition set; together with the engine's
  writer-preferring lock (no DML *during* a query) this makes watermark /
  epoch revalidation at lookup time unnecessary.
* **kernel tag** — ``join_kernel()``, mirroring the executor's hash-memo
  keying: never serve one kernel tuples the other joined.
* **snapshot horizon** — stored per entry, not in the key: an entry built at
  snapshot ``anchor`` additionally knows the smallest stamp *above* the
  anchor over its partitions (``min_stamp_after``), i.e. the first write —
  committed or not — its scans did not observe.  A reader at snapshot ``s``
  may reuse the entry iff ``anchor <= s < horizon``; an uncommitted
  transaction's rows sit below the current signature but above the horizon,
  so a later reader that would see them correctly *misses* (outcome
  ``stale``) instead of replaying a too-old scan.

Concurrency
-----------
The recycler has its own lock (parallel subjoin workers probe and populate
concurrently, from multiple queries at once); the manager's lock is never
taken while holding it.  Per-query outcome counts live on the
:class:`RecycleContext` handed to the executor, so reports and metrics get
per-query routing without extra synchronization on the hot path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from ..query.executor import ComboSpec, RowRange
from ..query.query import AggregateQuery

__all__ = [
    "SubjoinRecycler",
    "RecycleContext",
    "RecycledSubjoin",
    "join_core_fingerprint",
]

#: Flat per-entry overhead estimate (key tuples, dict slots, dataclass).
_ENTRY_OVERHEAD_BYTES = 512


def join_core_fingerprint(query: AggregateQuery) -> Tuple:
    """The join-core identity of a query: FROM (in declaration order), join
    edges and filters (in list order) — everything that determines which
    tuples a subjoin joins and in what order, excluding group-by,
    aggregates, ORDER BY, and LIMIT (which only shape the aggregation on
    top).  Queries sharing a fingerprint can recycle each other's subjoins
    bit-identically."""
    return (
        tuple((ref.table, ref.alias) for ref in query.tables),
        tuple(edge.canonical() for edge in query.join_edges),
        tuple(expr.canonical() for expr in query.filters),
    )


@dataclass
class RecycledSubjoin:
    """One recycled subjoin: the joined index state plus its validity window.

    ``indices`` is ``None`` for a subjoin that evaluated empty — the cheapest
    possible hit: the consumer skips the join *and* the aggregation.  The
    arrays are shared with the producing query's provider and are treated as
    immutable by every consumer (``JoinedProvider`` never mutates its
    indices; ``select`` copies).
    """

    indices: Optional[Dict[str, np.ndarray]]
    partitions: Dict[str, object]
    row_counts: Dict[str, int]
    probe_side: str
    anchor: int
    horizon: float
    nbytes: int
    tables: FrozenSet[str]
    hits: int = 0
    #: Per-alias rows that entered the join after semi-join reduction (None
    #: or equal to ``row_counts`` when nothing was reduced) — replayed with
    #: ``probe_side`` so a hit reports what the recompute would.
    reduced_counts: Optional[Dict[str, int]] = None


class RecycleContext:
    """Per-query recycling handle: fingerprint + signature + snapshot bound
    once at routing time, plus per-query outcome counts for the report.

    Thread-safe by construction: ``lookup``/``store`` funnel through the
    recycler's lock, and the per-partition horizon memo uses GIL-atomic
    dict operations (a racing duplicate computation is benign — both
    threads compute the same value for the same snapshot)."""

    __slots__ = (
        "recycler",
        "query_fp",
        "signature",
        "snapshot",
        "hits",
        "misses",
        "stale",
        "stored",
        "bypass",
        "_horizons",
    )

    def __init__(self, recycler: "SubjoinRecycler", query_fp, signature, snapshot: int):
        self.recycler = recycler
        self.query_fp = query_fp
        self.signature = signature
        self.snapshot = snapshot
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.stored = 0
        self.bypass = 0
        self._horizons: Dict[int, float] = {}

    # -- key construction ------------------------------------------------
    def key_for(self, combo: ComboSpec):
        """The recycler key of one subjoin, or ``None`` when the subjoin is
        not stably keyable (explicit ``fixed_rows`` index arrays — main
        compensation's invalidated-row sets — key by array identity in the
        executor's memo and cannot be recognized across queries)."""
        parts = []
        for alias in sorted(combo.partitions):
            fixed = combo.fixed_rows.get(alias)
            if fixed is None:
                fixed_key = None
            elif isinstance(fixed, RowRange):
                fixed_key = (fixed.start, fixed.stop)
            else:
                self.bypass += 1
                return None
            extra = combo.extra_filters.get(alias, ())
            parts.append(
                (
                    alias,
                    id(combo.partitions[alias]),
                    tuple(sorted(e.canonical() for e in extra)),
                    fixed_key,
                )
            )
        return (self.query_fp, self.signature, _kernel_tag(), tuple(parts))

    # -- validity --------------------------------------------------------
    def _horizon(self, partition) -> float:
        """First stamp above this context's snapshot in ``partition`` (inf
        when none) — memoized per partition, shared across this query's
        subjoins so the O(rows) stamp scan runs once per partition."""
        pid = id(partition)
        horizon = self._horizons.get(pid)
        if horizon is None:
            horizon = partition.min_stamp_after(
                self.snapshot, 0, partition.row_count
            )
            self._horizons[pid] = horizon
        return horizon

    # -- probe / populate ------------------------------------------------
    def lookup(self, key, combo: ComboSpec) -> Optional[RecycledSubjoin]:
        """Probe the shared recycler; validates partition identity and the
        snapshot window, counts the outcome on this context."""
        entry, outcome = self.recycler._lookup(key, combo, self.snapshot)
        if outcome == "hit":
            self.hits += 1
        elif outcome == "stale":
            self.stale += 1
        else:
            self.misses += 1
        return entry

    def store(
        self, key, combo: ComboSpec, provider, row_counts, probe_side, reduced_counts
    ) -> None:
        """Publish one evaluated subjoin (``provider is None`` = empty)."""
        horizon = min(self._horizon(p) for p in combo.partitions.values())
        if horizon <= self.snapshot:  # pragma: no cover - defensive
            return
        if provider is None:
            indices = None
            partitions = dict(combo.partitions)
            nbytes = _ENTRY_OVERHEAD_BYTES
        else:
            indices = dict(provider.indices)
            partitions = dict(provider.partitions)
            nbytes = _ENTRY_OVERHEAD_BYTES + sum(
                arr.nbytes for arr in indices.values()
            )
        entry = RecycledSubjoin(
            indices=indices,
            partitions=partitions,
            row_counts=dict(row_counts),
            reduced_counts=dict(reduced_counts),
            probe_side=probe_side,
            anchor=self.snapshot,
            horizon=horizon,
            nbytes=nbytes,
            tables=frozenset(table for table, _alias in self.query_fp[0]),
        )
        if self.recycler._store(key, entry):
            self.stored += 1


def _kernel_tag() -> str:
    from ..query.operators import join_kernel

    return join_kernel()


class SubjoinRecycler:
    """Shared LRU store of recycled subjoins with a byte budget.

    Owned by the cache manager; contexts are minted per routed query.  All
    mutation happens under ``_lock``; the manager's lock may be held while
    calling in (manager → recycler is the only permitted lock order)."""

    def __init__(self, max_bytes: int = 32 * 1024 * 1024, obs=None):
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, RecycledSubjoin]" = OrderedDict()
        self._nbytes = 0
        self.max_bytes = max_bytes
        self._obs = obs
        # Lifetime counters (guarded by _lock; snapshot via stats()).
        self.total_hits = 0
        self.total_misses = 0
        self.total_stale = 0
        self.total_stored = 0
        self.total_evictions = 0
        self.total_invalidated = 0

    # -- context minting -------------------------------------------------
    def context(self, query_fp, signature, snapshot: int) -> RecycleContext:
        """A per-query probe/populate handle bound to one routing decision."""
        return RecycleContext(self, query_fp, signature, snapshot)

    # -- core operations (context-driven) --------------------------------
    def _lookup(self, key, combo: ComboSpec, snapshot: int):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.total_misses += 1
                return None, "miss"
            valid = entry.anchor <= snapshot < entry.horizon and all(
                entry.partitions.get(alias) is partition
                for alias, partition in combo.partitions.items()
            )
            if not valid:
                # A stale entry can never become valid again (signatures
                # only move forward); drop it on sight.
                self._drop_locked(key, entry)
                self.total_stale += 1
                self.total_invalidated += 1
                self._note_eviction("stale")
                return None, "stale"
            self._entries.move_to_end(key)
            entry.hits += 1
            self.total_hits += 1
            return entry, "hit"

    def _store(self, key, entry: RecycledSubjoin) -> bool:
        if entry.nbytes > self.max_bytes:
            return False  # would evict the entire store for one entry
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                if existing.anchor >= entry.anchor:
                    return False  # a newer (or same) anchor already won
                self._drop_locked(key, existing)
            self._entries[key] = entry
            self._nbytes += entry.nbytes
            self.total_stored += 1
            while self._nbytes > self.max_bytes and len(self._entries) > 1:
                old_key, old = next(iter(self._entries.items()))
                if old_key == key:
                    break
                self._drop_locked(old_key, old)
                self.total_evictions += 1
                self._note_eviction("budget")
            return True

    def _drop_locked(self, key, entry: RecycledSubjoin) -> None:
        del self._entries[key]
        self._nbytes -= entry.nbytes

    def _note_eviction(self, reason: str) -> None:
        if self._obs is not None:
            self._obs.recycler_evictions.labels(reason).inc()

    # -- lifecycle -------------------------------------------------------
    def evict_for_table(self, table_name: str) -> int:
        """Drop every entry whose join core references ``table_name`` —
        called on DROP TABLE and after a delta merge swaps partitions."""
        with self._lock:
            doomed = [
                (key, entry)
                for key, entry in self._entries.items()
                if table_name in entry.tables
            ]
            for key, entry in doomed:
                self._drop_locked(key, entry)
            self.total_invalidated += len(doomed)
        for _ in doomed:
            self._note_eviction("invalidated")
        return len(doomed)

    def clear(self) -> Tuple[int, int]:
        """Drop everything; returns ``(entries_dropped, bytes_freed)`` for
        the governor's shed accounting."""
        with self._lock:
            count, freed = len(self._entries), self._nbytes
            self._entries.clear()
            self._nbytes = 0
            self.total_evictions += count
        if count and self._obs is not None:
            self._obs.recycler_evictions.labels("shed").inc(count)
        return count, freed

    # -- introspection ---------------------------------------------------
    def nbytes(self) -> int:
        with self._lock:
            return self._nbytes

    def entry_count(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """One locked snapshot of occupancy + lifetime counters."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "bytes": self._nbytes,
                "max_bytes": self.max_bytes,
                "hits": self.total_hits,
                "misses": self.total_misses,
                "stale": self.total_stale,
                "stored": self.total_stored,
                "evictions": self.total_evictions,
                "invalidated": self.total_invalidated,
            }
