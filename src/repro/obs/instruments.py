"""The engine's instrument bundle: every metric, registered exactly once.

:class:`EngineMetrics` is the object the engine components hold; it owns a
:class:`~repro.obs.registry.MetricsRegistry` (or the shared no-op
``NULL_REGISTRY`` when observability is disabled) and creates one
instrument attribute per canonical name in :mod:`repro.obs.names`.  All
registration happens here — a component never invents a metric name — so
the registry's duplicate-name check plus the name lint test enforce the
"registered exactly once" invariant structurally.
"""

from __future__ import annotations

from typing import Optional

from . import names
from .registry import (
    FSYNC_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    NULL_REGISTRY,
)


class EngineMetrics:
    """All engine instruments, hanging off one registry."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        r = registry if registry is not None else MetricsRegistry()
        self.registry = r
        # --- query path ---------------------------------------------------
        self.queries = r.counter(
            names.QUERIES_TOTAL, "Queries answered, by execution strategy.",
            labels=("strategy",),
        )
        self.query_seconds = r.histogram(
            names.QUERY_SECONDS, "End-to-end query latency.", LATENCY_BUCKETS
        )
        # --- aggregate cache ----------------------------------------------
        self.cache_lookups = r.counter(
            names.CACHE_LOOKUPS_TOTAL,
            "Cache entry lookups, by outcome (hit/miss/recomputed).",
            labels=("outcome",),
        )
        self.cache_entries = r.gauge(
            names.CACHE_ENTRIES, "Live aggregate cache entries."
        )
        self.cache_value_bytes = r.gauge(
            names.CACHE_VALUE_BYTES, "Approximate bytes held by cached values."
        )
        self.cache_profit_per_byte = r.gauge(
            names.CACHE_PROFIT_PER_BYTE,
            "Summed per-entry profit estimate (seconds saved per byte).",
        )
        self.cache_build_seconds = r.histogram(
            names.CACHE_BUILD_SECONDS,
            "Time to build a cache entry's main aggregate on a miss.",
            LATENCY_BUCKETS,
        )
        self.cache_evictions = r.counter(
            names.CACHE_EVICTIONS_TOTAL, "Cache entries evicted or dropped."
        )
        self.cache_maintenance_runs = r.counter(
            names.CACHE_MAINTENANCE_RUNS_TOTAL,
            "Incremental entry maintenance runs applied at delta merges.",
        )
        self.main_compensation_seconds = r.histogram(
            names.MAIN_COMPENSATION_SECONDS,
            "Per-query time subtracting invalidated main rows.",
            LATENCY_BUCKETS,
        )
        self.delta_compensation_seconds = r.histogram(
            names.DELTA_COMPENSATION_SECONDS,
            "Per-query time aggregating the surviving compensation subjoins.",
            LATENCY_BUCKETS,
        )
        self.compensated_rows = r.counter(
            names.COMPENSATED_ROWS_TOTAL,
            "Invalidated main rows compensated across all queries.",
        )
        self.silent_rows_cancelled = r.counter(
            names.CACHE_SILENT_ROWS_CANCELLED_TOTAL,
            "Invalidated main rows left uncompensated because their visible "
            "successor changed no column the query reads.",
        )
        self.delta_memo_lookups = r.counter(
            names.DELTA_MEMO_LOOKUPS_TOTAL,
            "Delta-compensation memo routing decisions, by outcome "
            "(hit = incremental reuse, miss = full rebuild, bypass).",
            labels=("outcome",),
        )
        self.delta_memo_rows_saved = r.counter(
            names.DELTA_MEMO_ROWS_SAVED_TOTAL,
            "Covered delta-prefix rows incremental compensation skipped.",
        )
        self.cache_refresh = r.counter(
            names.CACHE_REFRESH_TOTAL,
            "Proactive cache-entry refreshes, by routed action "
            "(advance / rebuild / skip).",
            labels=("action",),
        )
        self.cache_result_reuse = r.counter(
            names.CACHE_RESULT_REUSE_TOTAL,
            "Pure hits answered from an entry's remembered output order "
            "(no state copy, no compensation, no sort).",
        )
        # --- planner / plan cache -----------------------------------------
        self.plan_build_seconds = r.histogram(
            names.PLAN_BUILD_SECONDS,
            "Time to bind and lower a statement to a physical plan.",
            LATENCY_BUCKETS,
        )
        self.plan_cache_lookups = r.counter(
            names.PLAN_CACHE_LOOKUPS_TOTAL,
            "Plan cache lookups, by outcome (hit/miss/invalidated).",
            labels=("outcome",),
        )
        self.plan_cache_entries = r.gauge(
            names.PLAN_CACHE_ENTRIES, "Live cached physical plans."
        )
        self.plan_cache_evictions = r.counter(
            names.PLAN_CACHE_EVICTIONS_TOTAL,
            "Cached plans dropped (invalidated, evicted, or cleared).",
        )
        # --- subjoin execution / pruning ----------------------------------
        self.subjoins_evaluated = r.counter(
            names.SUBJOINS_EVALUATED_TOTAL, "Subjoins handed to the executor."
        )
        self.subjoins_empty = r.counter(
            names.SUBJOINS_EMPTY_TOTAL,
            "Evaluated subjoins that turned out empty (scan/join/filter).",
        )
        self.subjoins_pruned = r.counter(
            names.SUBJOINS_PRUNED_TOTAL,
            "Compensation subjoins skipped, by prune reason "
            "(empty/logical/dynamic).",
            labels=("reason",),
        )
        self.pushdown_filters = r.counter(
            names.PUSHDOWN_FILTERS_TOTAL,
            "Join-predicate pushdown filters attached to subjoin scans.",
        )
        self.rows_aggregated = r.counter(
            names.ROWS_AGGREGATED_TOTAL, "Rows folded into grouped aggregates."
        )
        # --- storage / durability -----------------------------------------
        self.storage_tier_bytes = r.gauge(
            names.STORAGE_TIER_BYTES,
            "Approximate table bytes by storage tier "
            "(hot/cold_resident/cold_mapped).",
            labels=("tier",),
        )
        self.storage_demotions = r.counter(
            names.STORAGE_DEMOTIONS_TOTAL,
            "Main partitions demoted to the memory-mapped cold tier.",
        )
        self.pruning_synopsis_skips = r.counter(
            names.PRUNING_SYNOPSIS_SKIPS_TOTAL,
            "Pruned subjoins involving a mapped cold partition — cold "
            "scans avoided purely from the resident synopsis.",
        )
        self.merge_seconds = r.histogram(
            names.MERGE_SECONDS, "Delta-merge duration per table.", LATENCY_BUCKETS
        )
        self.merge_rows_moved = r.counter(
            names.MERGE_ROWS_MOVED_TOTAL, "Delta rows moved into new mains."
        )
        self.merge_rows_dropped = r.counter(
            names.MERGE_ROWS_DROPPED_TOTAL, "Invalidated rows dropped by merges."
        )
        self.wal_appends = r.counter(
            names.WAL_APPENDS_TOTAL, "Records appended to the write-ahead log."
        )
        self.wal_bytes = r.counter(
            names.WAL_BYTES_TOTAL, "Bytes appended to the write-ahead log."
        )
        self.wal_fsync_seconds = r.histogram(
            names.WAL_FSYNC_SECONDS,
            "fsync latency of durable WAL appends.",
            FSYNC_BUCKETS,
        )
        # --- resource governor --------------------------------------------
        self.governor_timeouts = r.counter(
            names.GOVERNOR_TIMEOUTS_TOTAL,
            "Queries aborted because their deadline expired.",
        )
        self.governor_cancellations = r.counter(
            names.GOVERNOR_CANCELLATIONS_TOTAL,
            "Queries aborted through an explicit CancelToken.",
        )
        self.governor_sheds = r.counter(
            names.GOVERNOR_SHEDS_TOTAL,
            "Cache state shed under memory pressure, by kind "
            "(cold/memo/entry/plan).",
            labels=("kind",),
        )
        self.governor_shed_bytes = r.counter(
            names.GOVERNOR_SHED_BYTES_TOTAL,
            "Approximate bytes freed by memory-budget shedding.",
        )
        self.governor_retries = r.counter(
            names.GOVERNOR_RETRIES_TOTAL,
            "Transient I/O failures absorbed by retry/backoff, by point.",
            labels=("point",),
        )
        self.governor_writes_rejected = r.counter(
            names.GOVERNOR_WRITES_REJECTED_TOTAL,
            "Mutations rejected while the database was WAL-degraded.",
        )
        self.governor_degraded_queries = r.counter(
            names.GOVERNOR_DEGRADED_QUERIES_TOTAL,
            "Queries answered from base tables due to cache degradation, "
            "by reason (breaker_open/fallback).",
            labels=("reason",),
        )
        self.governor_breaker_state = r.gauge(
            names.GOVERNOR_BREAKER_STATE,
            "Circuit breaker state (0=closed, 1=open, 2=half_open).",
            labels=("breaker",),
        )
        self.governor_breaker_transitions = r.counter(
            names.GOVERNOR_BREAKER_TRANSITIONS_TOTAL,
            "Circuit breaker state transitions, by breaker and new state.",
            labels=("breaker", "state"),
        )
        self.governor_tracked_bytes = r.gauge(
            names.GOVERNOR_TRACKED_BYTES,
            "Bytes currently tracked against the memory budget.",
        )

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """False when backed by the no-op registry."""
        return self.registry.enabled

    @classmethod
    def disabled(cls) -> "EngineMetrics":
        """The zero-cost bundle: every instrument is a shared no-op."""
        return cls(NULL_REGISTRY)
