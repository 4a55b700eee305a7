"""Canonical metric names of the engine's observability layer.

Every metric the engine registers lives here, as one constant, so that

* the name is spelled exactly once in the source tree (a lint test greps
  for stray ``repro_…`` literals outside this module);
* :class:`~repro.obs.instruments.EngineMetrics` can assert at construction
  time that each name is registered exactly once;
* EXPERIMENTS.md can document the full list without chasing call sites.

Naming follows the Prometheus conventions: ``_total`` suffix for
counters, ``_seconds``/``_bytes`` units, no ``repro_``-prefix reuse for
different kinds.
"""

from __future__ import annotations

# --- query path ------------------------------------------------------------
QUERIES_TOTAL = "repro_queries_total"
QUERY_SECONDS = "repro_query_seconds"

# --- aggregate cache -------------------------------------------------------
CACHE_LOOKUPS_TOTAL = "repro_cache_lookups_total"
CACHE_ENTRIES = "repro_cache_entries"
CACHE_VALUE_BYTES = "repro_cache_value_bytes"
CACHE_PROFIT_PER_BYTE = "repro_cache_profit_per_byte"
CACHE_BUILD_SECONDS = "repro_cache_entry_build_seconds"
CACHE_EVICTIONS_TOTAL = "repro_cache_evictions_total"
CACHE_MAINTENANCE_RUNS_TOTAL = "repro_cache_maintenance_runs_total"
MAIN_COMPENSATION_SECONDS = "repro_main_compensation_seconds"
DELTA_COMPENSATION_SECONDS = "repro_delta_compensation_seconds"
COMPENSATED_ROWS_TOTAL = "repro_compensated_rows_total"
CACHE_SILENT_ROWS_CANCELLED_TOTAL = "repro_cache_silent_rows_cancelled_total"
DELTA_MEMO_LOOKUPS_TOTAL = "repro_delta_memo_lookups_total"
DELTA_MEMO_ROWS_SAVED_TOTAL = "repro_delta_memo_rows_saved_total"
CACHE_REFRESH_TOTAL = "repro_cache_refresh_total"
CACHE_RESULT_REUSE_TOTAL = "repro_cache_result_reuse_total"

# --- planner / plan cache --------------------------------------------------
PLAN_BUILD_SECONDS = "repro_plan_build_seconds"
PLAN_CACHE_LOOKUPS_TOTAL = "repro_plan_cache_lookups_total"
PLAN_CACHE_ENTRIES = "repro_plan_cache_entries"
PLAN_CACHE_EVICTIONS_TOTAL = "repro_plan_cache_evictions_total"

# --- subjoin execution / pruning ------------------------------------------
SUBJOINS_EVALUATED_TOTAL = "repro_subjoins_evaluated_total"
SUBJOINS_EMPTY_TOTAL = "repro_subjoins_empty_total"
SUBJOINS_PRUNED_TOTAL = "repro_subjoins_pruned_total"
PUSHDOWN_FILTERS_TOTAL = "repro_pushdown_filters_total"
ROWS_AGGREGATED_TOTAL = "repro_rows_aggregated_total"

# --- storage / durability --------------------------------------------------
STORAGE_TIER_BYTES = "repro_storage_tier_bytes"
STORAGE_DEMOTIONS_TOTAL = "repro_storage_demotions_total"
PRUNING_SYNOPSIS_SKIPS_TOTAL = "repro_pruning_synopsis_skips_total"
MERGE_SECONDS = "repro_merge_seconds"
MERGE_ROWS_MOVED_TOTAL = "repro_merge_rows_moved_total"
MERGE_ROWS_DROPPED_TOTAL = "repro_merge_rows_dropped_total"
WAL_APPENDS_TOTAL = "repro_wal_appends_total"
WAL_BYTES_TOTAL = "repro_wal_bytes_total"
WAL_FSYNC_SECONDS = "repro_wal_fsync_seconds"

# --- resource governor -----------------------------------------------------
GOVERNOR_TIMEOUTS_TOTAL = "repro_governor_timeouts_total"
GOVERNOR_CANCELLATIONS_TOTAL = "repro_governor_cancellations_total"
GOVERNOR_SHEDS_TOTAL = "repro_governor_sheds_total"
GOVERNOR_SHED_BYTES_TOTAL = "repro_governor_shed_bytes_total"
GOVERNOR_RETRIES_TOTAL = "repro_governor_retries_total"
GOVERNOR_WRITES_REJECTED_TOTAL = "repro_governor_writes_rejected_total"
GOVERNOR_DEGRADED_QUERIES_TOTAL = "repro_governor_degraded_queries_total"
GOVERNOR_BREAKER_STATE = "repro_governor_breaker_state"
GOVERNOR_BREAKER_TRANSITIONS_TOTAL = "repro_governor_breaker_transitions_total"
GOVERNOR_TRACKED_BYTES = "repro_governor_tracked_bytes"

#: Every canonical metric name, for the uniqueness/coverage lint.
ALL_NAMES = tuple(
    value
    for key, value in sorted(globals().items())
    if key.isupper() and isinstance(value, str) and key != "ALL_NAMES"
)
