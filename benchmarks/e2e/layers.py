"""Per-layer metrics of a traced run, and the probes that complete them.

Times come from spans (host-normalised through each request's block
factor); counts come from ``result.report``, ``counters_snapshot()`` and
``metrics_snapshot()`` and repeat exactly for one seed — except on
``ch_cache_pressure``, whose profit eviction ranks entries by *measured*
build time.  The probes run on the final state, after everything gated has
been read off, because they clear caches and run foreign strategies.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, Tuple

from repro import Database, ExecutionStrategy
from repro.query.sql import clear_parse_cache, parse_sql
from repro.workloads import (
    AggregateCacheSystem,
    EagerViewSystem,
    ErpConfig,
    ErpWorkload,
    run_mixed_workload,
)

from hostcal import clocked
from measure import percentile
from workloads import QuantumRandom

Metric = Tuple[float, str]

PROBE_REPS = 3
FIG6_OPERATIONS = 300
FIG6_INSERT_RATIO = 0.9
FIG6_PRELOAD_OBJECTS = 300
TXN_PROBE_PAIRS = 200


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _timed(fn: Callable[[], object]) -> float:
    """CPU seconds of one call."""
    return clocked(fn)[1]


# -----------------------------------------------------------------------------
# probes
# -----------------------------------------------------------------------------
def probe_parse_and_plan(db: Database, statements: List[str], clock) -> Dict[str, float]:
    """Median microseconds to parse / plan one statement, cold and cached."""

    def measure():
        parse, parse_cached, build, cached = [], [], [], []
        for sql in statements:
            clear_parse_cache()
            parse.append(_timed(lambda: parse_sql(sql)))
            parse_cached.append(_timed(lambda: parse_sql(sql)))
            db.plan_cache.clear()
            build.append(_timed(lambda: db.cache.plan_for(sql)))
            cached.append(_timed(lambda: db.cache.plan_for(sql)))
        return parse, parse_cached, build, cached

    (parse, parse_cached, build, cached), _cpu, _wall, scale = clock.bracketed(measure)
    return {
        "query.sql.parse_us": statistics.median(parse) * scale * 1e6,
        "query.sql.parse_cached_us": statistics.median(parse_cached) * scale * 1e6,
        "plan.build_us": statistics.median(build) * scale * 1e6,
        "plan.cached_us": statistics.median(cached) * scale * 1e6,
    }


def probe_txn(db: Database, clock) -> float:
    """Median microseconds of an empty begin/commit pair."""

    def pair():
        db.begin().commit()

    walls, _cpu, _wall, scale = clock.bracketed(
        lambda: [_timed(pair) for _ in range(TXN_PROBE_PAIRS)]
    )
    return statistics.median(walls) * scale * 1e6


def probe_strategies(db: Database, statements: List[str], clock) -> Dict[str, float]:
    """Per-statement interleaved medians of the default strategy, UNCACHED
    and CACHED_NO_PRUNING on the final state (the shape of Fig. 9)."""
    strategies = (
        None,
        ExecutionStrategy.UNCACHED,
        ExecutionStrategy.CACHED_NO_PRUNING,
    )

    def measure():
        walls = {(sql, s): [] for sql in statements for s in strategies}
        for sql in statements:
            for strategy in strategies:
                db.query(sql, strategy=strategy)  # each strategy's entry exists
        for _rep in range(PROBE_REPS):
            for sql in statements:
                for strategy in strategies:
                    walls[(sql, strategy)].append(
                        _timed(lambda: db.query(sql, strategy=strategy))
                    )
        return {key: statistics.median(values) for key, values in walls.items()}

    medians, _cpu, _wall, scale = clock.bracketed(measure)
    uncached = ExecutionStrategy.UNCACHED
    no_pruning = ExecutionStrategy.CACHED_NO_PRUNING
    return {
        "query.executor.uncached_ms": statistics.median(
            medians[(sql, uncached)] for sql in statements
        )
        * scale
        * 1e3,
        "paper.fig9.speedup_vs_uncached": statistics.median(
            medians[(sql, uncached)] / medians[(sql, None)] for sql in statements
        ),
        "paper.fig9.speedup_vs_no_pruning": statistics.median(
            medians[(sql, no_pruning)] / medians[(sql, None)] for sql in statements
        ),
    }


def probe_fig6(seed: int) -> float:
    """Aggregate cache over eager view maintenance, total seconds, on a
    300-op slice of the ERP write-heavy mix (Fig. 6 at 90 % inserts; below 1
    means the cache wins).  Both systems replay the same rows."""
    totals = {}
    for system_type in (AggregateCacheSystem, EagerViewSystem):
        db = Database()
        try:
            workload = ErpWorkload(
                db,
                ErpConfig(items_per_header=10, seed=seed),
                install_mds=False,  # items are inserted without their headers
            )
            workload._rng = QuantumRandom(seed)
            rows = (("Item", items) for _header, items in workload.object_stream())
            for _ in range(FIG6_PRELOAD_OBJECTS):
                for row in next(rows)[1]:
                    db.insert("Item", row)
            db.merge()
            system = system_type(db, workload.single_table_sql())
            system.read()
            result = run_mixed_workload(
                system, rows, FIG6_OPERATIONS, FIG6_INSERT_RATIO, seed=seed
            )
            totals[system_type] = result.total_time
        finally:
            db.close()
    return totals[AggregateCacheSystem] / totals[EagerViewSystem]


# -----------------------------------------------------------------------------
def per_layer(run, ctx, warm_state, main_end, durable) -> Dict[str, Metric]:
    """Every per-layer metric of one traced run, as ``name -> (value, unit)``."""
    db = ctx.db
    clock = run.clock
    spans = run.log.totals()

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0.0)

    counts = run.read_counts
    traced_reads = len(run.seconds_of(("read",), ("main",), traced=(True,)))
    merges = len(run.seconds_of(("merge",)))
    refreshes = run.seconds_of(("refresh",))

    def over_main(key: str) -> float:
        return main_end[key] - warm_state[key]

    plan_lookups = sum(over_main(f"plan_{o}") for o in ("hit", "miss", "invalidated"))
    entry_lookups = over_main("hits") + over_main("misses")
    maintenance_s = span("core.maintenance.before_merge", "total_s") + span(
        "core.maintenance.after_merge", "total_s"
    )
    storage_merge_s = span("merge", "self_s")
    inserts = span("storage.table.insert", "count")

    def per_op(traced: bool) -> float:
        values = run.seconds_of(("read", "write"), ("main",), traced=(traced,))
        return statistics.mean(values)

    cal = clock.samples
    out: Dict[str, Metric] = {
        "plan.cache_hit_ratio": (_ratio(over_main("plan_hit"), plan_lookups), "ratio"),
        "plan.star_join.subjoins_excluded_per_read": (
            _ratio(counts.subjoins_excluded, counts.reads),
            "count",
        ),
        "core.manager.lookup_self_us": (
            _ratio(span("cache_lookup", "self_s"), traced_reads) * 1e6,
            "us",
        ),
        "core.manager.entry_hit_ratio": (_ratio(over_main("hits"), entry_lookups), "ratio"),
        "core.manager.entry_build_ms": (
            _ratio(span("build_entry", "total_s"), span("build_entry", "count")) * 1e3,
            "ms",
        ),
        "core.manager.evictions": (main_end["evictions"], "count"),
        "core.manager.entries": (main_end["entries"], "count"),
        "core.manager.value_bytes": (main_end["value_bytes"], "B"),
        "core.pruning.subjoins_enumerated_per_read": (
            _ratio(counts.subjoins_enumerated, counts.reads),
            "count",
        ),
        "core.pruning.pruned_ratio": (
            _ratio(counts.subjoins_pruned, counts.subjoins_enumerated),
            "ratio",
        ),
        "core.pruning.pushdown_filters_per_read": (
            _ratio(counts.pushdown_filters, counts.reads),
            "count",
        ),
        "core.delta_compensation.self_ms_per_read": (
            _ratio(span("delta_compensation", "self_s"), traced_reads) * 1e3,
            "ms",
        ),
        "core.delta_memo.incremental_ratio": (
            _ratio(counts.incremental_reads, counts.compensated_reads),
            "ratio",
        ),
        "core.delta_memo.rows_saved_per_read": (
            _ratio(counts.memo_rows_saved, counts.reads),
            "rows",
        ),
        "core.recycler.hit_ratio": (
            _ratio(counts.recycler_hits, counts.recycler_hits + counts.recycler_misses),
            "ratio",
        ),
        "core.recycler.bytes": (run.recycler_bytes_peak, "B"),
        "core.main_compensation.ms_per_read": (
            _ratio(span("main_compensation", "total_s"), traced_reads) * 1e3,
            "ms",
        ),
        "core.main_compensation.invalidated_rows": (counts.invalidated_rows, "rows"),
        "core.maintenance.refresh_ms": (
            statistics.mean(refreshes) * 1e3 if refreshes else 0.0,
            "ms",
        ),
        "core.maintenance.refresh_advances": (over_main("refresh_advances"), "count"),
        "core.maintenance.refresh_rebuilds": (over_main("refresh_rebuilds"), "count"),
        "core.maintenance.merge_entry_ms": (_ratio(maintenance_s, merges) * 1e3, "ms"),
        "query.executor.subjoin_ms_per_read": (
            _ratio(span("subjoin", "total_s"), traced_reads) * 1e3,
            "ms",
        ),
        "query.executor.rows_scanned_per_read": (
            _ratio(counts.rows_scanned, counts.reads),
            "rows",
        ),
        "storage.table.insert_us_per_row": (
            _ratio(span("storage.table.insert", "total_s"), inserts) * 1e6,
            "us",
        ),
        "storage.merge.rows_per_s": (_ratio(run.merged_rows, storage_merge_s), "rows/s"),
        "storage.merge.s_total": (storage_merge_s, "s"),
        "storage.table.delta_rows_at_read": (
            statistics.mean(run.delta_rows_at_read),
            "rows",
        ),
        "storage.bytes_main": (main_end["bytes_main"], "B"),
        "storage.bytes_delta": (main_end["bytes_delta"], "B"),
        "reliability.wal.bytes_per_row": (durable["wal_log_bytes_per_row"], "B/row"),
        "reliability.wal.fsyncs_per_txn": (durable["fsyncs_per_txn"], "count"),
        "reliability.wal.append_p50_us": (durable["append_p50_us"], "us"),
        "reliability.checkpoint.write_s": (durable["checkpoint_write_s"], "s"),
        "reliability.recovery.recover_s": (durable["recover_s"], "s"),
        "reliability.recovery.records_replayed": (durable["records_replayed"], "count"),
        "obs.trace_overhead_pct": ((per_op(True) / per_op(False) - 1.0) * 100.0, "%"),
        "host.cal_ms_p50": (percentile(cal, 50), "ms"),
        "host.cal_spread": (percentile(cal, 95) / percentile(cal, 5), "ratio"),
        "host.wall_over_cpu": (run.wall_seconds / run.cpu_seconds, "ratio"),
    }
    # The probes disturb the caches, so they come after everything above.
    out["txn.begin_commit_us"] = (probe_txn(db, clock), "us")
    for name, value in probe_strategies(db, ctx.probe_statements, clock).items():
        out[name] = (value, "ms" if name.endswith("_ms") else "ratio")
    for name, value in probe_parse_and_plan(db, ctx.statements, clock).items():
        out[name] = (value, "us")
    out["paper.fig6.cache_over_eager_ratio"] = (probe_fig6(run.seed), "ratio")
    return out
