"""Parallel subjoin execution: bit-identical results, stats, build sides."""

import pytest

from repro.errors import QueryError
from repro.query import (
    AggFunc,
    AggregateQuery,
    AggregateSpec,
    Col,
    ComboSpec,
    ExecutionStats,
    JoinEdge,
    ParallelConfig,
    QueryExecutor,
    TableRef,
    parse_sql,
)
from repro.query.parallel import MEMO_PRIVATE, MEMO_SHARED, default_workers
from repro.storage import Catalog, ColumnDef, Schema, SqlType, merge_table
from repro.txn import TransactionManager


@pytest.fixture
def env():
    """Header/Item catalog with deliberately *asymmetric* sizes: the item
    table dwarfs the header table, so build-side selection matters."""
    catalog = Catalog()
    txn = TransactionManager()
    header = catalog.create_table(
        "header",
        Schema(
            [
                ColumnDef("hid", SqlType.INT, nullable=False),
                ColumnDef("year", SqlType.INT),
            ],
            primary_key="hid",
        ),
    )
    item = catalog.create_table(
        "item",
        Schema(
            [
                ColumnDef("iid", SqlType.INT, nullable=False),
                ColumnDef("hid", SqlType.INT),
                ColumnDef("cat", SqlType.TEXT),
                ColumnDef("price", SqlType.FLOAT),
            ],
            primary_key="iid",
        ),
    )
    for hid in range(1, 5):
        header.insert({"hid": hid, "year": 2013 + hid % 2}, txn.begin().tid)
    iid = 0
    for hid in range(1, 5):
        for k in range(12):
            iid += 1
            item.insert(
                {
                    "iid": iid,
                    "hid": hid,
                    "cat": "ABC"[k % 3],
                    "price": 1.5 * k + hid * 0.25,
                },
                txn.begin().tid,
            )
    merge_table(header, txn.latest_tid)
    merge_table(item, txn.latest_tid)
    # Delta rows on both tables so all four subjoins are non-trivial.  The
    # item side stays strictly larger than the header side in *every*
    # main/delta pairing (48/6 item rows vs. 4/1 header rows).
    header.insert({"hid": 5, "year": 2015}, txn.begin().tid)
    for k in range(6):
        iid += 1
        item.insert(
            {"iid": iid, "hid": 1 + k % 5, "cat": "AB"[k % 2], "price": 3.25 * k},
            txn.begin().tid,
        )
    return catalog, txn


def profit_query():
    # Item deliberately FIRST in the FROM list: the legacy planner seeded
    # the probe side from FROM order, which only *happened* to be right.
    return AggregateQuery(
        tables=[TableRef("item", "i"), TableRef("header", "h")],
        aggregates=[
            AggregateSpec(AggFunc.SUM, Col("price", "i"), "profit"),
            AggregateSpec(AggFunc.AVG, Col("price", "i"), "avg_price"),
            AggregateSpec(AggFunc.COUNT, None, "n"),
        ],
        group_by=[Col("cat", "i")],
        join_edges=[JoinEdge("h", "hid", "i", "hid")],
    )


def header_first_query():
    query = profit_query()
    return AggregateQuery(
        tables=[TableRef("header", "h"), TableRef("item", "i")],
        aggregates=query.aggregates,
        group_by=query.group_by,
        join_edges=query.join_edges,
    )


PARALLEL = ParallelConfig(n_workers=4, min_combos=2, min_rows=0)


class TestBitIdentical:
    @pytest.mark.parametrize("memo", [MEMO_SHARED, MEMO_PRIVATE])
    def test_parallel_equals_serial_bitwise(self, env, memo):
        catalog, txn = env
        config = ParallelConfig(n_workers=4, min_combos=2, min_rows=0, memo=memo)
        serial = QueryExecutor(catalog)
        parallel = QueryExecutor(catalog, parallel=config)
        try:
            a = serial.execute(profit_query(), txn.latest_tid)
            b = parallel.execute(profit_query(), txn.latest_tid)
        finally:
            parallel.close()
        # finalize() preserves group insertion order, so bit-identical
        # execution implies *identical lists*, not just equal sets.
        assert a.finalize() == b.finalize()

    def test_three_way_join_identical(self, env):
        catalog, txn = env
        catalog.create_table(
            "cat_dim",
            Schema(
                [
                    ColumnDef("cat", SqlType.TEXT, nullable=False),
                    ColumnDef("label", SqlType.TEXT),
                ],
                primary_key="cat",
            ),
        )
        dim = catalog.table("cat_dim")
        for cat, label in [("A", "Alpha"), ("B", "Beta"), ("C", "Gamma")]:
            dim.insert({"cat": cat, "label": label}, txn.begin().tid)
        query = parse_sql(
            "SELECT d.label, SUM(i.price) AS s, COUNT(*) AS n "
            "FROM item i, header h, cat_dim d "
            "WHERE h.hid = i.hid AND i.cat = d.cat GROUP BY d.label"
        )
        serial = QueryExecutor(catalog)
        parallel = QueryExecutor(catalog, parallel=PARALLEL)
        try:
            a = serial.execute(query, txn.latest_tid)
            b = parallel.execute(query, txn.latest_tid)
        finally:
            parallel.close()
        assert a.finalize() == b.finalize()

    def test_explicit_combo_subset_identical(self, env):
        catalog, txn = env
        header = catalog.table("header")
        item = catalog.table("item")
        combos = [
            ComboSpec({"h": header.partition("main"), "i": item.partition("delta")}),
            ComboSpec({"h": header.partition("delta"), "i": item.partition("main")}),
            ComboSpec({"h": header.partition("delta"), "i": item.partition("delta")}),
        ]
        serial = QueryExecutor(catalog)
        parallel = QueryExecutor(catalog, parallel=PARALLEL)
        try:
            a = serial.execute(profit_query(), txn.latest_tid, combos=list(combos))
            b = parallel.execute(profit_query(), txn.latest_tid, combos=list(combos))
        finally:
            parallel.close()
        assert a.finalize() == b.finalize()


class TestStats:
    def test_serial_and_parallel_stats_identical(self, env):
        catalog, txn = env
        serial_stats, parallel_stats = ExecutionStats(), ExecutionStats()
        serial = QueryExecutor(catalog)
        parallel = QueryExecutor(catalog, parallel=PARALLEL)
        try:
            serial.execute(profit_query(), txn.latest_tid, stats=serial_stats)
            parallel.execute(profit_query(), txn.latest_tid, stats=parallel_stats)
        finally:
            parallel.close()
        assert serial_stats.combos_evaluated == parallel_stats.combos_evaluated == 4
        assert serial_stats.combos_empty == parallel_stats.combos_empty
        assert serial_stats.rows_aggregated == parallel_stats.rows_aggregated
        assert serial_stats.subjoins == parallel_stats.subjoins
        assert serial_stats.probe_sides == parallel_stats.probe_sides

    def test_stats_merge_preserves_order(self):
        a = ExecutionStats(1, 0, 10, ["x"], ["h"])
        b = ExecutionStats(2, 1, 5, ["y", "z"], ["i", "i"])
        a.merge(b)
        assert a.combos_evaluated == 3
        assert a.combos_empty == 1
        assert a.rows_aggregated == 15
        assert a.subjoins == ["x", "y", "z"]
        assert a.probe_sides == ["h", "i", "i"]


class TestCachePipelineParity:
    """Whole-database check: the cache pipeline's per-query report —
    executor stats and PruneReport counters — is identical whether the
    compensation subjoins run serially or on a worker pool."""

    def test_report_identical_serial_vs_parallel(self):
        import dataclasses

        from repro import ExecutionStrategy
        from tests.conftest import HEADER_ITEM_SQL, load_erp, make_erp_db

        reports = {}
        results = {}
        for label, kwargs in (
            ("serial", {}),
            ("parallel", {"parallel": PARALLEL}),
        ):
            db = make_erp_db(**kwargs)
            load_erp(db, n_headers=8, merge=True)
            load_erp(db, n_headers=3, start_hid=100, merge=False)
            db.query(HEADER_ITEM_SQL)  # create the cache entry
            results[label] = db.query(
                HEADER_ITEM_SQL, strategy=ExecutionStrategy.CACHED_FULL_PRUNING
            )
            reports[label] = db.last_report
            db.close()
        assert results["serial"].rows == results["parallel"].rows
        serial, parallel = reports["serial"], reports["parallel"]
        assert dataclasses.asdict(serial.prune) == dataclasses.asdict(parallel.prune)
        s_stats, p_stats = serial.executor_stats, parallel.executor_stats
        assert s_stats.combos_evaluated == p_stats.combos_evaluated
        assert s_stats.combos_empty == p_stats.combos_empty
        assert s_stats.rows_aggregated == p_stats.rows_aggregated
        assert s_stats.subjoins == p_stats.subjoins
        assert s_stats.probe_sides == p_stats.probe_sides
        assert serial.cache_hits == parallel.cache_hits


class TestBuildSideSelection:
    def test_probe_side_is_largest_scan(self, env):
        catalog, txn = env
        stats, spans = ExecutionStats(), []
        QueryExecutor(catalog).execute(
            header_first_query(), txn.latest_tid, stats=stats, span_sink=spans
        )
        # Regression: the legacy planner probed "h" (first in FROM), building
        # every hash table on the far larger item side.  The item scan is
        # larger in every subjoin here, so "i" must probe throughout —
        # semi-join reduction thins the inputs but never re-plans the join.
        assert stats.probe_sides == ["i"] * stats.combos_evaluated
        by_label = dict(zip(stats.subjoins, spans))
        for label, span in by_label.items():
            scanned = span.attrs["rows_scanned"]
            joined = span.attrs.get("rows_after_reduction", scanned)
            # No hash table on a side larger than the probe side's scan.
            assert joined["h"] <= scanned["h"] <= scanned["i"], label
        # The lone delta header (hid 5) matches no main item: the item side
        # reduces to nothing and the subjoin is empty before any hash table.
        empty = by_label["(h:delta, i:main)"].attrs
        assert empty["rows_scanned"] == {"h": 1, "i": 48}
        assert empty["rows_after_reduction"] == {"h": 1, "i": 0}
        assert empty["status"] == "empty"

    def test_from_order_does_not_change_plan(self, env):
        catalog, txn = env
        s1, s2 = ExecutionStats(), ExecutionStats()
        executor = QueryExecutor(catalog)
        executor.execute(profit_query(), txn.latest_tid, stats=s1)
        executor.execute(header_first_query(), txn.latest_tid, stats=s2)
        assert s1.probe_sides == s2.probe_sides
        # The combination order follows FROM; each subjoin's plan must not.
        assert dict(zip(s1.subjoins, s1.probe_sides)) == dict(
            zip(s2.subjoins, s2.probe_sides)
        )

    def test_results_unchanged_by_build_side(self, env):
        catalog, txn = env
        a = QueryExecutor(catalog).execute(profit_query(), txn.latest_tid)
        b = QueryExecutor(catalog).execute(header_first_query(), txn.latest_tid)
        assert dict(
            (row[0], row[1:]) for row in a.finalize()
        ) == dict((row[0], row[1:]) for row in b.finalize())


class TestParallelConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelConfig(n_workers=0)
        with pytest.raises(ValueError):
            ParallelConfig(memo="bogus")

    def test_should_parallelize_gating(self):
        config = ParallelConfig(n_workers=4, min_combos=4, min_rows=100)
        assert config.should_parallelize(4, 100)
        assert not config.should_parallelize(3, 100)  # too few combos
        assert not config.should_parallelize(4, 99)  # too few rows
        assert not ParallelConfig(n_workers=1).should_parallelize(100, 10**9)

    def test_auto_uses_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_N_WORKERS", "3")
        assert default_workers() == 3
        assert ParallelConfig.auto().n_workers == 3
        monkeypatch.setenv("REPRO_N_WORKERS", "junk")
        assert default_workers() >= 1

    def test_serial_fallback_used_below_thresholds(self, env):
        catalog, txn = env
        # min_rows far above the fixture's size: the pool must never start.
        config = ParallelConfig(n_workers=4, min_rows=10**9)
        executor = QueryExecutor(catalog, parallel=config)
        grouped = executor.execute(profit_query(), txn.latest_tid)
        assert executor._pool is None  # serial fallback: no pool created
        reference = QueryExecutor(catalog).execute(profit_query(), txn.latest_tid)
        assert grouped.finalize() == reference.finalize()


class TestPoolLifecycle:
    def test_close_is_idempotent_and_recoverable(self, env):
        catalog, txn = env
        executor = QueryExecutor(catalog, parallel=PARALLEL)
        executor.execute(profit_query(), txn.latest_tid)
        assert executor._pool is not None
        executor.close()
        executor.close()
        assert executor._pool is None
        # Executing again transparently recreates the pool.
        grouped = executor.execute(profit_query(), txn.latest_tid)
        assert grouped.group_count() == 3
        executor.close()

    def test_per_call_override(self, env):
        catalog, txn = env
        executor = QueryExecutor(catalog)  # serial by default
        grouped = executor.execute(
            profit_query(), txn.latest_tid, parallel=PARALLEL
        )
        try:
            reference = executor.execute(profit_query(), txn.latest_tid)
            assert grouped.finalize() == reference.finalize()
        finally:
            executor.close()

    def test_missing_partition_errors_in_parallel_mode(self, env):
        catalog, txn = env
        item = catalog.table("item")
        bad = [
            ComboSpec({"i": item.partition("main")}),  # "h" missing
            ComboSpec({"i": item.partition("delta")}),
        ]
        executor = QueryExecutor(catalog, parallel=PARALLEL)
        try:
            with pytest.raises(QueryError, match="misses partitions"):
                executor.execute(profit_query(), txn.latest_tid, combos=bad)
        finally:
            executor.close()
