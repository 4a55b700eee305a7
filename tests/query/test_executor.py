"""Integration-style tests for the partition-aware executor."""

import pytest

from repro.errors import QueryCancelled, QueryError
from repro.governor import CancelToken
from repro.query import executor as executor_module
from repro.query import (
    AggFunc,
    AggregateQuery,
    AggregateSpec,
    Cmp,
    Col,
    ComboSpec,
    ExecutionStats,
    JoinEdge,
    Lit,
    OrderItem,
    QueryExecutor,
    QueryResult,
    TableRef,
    all_partition_combos,
    main_only_combos,
    parse_sql,
)
from repro.storage import Catalog, ColumnDef, Schema, SqlType, merge_table
from repro.txn import TransactionManager


@pytest.fixture
def env():
    """Header/Item/Category catalog with data split across main and delta."""
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
    # Main contents: 2 headers, 4 items.
    for hid, year in [(1, 2013), (2, 2013)]:
        header.insert({"hid": hid, "year": year}, txn.begin().tid)
    rows = [
        (1, 1, "A", 10.0),
        (2, 1, "B", 20.0),
        (3, 2, "A", 5.0),
        (4, 2, "B", 1.0),
    ]
    for iid, hid, cat, price in rows:
        item.insert({"iid": iid, "hid": hid, "cat": cat, "price": price}, txn.begin().tid)
    merge_table(header, txn.latest_tid)
    merge_table(item, txn.latest_tid)
    # Delta contents: 1 header, 2 items (one joins a main header).
    header.insert({"hid": 3, "year": 2014}, txn.begin().tid)
    item.insert({"iid": 5, "hid": 3, "cat": "A", "price": 100.0}, txn.begin().tid)
    item.insert({"iid": 6, "hid": 1, "cat": "A", "price": 7.0}, txn.begin().tid)
    return catalog, txn


def profit_query(year=None):
    filters = []
    if year is not None:
        filters.append(Cmp("=", Col("year", "h"), Lit(year)))
    return AggregateQuery(
        tables=[TableRef("header", "h"), TableRef("item", "i")],
        aggregates=[
            AggregateSpec(AggFunc.SUM, Col("price", "i"), "profit"),
            AggregateSpec(AggFunc.COUNT, None, "n"),
        ],
        group_by=[Col("cat", "i")],
        join_edges=[JoinEdge("h", "hid", "i", "hid")],
        filters=filters,
    )


class TestSingleTable:
    def test_scan_across_main_and_delta(self, env):
        catalog, txn = env
        query = parse_sql("SELECT cat, COUNT(*) AS n FROM item GROUP BY cat")
        grouped = QueryExecutor(catalog).execute(query, txn.latest_tid)
        rows = dict(grouped.finalize())
        assert rows == {"A": 4, "B": 2}

    def test_filters(self, env):
        catalog, txn = env
        query = parse_sql(
            "SELECT cat, SUM(price) AS s FROM item WHERE price > 5 GROUP BY cat"
        )
        grouped = QueryExecutor(catalog).execute(query, txn.latest_tid)
        rows = dict(grouped.finalize())
        assert rows == {"A": 117.0, "B": 20.0}

    def test_no_group_by(self, env):
        catalog, txn = env
        query = parse_sql("SELECT COUNT(*) AS n FROM item")
        grouped = QueryExecutor(catalog).execute(query, txn.latest_tid)
        assert grouped.finalize() == [(6,)]


class TestJoin:
    def test_two_table_join_all_partitions(self, env):
        catalog, txn = env
        grouped = QueryExecutor(catalog).execute(profit_query(), txn.latest_tid)
        rows = {row[0]: (row[1], row[2]) for row in grouped.finalize()}
        # A: items 1 (10) + 3 (5) + 5 (100) + 6 (7); B: items 2 (20) + 4 (1).
        assert rows["A"] == (122.0, 4)
        assert rows["B"] == (21.0, 2)

    def test_join_with_filter(self, env):
        catalog, txn = env
        grouped = QueryExecutor(catalog).execute(profit_query(2013), txn.latest_tid)
        rows = {row[0]: row[1] for row in grouped.finalize()}
        assert rows == {"A": 22.0, "B": 21.0}

    def test_subjoin_combo_counts(self, env):
        catalog, txn = env
        stats = ExecutionStats()
        QueryExecutor(catalog).execute(profit_query(), txn.latest_tid, stats=stats)
        # 2 tables x {main, delta} = 4 subjoins (Section 2.3.1).
        assert stats.combos_evaluated == 4

    def test_explicit_combo_subset(self, env):
        catalog, txn = env
        header = catalog.table("header")
        item = catalog.table("item")
        combo = ComboSpec(
            {"h": header.partition("main"), "i": item.partition("main")}
        )
        grouped = QueryExecutor(catalog).execute(
            profit_query(), txn.latest_tid, combos=[combo]
        )
        rows = {row[0]: row[1] for row in grouped.finalize()}
        assert rows == {"A": 15.0, "B": 21.0}

    def test_delta_main_cross_combo(self, env):
        catalog, txn = env
        header = catalog.table("header")
        item = catalog.table("item")
        combo = ComboSpec(
            {"h": header.partition("main"), "i": item.partition("delta")}
        )
        grouped = QueryExecutor(catalog).execute(
            profit_query(), txn.latest_tid, combos=[combo]
        )
        # Only item 6 (delta) joins main header 1.
        assert grouped.finalize() == [("A", 7.0, 1)]

    def test_sql_three_way_join(self, env):
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
        dim.insert({"cat": "A", "label": "Alpha"}, txn.begin().tid)
        dim.insert({"cat": "B", "label": "Beta"}, txn.begin().tid)
        query = parse_sql(
            "SELECT d.label, SUM(i.price) AS s "
            "FROM header h, item i, cat_dim d "
            "WHERE h.hid = i.hid AND i.cat = d.cat GROUP BY d.label"
        )
        stats = ExecutionStats()
        grouped = QueryExecutor(catalog).execute(query, txn.latest_tid, stats=stats)
        rows = dict((r[0], r[1]) for r in grouped.finalize())
        assert rows == {"Alpha": 122.0, "Beta": 21.0}
        assert stats.combos_evaluated == 8  # 2^3 subjoins

    def test_visibility_snapshot(self, env):
        catalog, txn = env
        old_snapshot = 6  # before any delta inserts (6 inserts built the mains)
        grouped = QueryExecutor(catalog).execute(profit_query(), old_snapshot)
        rows = {row[0]: row[1] for row in grouped.finalize()}
        assert rows == {"A": 15.0, "B": 21.0}


class TestBinding:
    def test_unknown_column(self, env):
        catalog, txn = env
        query = parse_sql("SELECT SUM(wat) FROM item")
        with pytest.raises(QueryError):
            QueryExecutor(catalog).execute(query, txn.latest_tid)

    def test_ambiguous_column(self, env):
        catalog, txn = env
        query = parse_sql(
            "SELECT SUM(hid) FROM header h, item i WHERE h.hid = i.hid"
        )
        with pytest.raises(QueryError):
            QueryExecutor(catalog).execute(query, txn.latest_tid)

    def test_unqualified_binding(self, env):
        catalog, txn = env
        query = parse_sql(
            "SELECT cat, SUM(price) AS s FROM header h, item i "
            "WHERE h.hid = i.hid AND year = 2013 GROUP BY cat"
        )
        grouped = QueryExecutor(catalog).execute(query, txn.latest_tid)
        assert dict((r[0], r[1]) for r in grouped.finalize()) == {"A": 22.0, "B": 21.0}

    def test_bad_join_edge_column(self, env):
        catalog, txn = env
        query = AggregateQuery(
            tables=[TableRef("header", "h"), TableRef("item", "i")],
            aggregates=[AggregateSpec(AggFunc.COUNT, None, "n")],
            join_edges=[JoinEdge("h", "nope", "i", "hid")],
        )
        with pytest.raises(QueryError):
            QueryExecutor(catalog).execute(query, txn.latest_tid)

    def test_order_by_unknown_output_column(self, env):
        catalog, _ = env
        query = parse_sql(
            "SELECT cat, SUM(price) AS s FROM item GROUP BY cat ORDER BY nope"
        )
        with pytest.raises(QueryError, match="ORDER BY.*nope"):
            QueryExecutor(catalog).bind(query)

    def test_order_by_ambiguous_output_column(self, env):
        catalog, _ = env
        # Group label renamed to collide with the aggregate output: "s" now
        # names two result columns, so ORDER BY s cannot pick one.
        query = AggregateQuery(
            tables=[TableRef("item", "i")],
            aggregates=[AggregateSpec(AggFunc.SUM, Col("price", "i"), "s")],
            group_by=[Col("cat", "i")],
            group_labels=["s"],
            order_by=[OrderItem("s")],
        )
        with pytest.raises(QueryError, match="ambiguous"):
            QueryExecutor(catalog).bind(query)

    def test_having_unknown_output_column(self, env):
        catalog, _ = env
        query = parse_sql(
            "SELECT cat, SUM(price) AS s FROM item GROUP BY cat HAVING zz > 1"
        )
        with pytest.raises(QueryError, match="HAVING.*zz"):
            QueryExecutor(catalog).bind(query)

    def test_having_ambiguous_output_column(self, env):
        catalog, _ = env
        query = AggregateQuery(
            tables=[TableRef("item", "i")],
            aggregates=[AggregateSpec(AggFunc.SUM, Col("price", "i"), "s")],
            group_by=[Col("cat", "i")],
            group_labels=["s"],
            having=Cmp(">", Col("s"), Lit(0)),
        )
        with pytest.raises(QueryError, match="ambiguous"):
            QueryExecutor(catalog).bind(query)

    def test_having_qualified_reference_rejected(self, env):
        catalog, _ = env
        # HAVING addresses output columns, which carry no table alias.
        query = AggregateQuery(
            tables=[TableRef("item", "i")],
            aggregates=[AggregateSpec(AggFunc.SUM, Col("price", "i"), "s")],
            group_by=[Col("cat", "i")],
            having=Cmp(">", Col("s", "i"), Lit(0)),
        )
        with pytest.raises(QueryError, match="HAVING"):
            QueryExecutor(catalog).bind(query)

    def test_valid_order_by_and_having_bind(self, env):
        catalog, txn = env
        query = parse_sql(
            "SELECT cat, SUM(price) AS s FROM item GROUP BY cat "
            "HAVING s > 5 ORDER BY s DESC"
        )
        grouped = QueryExecutor(catalog).execute(query, txn.latest_tid)
        result = QueryResult.from_grouped(query, grouped)
        assert [row[0] for row in result.rows] == ["A", "B"]


@pytest.fixture
def asymmetric_env():
    """Header/Item catalog whose item table dwarfs the header table in every
    main/delta pairing (48/6 item rows vs. 4/1 header rows), so build-side
    selection matters."""
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
    header.insert({"hid": 5, "year": 2015}, txn.begin().tid)
    for k in range(6):
        iid += 1
        item.insert(
            {"iid": iid, "hid": 1 + k % 5, "cat": "AB"[k % 2], "price": 3.25 * k},
            txn.begin().tid,
        )
    return catalog, txn


def item_first_query():
    # Item deliberately FIRST in the FROM list: the legacy planner seeded
    # the probe side from FROM order, which only *happened* to be right.
    query = profit_query()
    return AggregateQuery(
        tables=[TableRef("item", "i"), TableRef("header", "h")],
        aggregates=query.aggregates,
        group_by=query.group_by,
        join_edges=query.join_edges,
    )


class TestBuildSideSelection:
    def test_probe_side_is_largest_scan(self, asymmetric_env):
        catalog, txn = asymmetric_env
        stats, spans = ExecutionStats(), []
        QueryExecutor(catalog).execute(
            profit_query(), txn.latest_tid, stats=stats, span_sink=spans
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

    def test_from_order_does_not_change_plan(self, asymmetric_env):
        catalog, txn = asymmetric_env
        s1, s2 = ExecutionStats(), ExecutionStats()
        executor = QueryExecutor(catalog)
        executor.execute(item_first_query(), txn.latest_tid, stats=s1)
        executor.execute(profit_query(), txn.latest_tid, stats=s2)
        assert s1.probe_sides == s2.probe_sides
        # The combination order follows FROM; each subjoin's plan must not.
        assert dict(zip(s1.subjoins, s1.probe_sides)) == dict(
            zip(s2.subjoins, s2.probe_sides)
        )

    def test_results_unchanged_by_build_side(self, asymmetric_env):
        catalog, txn = asymmetric_env
        a = QueryExecutor(catalog).execute(item_first_query(), txn.latest_tid)
        b = QueryExecutor(catalog).execute(profit_query(), txn.latest_tid)
        assert dict(
            (row[0], row[1:]) for row in a.finalize()
        ) == dict((row[0], row[1:]) for row in b.finalize())

    def test_missing_partition_errors(self, asymmetric_env):
        catalog, txn = asymmetric_env
        item = catalog.table("item")
        bad = [
            ComboSpec({"i": item.partition("main")}),  # "h" missing
            ComboSpec({"i": item.partition("delta")}),
        ]
        with pytest.raises(QueryError, match="misses partitions"):
            QueryExecutor(catalog).execute(profit_query(), txn.latest_tid, combos=bad)


class TestMemos:
    def test_each_partition_is_scanned_once_per_call(self, env, monkeypatch):
        """The four subjoins of a two-table join share their four partition
        scans; a second call scans afresh (memos live for one call)."""
        catalog, txn = env
        scanned = []
        real_scan = executor_module.scan_partition

        def counting_scan(alias, partition, *args):
            scanned.append((alias, partition.name))
            return real_scan(alias, partition, *args)

        monkeypatch.setattr(executor_module, "scan_partition", counting_scan)
        executor = QueryExecutor(catalog)
        executor.execute(profit_query(), txn.latest_tid)
        assert sorted(scanned) == [
            ("h", "delta"), ("h", "main"), ("i", "delta"), ("i", "main")
        ]
        executor.execute(profit_query(), txn.latest_tid)
        assert len(scanned) == 8


class TestCancellation:
    def test_cancel_is_checked_before_each_subjoin(self, env, monkeypatch):
        """A cancel arriving after subjoin 0 was folded stops the query
        before subjoin 1 is computed, and stats cover subjoin 0 only."""
        catalog, txn = env
        token = CancelToken()
        aggregated = []
        real_aggregate = executor_module.aggregate_into

        def aggregate_then_cancel(*args):
            aggregated.append(args)
            folded = real_aggregate(*args)  # the subjoin is in the result now
            token.cancel("after the first subjoin")
            return folded

        monkeypatch.setattr(executor_module, "aggregate_into", aggregate_then_cancel)
        stats = ExecutionStats()
        with pytest.raises(QueryCancelled):
            QueryExecutor(catalog).execute(
                profit_query(), txn.latest_tid, stats=stats, cancel=token
            )
        assert len(aggregated) == 1
        assert stats.subjoins == ["(h:main, i:main)"]

    def test_cancelled_token_computes_nothing(self, env):
        catalog, txn = env
        token = CancelToken()
        token.cancel()
        stats = ExecutionStats()
        with pytest.raises(QueryCancelled):
            QueryExecutor(catalog).execute(
                profit_query(), txn.latest_tid, stats=stats, cancel=token
            )
        assert stats.combos_evaluated == 0


class TestComboHelpers:
    def test_all_partition_combos(self, env):
        catalog, _ = env
        combos = all_partition_combos(profit_query(), catalog)
        assert len(combos) == 4

    def test_main_only_combos(self, env):
        catalog, _ = env
        combos = main_only_combos(profit_query(), catalog)
        assert len(combos) == 1
        assert all(p.kind == "main" for p in combos[0].values())


class TestQueryModelValidation:
    def test_disconnected_join_graph(self):
        with pytest.raises(QueryError):
            AggregateQuery(
                tables=[TableRef("a", "a"), TableRef("b", "b")],
                aggregates=[AggregateSpec(AggFunc.COUNT, None, "n")],
            )

    def test_duplicate_aliases(self):
        with pytest.raises(QueryError):
            AggregateQuery(
                tables=[TableRef("a", "x"), TableRef("b", "x")],
                aggregates=[AggregateSpec(AggFunc.COUNT, None, "n")],
            )

    def test_duplicate_outputs(self):
        with pytest.raises(QueryError):
            AggregateQuery(
                tables=[TableRef("a", "a")],
                aggregates=[
                    AggregateSpec(AggFunc.COUNT, None, "n"),
                    AggregateSpec(AggFunc.SUM, Col("x"), "n"),
                ],
            )

    def test_canonical_key_order_independent(self):
        q1 = profit_query(2013)
        q2 = AggregateQuery(
            tables=[TableRef("item", "i"), TableRef("header", "h")],
            aggregates=q1.aggregates,
            group_by=q1.group_by,
            join_edges=[JoinEdge("i", "hid", "h", "hid")],
            filters=q1.filters,
        )
        assert q1.canonical_key() == q2.canonical_key()


class TestResult:
    def test_from_grouped_with_order(self, env):
        catalog, txn = env
        query = parse_sql(
            "SELECT cat, SUM(price) AS s FROM item GROUP BY cat ORDER BY s DESC"
        )
        grouped = QueryExecutor(catalog).execute(query, txn.latest_tid)
        result = QueryResult.from_grouped(query, grouped)
        assert result.columns == ["cat", "s"]
        assert result.rows[0][0] == "A"  # highest sum first

    def test_default_order_deterministic(self, env):
        catalog, txn = env
        query = parse_sql("SELECT cat, COUNT(*) AS n FROM item GROUP BY cat")
        grouped = QueryExecutor(catalog).execute(query, txn.latest_tid)
        result = QueryResult.from_grouped(query, grouped)
        assert result.column_values("cat") == ["A", "B"]

    def test_limit(self, env):
        catalog, txn = env
        query = parse_sql("SELECT cat, COUNT(*) AS n FROM item GROUP BY cat LIMIT 1")
        grouped = QueryExecutor(catalog).execute(query, txn.latest_tid)
        result = QueryResult.from_grouped(query, grouped)
        assert len(result) == 1

    def test_to_text_and_dicts(self, env):
        catalog, txn = env
        query = parse_sql("SELECT cat, COUNT(*) AS n FROM item GROUP BY cat")
        grouped = QueryExecutor(catalog).execute(query, txn.latest_tid)
        result = QueryResult.from_grouped(query, grouped)
        text = result.to_text()
        assert "cat" in text and "A" in text
        assert result.to_dicts()[0]["cat"] == "A"
