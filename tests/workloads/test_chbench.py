"""Tests for the CH-benCHmark generator and the four Fig. 9 queries."""

import pytest

from repro import Database, ExecutionStrategy
from repro.workloads import CH_QUERIES, CH_QUERY_TABLES, ChBenchmark, ChConfig

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED


@pytest.fixture(scope="module")
def ch():
    db = Database()
    benchmark = ChBenchmark(db, ChConfig(seed=11))
    benchmark.load()
    return db, benchmark


class TestGenerator:
    def test_row_counts_shape(self, ch):
        db, benchmark = ch
        counts = benchmark.row_counts()
        config = benchmark.config
        assert counts["region"] == 3
        assert counts["nation"] == 7
        assert counts["supplier"] == config.suppliers
        assert counts["item"] == config.items
        assert counts["stock"] == config.items * config.warehouses
        assert (
            counts["customer"]
            == config.warehouses
            * config.districts_per_warehouse
            * config.customers_per_district
        )
        expected_orders = (
            config.warehouses
            * config.districts_per_warehouse
            * config.orders_per_district
        )
        assert counts["orders"] == expected_orders
        assert counts["orderline"] == expected_orders * config.orderlines_per_order

    def test_delta_population_near_five_percent(self, ch):
        _, benchmark = ch
        deltas = benchmark.delta_counts()
        totals = benchmark.row_counts()
        for table in ("orders", "orderline"):
            fraction = deltas[table] / totals[table]
            assert 0.02 <= fraction <= 0.10, (table, fraction)
        # Static dimensions keep empty deltas (the empty-delta-pruning prey).
        for table in ("region", "nation", "supplier", "customer"):
            assert deltas[table] == 0

    def test_matching_dependencies_installed(self, ch):
        db, _ = ch
        tid_cols = db.table("orderline").schema.tid_column_names()
        assert "tid_orders" in tid_cols
        assert "tid_stock" in tid_cols
        assert len(db.enforcer.dependencies()) == 4

    def test_orderline_references_valid_stock(self, ch):
        db, _ = ch
        orderline = db.table("orderline")
        stock = db.table("stock")
        for partition in orderline.partitions():
            fragment = partition.column("ol_s_key")
            for row in range(min(partition.row_count, 50)):
                assert stock.get_row(fragment.value_at(row)) is not None

    def test_determinism(self):
        counts = []
        for _ in range(2):
            db = Database()
            bench = ChBenchmark(db, ChConfig(seed=3))
            bench.load()
            result = db.query(CH_QUERIES["Q5"], strategy=UNCACHED)
            counts.append(result.rows)
        assert counts[0] == counts[1]


class TestQueries:
    @pytest.mark.parametrize("name", list(CH_QUERIES))
    def test_query_parses_with_expected_table_count(self, name):
        from repro import parse_sql

        query = parse_sql(CH_QUERIES[name])
        assert len(query.tables) == CH_QUERY_TABLES[name]
        assert len(query.tables) > 3  # the paper's selection criterion

    @pytest.mark.parametrize("name", list(CH_QUERIES))
    def test_query_nonempty_and_strategy_equivalent(self, ch, name):
        db, _ = ch
        reference = db.query(CH_QUERIES[name], strategy=UNCACHED)
        assert len(reference) > 0
        assert db.query(CH_QUERIES[name], strategy=FULL) == reference
        assert (
            db.query(CH_QUERIES[name], strategy=ExecutionStrategy.CACHED_NO_PRUNING)
            == reference
        )

    @pytest.mark.parametrize("name", list(CH_QUERIES))
    def test_full_pruning_eliminates_most_subjoins(self, ch, name):
        db, benchmark = ch
        db.query(CH_QUERIES[name], strategy=FULL)
        report = db.last_report
        tables = CH_QUERY_TABLES[name]
        # Star-join reduction excludes every table whose delta is empty at
        # plan time, so only 2^k - 1 subjoins are enumerated (k = tables
        # with delta rows); the rest are never generated.
        deltas = benchmark.delta_counts()
        parsed = db.parse(CH_QUERIES[name])
        k = sum(1 for ref in parsed.tables if deltas[ref.table] > 0)
        assert report.prune.combos_total == 2**k - 1
        assert report.prune.excluded_tables == tables - k
        assert report.prune.combos_excluded == (2**tables - 1) - (2**k - 1)
        # The vast majority of compensation subjoins must be pruned.
        assert report.prune.evaluated <= tables
        assert report.prune.pruned_total >= report.prune.combos_total - tables

    @pytest.mark.parametrize("name", list(CH_QUERIES))
    def test_exhaustive_override_restores_full_enumeration(
        self, ch, name, monkeypatch
    ):
        db, _ = ch
        tables = CH_QUERY_TABLES[name]
        reduced = db.query(CH_QUERIES[name], strategy=FULL)
        monkeypatch.setattr(db.cache.config, "star_join_reduction", False)
        exhaustive = db.query(CH_QUERIES[name], strategy=FULL)
        assert db.last_report.prune.combos_total == 2**tables - 1
        assert db.last_report.prune.excluded_tables == 0
        assert exhaustive.rows == reduced.rows

    def test_q3_revenue_positive(self, ch):
        db, _ = ch
        result = db.query(CH_QUERIES["Q3"], strategy=FULL)
        assert all(v > 0 for v in result.column_values("revenue"))

    def test_q5_nations_in_europe(self, ch):
        db, _ = ch
        result = db.query(CH_QUERIES["Q5"], strategy=FULL)
        assert set(result.column_values("nation")) <= {
            "GERMANY",
            "FRANCE",
            "UNITED_KINGDOM",
        }

    def test_q9_grouped_by_year(self, ch):
        db, _ = ch
        result = db.query(CH_QUERIES["Q9"], strategy=FULL)
        assert set(result.column_values("year")) <= {2012, 2013, 2014}
