"""End-to-end lifecycle scenarios exercising many subsystems together."""

import pytest

from repro import Database, ExecutionStrategy
from repro.workloads import CH_QUERIES, ChBenchmark, ChConfig, ErpConfig, ErpWorkload

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED
ALL = list(ExecutionStrategy)


class TestQuarterCloseScenario:
    """A fiscal-quarter lifecycle: daily business, corrections, nightly
    merges, recurring profit-and-loss analysis — everything stays exact
    and the cache entry survives the whole quarter."""

    def test_quarter(self):
        db = Database()
        workload = ErpWorkload(db, ErpConfig(seed=99, n_categories=8))
        sql = workload.profit_and_loss_sql(year=2013)
        workload.insert_objects(50, year=2013, merge_after=True)
        db.query(sql, strategy=FULL)
        entry_before = db.cache.entries()[0]
        for day in range(6):
            workload.insert_objects(10, year=2013)  # the day's business
            if day % 2 == 0:
                # a correction: reprice one existing item
                db.update("Item", day * 3 + 1, {"Price": 1.0})
            assert db.query(sql, strategy=FULL) == db.query(sql, strategy=UNCACHED)
            if day % 3 == 2:
                db.merge()  # nightly merge
        assert db.cache.entries()[0] is entry_before  # never rebuilt
        stats = db.statistics()
        assert stats.cache.maintenance_runs > 0
        assert stats.cache.hit_rate > 0.5

    def test_quarter_with_update_delta_layout(self):
        db = Database()
        db.create_table(
            "Header",
            [("HeaderID", "INT"), ("FiscalYear", "INT")],
            primary_key="HeaderID",
            separate_update_delta=True,
        )
        db.create_table(
            "Item",
            [("ItemID", "INT"), ("HeaderID", "INT"), ("Price", "FLOAT")],
            primary_key="ItemID",
            separate_update_delta=True,
        )
        db.add_matching_dependency("Header", "HeaderID", "Item", "HeaderID")
        sql = (
            "SELECT h.FiscalYear AS y, SUM(i.Price) AS s "
            "FROM Header h, Item i WHERE h.HeaderID = i.HeaderID GROUP BY h.FiscalYear"
        )
        iid = 0
        for hid in range(30):
            db.insert_business_object(
                "Header",
                {"HeaderID": hid, "FiscalYear": 2013},
                "Item",
                [{"ItemID": iid + k, "HeaderID": hid, "Price": float(k)} for k in range(3)],
            )
            iid += 3
        db.merge()
        db.query(sql, strategy=FULL)
        for round_no in range(4):
            db.insert_business_object(
                "Header",
                {"HeaderID": 100 + round_no, "FiscalYear": 2014},
                "Item",
                [{"ItemID": iid, "HeaderID": 100 + round_no, "Price": 2.0}],
            )
            iid += 1
            db.update("Item", round_no * 3, {"Price": 0.0})
            for strategy in ALL:
                assert db.query(sql, strategy=strategy) == db.query(
                    sql, strategy=UNCACHED
                )
            db.merge()


class TestChBenchWithModifications:
    """The CH-benCHmark dataset under deliveries (updates) and cancellations
    (deletes) — all four queries stay strategy-equivalent."""

    @pytest.fixture(scope="class")
    def ch_db(self):
        db = Database()
        ChBenchmark(db, ChConfig(seed=5)).load()
        for name in CH_QUERIES:
            db.query(CH_QUERIES[name], strategy=FULL)  # warm entries
        # deliveries: set carrier on some orders (update)
        for o_key in range(1, 20, 3):
            db.update("orders", o_key, {"o_carrier_id": 99})
        # cancellations: drop a few neworder rows (delete)
        neworder = db.table("neworder")
        for no_key in range(1, 10):
            if neworder.get_row(no_key) is not None:
                db.delete("neworder", no_key)
        return db

    @pytest.mark.parametrize("name", list(CH_QUERIES))
    def test_queries_exact_after_modifications(self, ch_db, name):
        reference = ch_db.query(CH_QUERIES[name], strategy=UNCACHED)
        for strategy in ALL:
            assert ch_db.query(CH_QUERIES[name], strategy=strategy) == reference

    def test_merge_after_modifications(self, ch_db):
        ch_db.merge()
        for name in CH_QUERIES:
            assert ch_db.query(CH_QUERIES[name], strategy=FULL) == ch_db.query(
                CH_QUERIES[name], strategy=UNCACHED
            )


class TestLongRunningReader:
    def test_reader_spanning_merge_sees_its_snapshot(self):
        db = Database()
        db.create_table("t", [("k", "INT"), ("v", "FLOAT")], primary_key="k")
        for k in range(10):
            db.insert("t", {"k": k, "v": 1.0})
        sql = "SELECT SUM(v) AS s, COUNT(*) AS n FROM t"
        db.query(sql, strategy=FULL)
        reader = db.begin()  # long-running analytical transaction
        for k in range(10, 20):
            db.insert("t", {"k": k, "v": 1.0})
        db.merge()
        # After the merge the entry is anchored past the reader's snapshot.
        result = db.query(sql, strategy=FULL, txn=reader)
        assert result.rows == [(10.0, 10)]
        fresh = db.query(sql, strategy=FULL)
        assert fresh.rows == [(20.0, 20)]
