"""Tests for HAVING clauses and time-travel (as_of) queries."""

import pytest

from repro import Database, ExecutionStrategy, QueryError
from repro.errors import SqlSyntaxError

from ..conftest import HEADER_ITEM_SQL, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED


def make_sales_db():
    db = Database()
    db.create_table(
        "sales", [("sid", "INT"), ("cat", "TEXT"), ("price", "FLOAT")], primary_key="sid"
    )
    rows = [(1, "a", 10.0), (2, "a", 20.0), (3, "b", 5.0), (4, "c", 100.0)]
    for sid, cat, price in rows:
        db.insert("sales", {"sid": sid, "cat": cat, "price": price})
    db.merge()
    return db


class TestHaving:
    def test_having_filters_groups(self):
        db = make_sales_db()
        result = db.query(
            "SELECT cat, SUM(price) AS s FROM sales GROUP BY cat HAVING s > 20"
        )
        assert result.to_dicts() == [
            {"cat": "a", "s": 30.0},
            {"cat": "c", "s": 100.0},
        ]

    def test_having_on_count(self):
        db = make_sales_db()
        result = db.query(
            "SELECT cat, COUNT(*) AS n FROM sales GROUP BY cat HAVING n >= 2"
        )
        assert result.column_values("cat") == ["a"]

    def test_having_on_group_label(self):
        db = make_sales_db()
        result = db.query(
            "SELECT cat, SUM(price) AS s FROM sales GROUP BY cat HAVING cat != 'a'"
        )
        assert result.column_values("cat") == ["b", "c"]

    def test_having_with_order_and_limit(self):
        db = make_sales_db()
        result = db.query(
            "SELECT cat, SUM(price) AS s FROM sales GROUP BY cat "
            "HAVING s > 1 ORDER BY s DESC LIMIT 2"
        )
        assert result.column_values("cat") == ["c", "a"]

    def test_having_does_not_split_cache_entries(self):
        db = make_sales_db()
        db.query("SELECT cat, SUM(price) AS s FROM sales GROUP BY cat", strategy=FULL)
        db.query(
            "SELECT cat, SUM(price) AS s FROM sales GROUP BY cat HAVING s > 20",
            strategy=FULL,
        )
        # Same extent: one entry, second query was a hit.
        assert db.cache.entry_count() == 1
        assert db.last_report.cache_hits == 1

    def test_having_unknown_output_column(self):
        db = make_sales_db()
        with pytest.raises(QueryError):
            db.query("SELECT cat, SUM(price) AS s FROM sales GROUP BY cat HAVING zz > 1")

    def test_having_strategy_equivalence(self):
        db = make_erp_db()
        load_erp(db, n_headers=5, merge=True)
        load_erp(db, n_headers=2, start_hid=70, merge=False)
        sql = HEADER_ITEM_SQL + " HAVING profit > 10"
        reference = db.query(sql, strategy=UNCACHED)
        assert db.query(sql, strategy=FULL) == reference


class TestTimeTravel:
    def test_as_of_sees_past_inserts_only(self):
        db = make_sales_db()
        snapshot = db.transactions.global_snapshot()
        db.insert("sales", {"sid": 9, "cat": "a", "price": 1000.0})
        now = db.query("SELECT SUM(price) AS s FROM sales")
        past = db.query("SELECT SUM(price) AS s FROM sales", as_of=snapshot)
        assert now.rows[0][0] == past.rows[0][0] + 1000.0

    def test_as_of_before_delete_with_history(self):
        db = make_sales_db()
        snapshot = db.transactions.global_snapshot()
        db.delete("sales", 4)
        db.merge(keep_history=True)
        past = db.query(
            "SELECT cat, COUNT(*) AS n FROM sales GROUP BY cat", as_of=snapshot
        )
        assert "c" in past.column_values("cat")
        now = db.query("SELECT cat, COUNT(*) AS n FROM sales GROUP BY cat")
        assert "c" not in now.column_values("cat")

    def test_as_of_zero_sees_nothing(self):
        db = make_sales_db()
        past = db.query("SELECT COUNT(*) AS n FROM sales", as_of=0)
        assert past.rows == [(0,)]  # no GROUP BY: one row over no input

    def test_as_of_with_cache_strategy_is_consistent(self):
        db = make_sales_db()
        db.query("SELECT cat, SUM(price) AS s FROM sales GROUP BY cat", strategy=FULL)
        snapshot = db.transactions.global_snapshot()
        db.insert("sales", {"sid": 10, "cat": "b", "price": 7.0})
        cached = db.query(
            "SELECT cat, SUM(price) AS s FROM sales GROUP BY cat",
            strategy=FULL,
            as_of=snapshot,
        )
        uncached = db.query(
            "SELECT cat, SUM(price) AS s FROM sales GROUP BY cat",
            strategy=UNCACHED,
            as_of=snapshot,
        )
        assert cached == uncached

    def test_as_of_and_txn_are_exclusive(self):
        db = make_sales_db()
        txn = db.begin()
        with pytest.raises(QueryError):
            db.query("SELECT COUNT(*) AS n FROM sales", txn=txn, as_of=1)

    def test_old_reader_after_merge_compensates(self):
        """A reader older than a cache entry must not see rows merged after
        its snapshot (answered by a direct scan, not the entry)."""
        db = make_sales_db()
        db.query("SELECT COUNT(*) AS n FROM sales", strategy=FULL)
        old = db.transactions.global_snapshot()
        db.insert("sales", {"sid": 11, "cat": "z", "price": 2.0})
        db.merge()  # entry maintained; new row now in the main
        db.query("SELECT COUNT(*) AS n FROM sales", strategy=FULL)  # re-anchor
        past = db.query("SELECT COUNT(*) AS n FROM sales", strategy=FULL, as_of=old)
        assert past.rows[0][0] == 4
