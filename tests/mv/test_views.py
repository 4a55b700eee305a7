"""Tests for the eager/lazy materialized-view baselines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, ExecutionStrategy, UnsupportedQueryError
from repro.mv import EagerIncrementalView, LazyIncrementalView, MaterializedView

SQL = "SELECT cat, SUM(price) AS s, COUNT(*) AS n, AVG(price) AS a FROM sales GROUP BY cat"
FILTERED_SQL = "SELECT cat, SUM(price) AS s FROM sales WHERE price > 5 GROUP BY cat"


def make_db():
    db = Database()
    db.create_table(
        "sales",
        [("sid", "INT"), ("cat", "TEXT"), ("price", "FLOAT")],
        primary_key="sid",
    )
    return db


def reference(db, sql=SQL):
    return db.query(sql, strategy=ExecutionStrategy.UNCACHED)


class TestViewBasics:
    def test_initial_value_covers_existing_rows(self):
        db = make_db()
        db.insert("sales", {"sid": 1, "cat": "a", "price": 3.0})
        db.merge()
        db.insert("sales", {"sid": 2, "cat": "a", "price": 4.0})
        view = MaterializedView(db, SQL)
        assert view.read() == reference(db)

    def test_join_query_rejected(self):
        db = make_db()
        db.create_table("other", [("oid", "INT")], primary_key="oid")
        with pytest.raises(UnsupportedQueryError):
            MaterializedView(
                db, "SELECT COUNT(*) AS n FROM sales s, other o WHERE s.sid = o.oid"
            )

    def test_min_max_rejected(self):
        db = make_db()
        with pytest.raises(UnsupportedQueryError):
            MaterializedView(db, "SELECT cat, MAX(price) AS m FROM sales GROUP BY cat")

    def test_refresh_full(self):
        db = make_db()
        view = MaterializedView(db, SQL)
        db.insert("sales", {"sid": 1, "cat": "a", "price": 1.0})
        view.refresh_full()
        assert view.read() == reference(db)


class TestEagerView:
    def test_maintained_on_insert(self):
        db = make_db()
        view = EagerIncrementalView(db, SQL)
        db.insert("sales", {"sid": 1, "cat": "a", "price": 2.0})
        db.insert("sales", {"sid": 2, "cat": "b", "price": 3.0})
        assert view.read() == reference(db)
        assert view.maintenance_operations == 2

    def test_maintained_on_update_and_delete(self):
        db = make_db()
        db.insert("sales", {"sid": 1, "cat": "a", "price": 2.0})
        view = EagerIncrementalView(db, SQL)
        db.update("sales", 1, {"price": 7.0})
        assert view.read() == reference(db)
        db.delete("sales", 1)
        assert view.read() == reference(db)
        assert len(view.read()) == 0

    def test_filter_respected(self):
        db = make_db()
        view = EagerIncrementalView(db, FILTERED_SQL)
        db.insert("sales", {"sid": 1, "cat": "a", "price": 2.0})  # filtered out
        db.insert("sales", {"sid": 2, "cat": "a", "price": 9.0})
        assert view.read() == reference(db, FILTERED_SQL)
        assert view.maintenance_operations == 1

    def test_update_crossing_filter_boundary(self):
        db = make_db()
        db.insert("sales", {"sid": 1, "cat": "a", "price": 9.0})
        view = EagerIncrementalView(db, FILTERED_SQL)
        db.update("sales", 1, {"price": 1.0})  # drops out of the view
        assert view.read() == reference(db, FILTERED_SQL)
        db.update("sales", 1, {"price": 8.0})  # re-enters
        assert view.read() == reference(db, FILTERED_SQL)

    def test_other_table_changes_ignored(self):
        db = make_db()
        db.create_table("noise", [("nid", "INT")], primary_key="nid")
        view = EagerIncrementalView(db, SQL)
        db.insert("noise", {"nid": 1})
        assert view.maintenance_operations == 0

    def test_survives_merge(self):
        db = make_db()
        view = EagerIncrementalView(db, SQL)
        db.insert("sales", {"sid": 1, "cat": "a", "price": 2.0})
        db.merge()
        db.insert("sales", {"sid": 2, "cat": "a", "price": 3.0})
        assert view.read() == reference(db)

    def test_close_detaches(self):
        db = make_db()
        view = EagerIncrementalView(db, SQL)
        view.close()
        db.insert("sales", {"sid": 1, "cat": "a", "price": 2.0})
        assert view.maintenance_operations == 0


class TestLazyView:
    def test_log_grows_until_read(self):
        db = make_db()
        view = LazyIncrementalView(db, SQL)
        for sid in range(5):
            db.insert("sales", {"sid": sid, "cat": "a", "price": 1.0})
        assert view.pending_changes == 5
        assert view.maintenance_operations == 0
        assert view.read() == reference(db)
        assert view.pending_changes == 0
        assert view.maintenance_operations == 5

    def test_update_logs_two_changes(self):
        db = make_db()
        db.insert("sales", {"sid": 1, "cat": "a", "price": 1.0})
        view = LazyIncrementalView(db, SQL)
        db.update("sales", 1, {"price": 4.0})
        assert view.pending_changes == 2
        assert view.read() == reference(db)

    def test_delete_logged(self):
        db = make_db()
        db.insert("sales", {"sid": 1, "cat": "a", "price": 1.0})
        view = LazyIncrementalView(db, SQL)
        db.delete("sales", 1)
        assert view.read().rows == []

    @pytest.mark.parametrize("view_class", [EagerIncrementalView, LazyIncrementalView])
    def test_empty_ungrouped_aggregate_answers_one_row(self, view_class):
        """As ``db.query``: COUNT 0 and SUM NULL over no row, before any
        write and after the only row is deleted again."""
        sql = "SELECT COUNT(*) AS n, SUM(s.price) AS total FROM sales AS s"
        db = make_db()
        view = view_class(db, sql)
        assert view.read().rows == [(0, None)] == db.query(sql).rows
        db.insert("sales", {"sid": 1, "cat": "a", "price": 2.0})
        assert view.read().rows == [(1, 2.0)] == db.query(sql).rows
        db.delete("sales", 1)
        assert view.read().rows == [(0, None)] == db.query(sql).rows

    def test_apply_pending_explicit(self):
        db = make_db()
        view = LazyIncrementalView(db, SQL)
        db.insert("sales", {"sid": 1, "cat": "a", "price": 1.0})
        assert view.apply_pending() == 1
        assert view.apply_pending() == 0


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "update", "delete"]),
            st.integers(0, 30),
            st.sampled_from(["a", "b", "c"]),
            st.floats(0, 100),
        ),
        max_size=40,
    )
)
def test_property_views_track_table_state(ops):
    """Eager and lazy views both equal the uncached query after any
    insert/update/delete sequence."""
    db = make_db()
    eager = EagerIncrementalView(db, SQL)
    lazy = LazyIncrementalView(db, SQL)
    live = set()
    for op, sid, cat, price in ops:
        if op == "insert":
            if sid in live:
                continue
            db.insert("sales", {"sid": sid, "cat": cat, "price": price})
            live.add(sid)
        elif op == "update" and live:
            target = sorted(live)[sid % len(live)]
            db.update("sales", target, {"price": price})
        elif op == "delete" and live:
            target = sorted(live)[sid % len(live)]
            db.delete("sales", target)
            live.remove(target)
    expected = reference(db)
    assert eager.read() == expected
    assert lazy.read() == expected
