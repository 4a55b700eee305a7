"""Database lifecycle: close() tears everything down, no thread leaks."""

import threading

import pytest

from repro import Database, ExecutionStrategy

from .conftest import HEADER_ITEM_SQL, load_erp, make_erp_db


def live_thread_count() -> int:
    return sum(1 for t in threading.enumerate() if t.is_alive())


class TestClose:
    def test_close_is_idempotent(self):
        db = make_erp_db()
        db.close()
        db.close()

    def test_context_manager_closes(self):
        with make_erp_db() as db:
            load_erp(db, n_headers=2, merge=True)
            assert db.query(HEADER_ITEM_SQL).rows
        # A closed in-memory database still answers queries.
        assert db.query(HEADER_ITEM_SQL).rows

    def test_no_thread_leak_across_open_close_cycles(self):
        """Opening and closing databases repeatedly must not accumulate
        threads."""
        baseline = live_thread_count()
        for _ in range(5):
            db = make_erp_db()
            load_erp(db, n_headers=3, merge=True)
            load_erp(db, n_headers=1, start_hid=50, merge=False)
            assert db.query(HEADER_ITEM_SQL).rows
            db.close()
        assert live_thread_count() <= baseline + 1  # tolerate unrelated noise

    def test_no_thread_leak_for_durable_databases(self, tmp_path):
        baseline = live_thread_count()
        for i in range(3):
            db = Database.open(tmp_path / "db")
            db.close()
        assert live_thread_count() <= baseline + 1

    def test_queries_after_close_still_answer(self):
        db = make_erp_db()
        load_erp(db, n_headers=4, merge=True)
        before = db.query(HEADER_ITEM_SQL).rows
        db.close()
        assert db.query(HEADER_ITEM_SQL).rows == before


def test_traced_four_table_join_starts_no_thread():
    """Every subjoin of a query runs on the calling thread: a traced query
    over all 16 partition combinations of a four-table join (the all-main
    entry build plus 15 unpruned compensation subjoins) leaves the set of
    threads unchanged."""
    db = Database()
    db.create_table("region", [("rid", "INT"), ("name", "TEXT")], primary_key="rid")
    db.create_table("store", [("sid", "INT"), ("rid", "INT")], primary_key="sid")
    db.create_table(
        "sale",
        [("xid", "INT"), ("sid", "INT"), ("pid", "INT"), ("amount", "INT")],
        primary_key="xid",
    )
    db.create_table("product", [("pid", "INT"), ("kind", "TEXT")], primary_key="pid")

    def load(base: int) -> None:
        for k in range(base, base + 4):
            db.insert("region", {"rid": k, "name": f"R{k % 3}"})
            db.insert("store", {"sid": k, "rid": k})
            db.insert("product", {"pid": k, "kind": "ab"[k % 2]})
            db.insert("sale", {"xid": k, "sid": k, "pid": k, "amount": k})

    load(0)
    db.merge()
    load(10)  # every table now has a non-empty main and delta
    sql = (
        "SELECT r.name, p.kind, SUM(x.amount) AS total, COUNT(*) AS n "
        "FROM region r, store s, sale x, product p "
        "WHERE s.rid = r.rid AND x.sid = s.sid AND x.pid = p.pid "
        "GROUP BY r.name, p.kind"
    )
    before = set(threading.enumerate())
    trace = db.explain_analyze(sql, strategy=ExecutionStrategy.CACHED_NO_PRUNING)
    assert set(threading.enumerate()) == before
    assert trace.span_named("build_entry") is not None
    assert len(trace.subjoin_spans()) == 15
    assert trace.result.rows == db.query(sql, strategy=ExecutionStrategy.UNCACHED).rows
    db.close()
