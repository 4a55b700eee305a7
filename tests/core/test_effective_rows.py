"""Silent versions cancelled out of compensation (repro.core.effective_rows).

The stateful machine (test_pure_hit_stateful.py) owns "every history equals
UNCACHED"; these pin down which rows are cancelled, who bypasses, and that a
database without lineage falls back to ordinary compensation.
"""

import numpy as np

from repro import Database, ExecutionStrategy
from repro.core.effective_rows import effective_rows, read_masks
from repro.storage import load_database, save_database, threshold_aging

from ..conftest import PROFIT_SQL, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED

ORDERS_SQL = (
    "SELECT c.state AS state, SUM(o.total) AS total, COUNT(*) AS n "
    "FROM cust c, ord o WHERE o.ck = c.ck AND o.status = 'open' GROUP BY c.state"
)


def make_orders(**db_kwargs):
    db = Database(**db_kwargs)
    db.create_table(
        "cust",
        [("ck", "INT"), ("state", "TEXT"), ("balance", "INT")],
        primary_key="ck",
    )
    db.create_table(
        "ord",
        [("ok", "INT"), ("ck", "INT"), ("status", "TEXT"), ("total", "INT"), ("carrier", "INT")],
        primary_key="ok",
    )
    for ck in range(3):
        db.insert("cust", {"ck": ck, "state": "AB"[ck % 2], "balance": 0})
    for ok in range(6):
        db.insert("ord", {"ok": ok, "ck": ok % 3, "status": "open", "total": ok, "carrier": None})
    db.merge()
    return db


def entry_of(db, sql):
    (entry,) = db.cache.entries_for(db.parse(sql))
    return entry


def checked(db, sql, **kwargs):
    """The cached answer, required to equal the uncached one; returns its report."""
    result = db.query(sql, strategy=FULL, **kwargs)
    assert result == db.query(sql, strategy=UNCACHED, **kwargs)
    return result.report


def test_read_mask_holds_join_keys_filters_groups_aggregate_arguments_and_tids():
    db = make_orders()
    checked(db, ORDERS_SQL)
    masks = read_masks(entry_of(db, ORDERS_SQL))
    cust, ord_ = db.table("cust").schema, db.table("ord").schema
    assert masks["c"] == cust.change_bit("ck") | cust.change_bit("state")
    assert masks["o"] == (
        ord_.change_bit("ck") | ord_.change_bit("status") | ord_.change_bit("total")
    )
    erp = make_erp_db()
    load_erp(erp)
    checked(erp, PROFIT_SQL)
    item = erp.table("item").schema
    assert read_masks(entry_of(erp, PROFIT_SQL))["i"] == (
        item.change_bit("hid") | item.change_bit("cid") | item.change_bit("price")
        | item.change_bit("tid_header") | item.change_bit("tid_category")
    )


def test_revived_rows_join_the_other_tables_delta():
    """The payment pattern: a customer's balance moves, then that customer
    orders.  The new order joins the customer's *old* version, which only
    the (c:main, o:delta) subjoin can supply."""
    db = make_orders()
    checked(db, ORDERS_SQL)
    db.update("cust", 1, {"balance": -50})
    db.insert("ord", {"ok": 10, "ck": 1, "status": "open", "total": 100, "carrier": None})
    trace = db.explain_analyze(ORDERS_SQL)
    assert trace.result == db.query(ORDERS_SQL, strategy=UNCACHED)
    assert trace.report.silent_rows_cancelled == 1
    assert trace.report.invalidated_rows_compensated == 0
    status = {
        span.attrs["combo"]: span.attrs["status"]
        for span in trace.root.walk()
        if span.name == "subjoin"
    }
    assert status == {
        "(c:main, o:delta)": "evaluated",
        "(c:delta, o:main)": "cancelled",
        "(c:delta, o:delta)": "cancelled",
    }
    effective = effective_rows(entry_of(db, ORDERS_SQL), db.transactions.global_snapshot())
    assert effective.revived["c"].tolist() == [1]
    assert [rows.tolist() for rows in effective.suppressed.values()] == [[0]]


def test_relevant_after_silent_and_delete_after_silent_are_compensated():
    db = make_orders()
    checked(db, ORDERS_SQL)
    db.update("ord", 2, {"carrier": 4})
    db.update("ord", 3, {"carrier": 5})
    assert checked(db, ORDERS_SQL).silent_rows_cancelled == 2
    db.update("ord", 2, {"total": 70})  # the chain's mask now holds `total`
    report = checked(db, ORDERS_SQL)
    assert (report.silent_rows_cancelled, report.invalidated_rows_compensated) == (1, 1)
    db.delete("ord", 3)  # no visible successor left
    report = checked(db, ORDERS_SQL)
    # The memo stepped from the previous read, which subtracted order 2:
    # only order 3 leaves now.
    assert report.delta_memo_mode == "incremental"
    assert (report.silent_rows_cancelled, report.invalidated_rows_compensated) == (0, 1)


def test_a_reader_that_cannot_see_the_successor_gets_no_cancellation():
    db = make_orders()
    checked(db, ORDERS_SQL)
    before = db.transactions.global_snapshot()
    writer = db.begin()
    db.update("ord", 4, {"carrier": 1}, txn=writer)
    assert checked(db, ORDERS_SQL, as_of=before).silent_rows_cancelled == 0
    assert checked(db, ORDERS_SQL).silent_rows_cancelled == 1
    writer.commit()


def test_single_table_memo_advances_over_a_silent_successor():
    sql = "SELECT o.status AS status, SUM(o.total) AS t FROM ord o GROUP BY o.status"
    db = make_orders()
    checked(db, sql)
    db.insert("ord", {"ok": 20, "ck": 0, "status": "open", "total": 1, "carrier": None})
    checked(db, sql)  # installs the memo
    db.update("ord", 1, {"carrier": 9})
    report = checked(db, sql)
    assert report.delta_memo_mode == "incremental"
    assert report.silent_rows_cancelled == 1
    assert report.executor_stats.combos_evaluated == 0  # the suffix was all hers
    db.refresh_cache()
    assert checked(db, sql).silent_rows_cancelled == 1


def test_merge_of_another_table_keeps_revived_rows_stored():
    db = make_orders()
    checked(db, ORDERS_SQL)
    db.update("cust", 2, {"balance": 5})
    db.insert("ord", {"ok": 11, "ck": 2, "status": "open", "total": 9, "carrier": None})
    db.merge("ord")
    entry = entry_of(db, ORDERS_SQL)
    snapshot = db.transactions.global_snapshot()
    # The old version stays stored, and the alias is marked as not as
    # stored until cust merges.
    assert entry.invalidation_epochs["c"] == -1
    assert entry.visibility["c"].sum() == 3
    assert entry.main_partitions["c"].visible_count(snapshot) == 2
    report = checked(db, ORDERS_SQL)
    assert (report.silent_rows_cancelled, report.invalidated_rows_compensated) == (1, 0)
    assert report.entries_recomputed == 0
    db.merge("cust")
    entry = entry_of(db, ORDERS_SQL)
    assert entry.invalidation_epochs["c"] == entry.main_partitions["c"].invalidation_epoch
    assert checked(db, ORDERS_SQL).silent_rows_cancelled == 0


def test_restored_database_compensates_the_ordinary_way(tmp_path):
    db = make_orders(path=tmp_path / "db")
    checked(db, ORDERS_SQL)
    db.update("ord", 2, {"carrier": 4})
    db.checkpoint()
    for restored in (
        load_database(save_database(db, tmp_path / "snap")),
        db.recover(),
    ):
        checked(restored, ORDERS_SQL)  # builds the entry: old version not stored
        restored.update("ord", 2, {"carrier": 6})  # a delta row without a record
        restored.update("ord", 3, {"carrier": 6})  # a main row: lineage again
        report = checked(restored, ORDERS_SQL)
        assert (report.silent_rows_cancelled, report.invalidated_rows_compensated) == (1, 0)
        restored.close()


def test_wide_schema_cancels_own_bit_columns_only():
    db = Database()
    columns = [("k", "INT"), ("g", "INT")] + [(f"c{i}", "INT") for i in range(70)]
    db.create_table("wide", columns, primary_key="k")
    for k in range(4):
        db.insert("wide", {"k": k, "g": k % 2, **{f"c{i}": i for i in range(70)}})
    db.merge()
    sql = "SELECT w.g AS g, SUM(w.c1) AS s FROM wide w GROUP BY w.g"
    checked(db, sql)
    db.update("wide", 0, {"c5": -1})  # a bit of its own, unread
    assert checked(db, sql).silent_rows_cancelled == 1
    db.update("wide", 1, {"c69": -1})  # shares the saturating bit: never silent
    report = checked(db, sql)
    assert (report.silent_rows_cancelled, report.invalidated_rows_compensated) == (1, 1)


def test_hot_cold_and_self_join_entries_bypass():
    aged = Database()
    aged.create_table(
        "header", [("hid", "INT"), ("year", "INT"), ("note", "TEXT")],
        primary_key="hid", aging_rule=threshold_aging("year", 2014),
    )
    for hid, year in [(1, 2010), (2, 2015), (3, 2016)]:
        aged.insert("header", {"hid": hid, "year": year, "note": "n"})
    aged.merge()
    sql = "SELECT h.year AS y, COUNT(*) AS n FROM header h GROUP BY h.year"
    checked(aged, sql)
    aged.update("header", 2, {"note": "m"})
    assert checked(aged, sql).silent_rows_cancelled == 0
    assert all(read_masks(e) == {} for e in aged.cache.entries())

    db = make_orders()
    self_join = (
        "SELECT a.ck AS ck, COUNT(*) AS n FROM ord a, ord b "
        "WHERE a.ck = b.ck GROUP BY a.ck"
    )
    checked(db, self_join)
    db.update("ord", 2, {"carrier": 4})
    report = checked(db, self_join)
    assert report.silent_rows_cancelled == 0
    assert read_masks(entry_of(db, self_join)) == {}


def test_two_visible_versions_of_one_key_cancel_nothing():
    """Transactions stamping out of tid order can leave two versions of one
    key visible at once; the reader counts both, so neither replaces the
    stored row."""
    db = make_orders()
    checked(db, ORDERS_SQL)
    old = db.begin()
    db.update("ord", 5, {"carrier": 1})  # version 1, visible from here ...
    reader = db.begin().tid
    db.update("ord", 5, {"carrier": 2})  # ... to here
    db.update("ord", 5, {"carrier": 3}, txn=old)  # version 3 carries the oldest tid
    old.commit()
    visible = sum(
        int(np.count_nonzero(p.visible_mask(reader) & p.column("ok").equality_mask(5)))
        for p in db.table("ord").partitions()
    )
    assert visible == 2
    report = checked(db, ORDERS_SQL, as_of=reader)
    assert (report.silent_rows_cancelled, report.invalidated_rows_compensated) == (0, 1)
    assert checked(db, ORDERS_SQL).silent_rows_cancelled == 1  # the latest reader sees one
