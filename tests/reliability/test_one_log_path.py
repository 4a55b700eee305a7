"""Every WAL record takes one path: queued in the backlog, drained under
the database write lock.

Two ways a durable directory used to become unrecoverable:

* an explicit ``commit()`` appended its record without the database lock,
  racing an auto-commit writer for the next lsn (two records with one lsn:
  the reopen refuses the log as corrupt);
* a DDL record the log refused was dropped while the table stayed live, so
  later records named a table recovery never created.
"""

import sys
import threading

import pytest

from repro import Database, DurabilityError, FaultInjector

ROWS_PER_THREAD = 300


def _keys(db, table="t"):
    rows = db.query(f"SELECT k AS k, COUNT(*) AS n FROM {table} GROUP BY k").rows
    return sorted(k for k, _ in rows)


def test_explicit_commits_beside_auto_commits_recover_every_row(tmp_path):
    db = Database(path=tmp_path / "db")
    db.create_table("t", [("k", "INT"), ("v", "INT")], primary_key="k")
    errors = []

    def explicit():
        try:
            for k in range(ROWS_PER_THREAD):
                txn = db.begin()
                db.insert("t", {"k": k, "v": 1}, txn=txn)
                txn.commit()
        except Exception as err:  # surfaced by the assert below
            errors.append(err)

    def auto():
        try:
            for k in range(ROWS_PER_THREAD, 2 * ROWS_PER_THREAD):
                db.insert("t", {"k": k, "v": 2})
        except Exception as err:
            errors.append(err)

    threads = [threading.Thread(target=explicit), threading.Thread(target=auto)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two writers finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    db.close()

    recovered = Database.open(tmp_path / "db")
    try:
        assert _keys(recovered) == list(range(2 * ROWS_PER_THREAD))
        assert recovered.recovery_stats.transactions_replayed == 2 * ROWS_PER_THREAD
    finally:
        recovered.close()


def test_refused_create_table_record_is_logged_before_later_writes(tmp_path):
    faults = FaultInjector()
    db = Database(path=tmp_path / "db", fault_injector=faults)
    db.create_table("s", [("k", "INT")], primary_key="k")
    # Outlast the in-place retries of the create_table record.
    faults.arm("wal.append", mode="io_error", times=None)
    with pytest.raises(DurabilityError):
        db.create_table("t", [("k", "INT"), ("v", "INT")], primary_key="k")
    faults.disarm("wal.append")
    # The table is live although its record was refused ...
    db.insert("t", {"k": 1, "v": 10})
    db.insert("t", {"k": 2, "v": 20})
    served = db.query("SELECT k AS k, SUM(v) AS v FROM t GROUP BY k").rows
    db.close()

    # ... so the record must reach the log ahead of the inserts.
    recovered = Database.open(tmp_path / "db")
    try:
        assert recovered.catalog.table_names() == ["s", "t"]
        assert (
            recovered.query("SELECT k AS k, SUM(v) AS v FROM t GROUP BY k").rows
            == served
        )
    finally:
        recovered.close()
