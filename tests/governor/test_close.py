"""Database.close(): idempotent, thread-safe, drains concurrent readers."""

import threading

import pytest

from repro import Database, ExecutionStrategy

from ..conftest import PROFIT_SQL, load_erp, make_erp_db


class TestCloseIdempotency:
    def test_double_close_in_memory(self):
        db = make_erp_db()
        db.close()
        db.close()  # second call is a no-op, not an error

    def test_double_close_durable(self, tmp_path):
        db = Database(path=tmp_path / "db")
        db.create_table("t", [("k", "INT")], primary_key="k")
        db.insert("t", {"k": 1})
        db.close()
        db.close()
        assert db.wal is not None and not db.wal.is_open

    def test_context_manager_after_explicit_close(self):
        db = make_erp_db()
        with db:
            db.close()
        # __exit__ closed again; no error either way.

    def test_concurrent_close_calls_race_cleanly(self, tmp_path):
        db = Database(path=tmp_path / "db")
        db.create_table("t", [("k", "INT")], primary_key="k")
        barrier = threading.Barrier(4)
        errors = []

        def closer():
            try:
                barrier.wait()
                db.close()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert not db.wal.is_open


class TestCloseUnderConcurrentReaders:
    def test_close_waits_for_in_flight_queries(self):
        db = make_erp_db()
        load_erp(db, n_headers=6, merge=True)
        load_erp(db, n_headers=2, start_hid=100, merge=False)
        expected = db.query(
            PROFIT_SQL, strategy=ExecutionStrategy.CACHED_FULL_PRUNING
        ).rows
        started = threading.Event()
        results = []

        def reader():
            started.set()
            for _ in range(5):
                try:
                    results.append(
                        db.query(
                            PROFIT_SQL,
                            strategy=ExecutionStrategy.CACHED_FULL_PRUNING,
                        ).rows
                    )
                except Exception:
                    # A query that raced past close may fail cleanly; it
                    # must never return from a torn engine.
                    return

        worker = threading.Thread(target=reader)
        worker.start()
        started.wait()
        db.close()  # takes the write lock: drains any in-flight reader
        worker.join()
        # Every query that completed saw a consistent engine.
        for rows in results:
            assert rows == expected
