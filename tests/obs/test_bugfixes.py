"""Regression tests for the torn-stats bugfix sweep.

1. ``collect_statistics`` used to compute the entries' value bytes from a
   second, separately-locked ``manager.entries()`` walk — torn against the
   ``counters_snapshot()`` it had already taken.
2. ``Database.last_report`` was one shared attribute — concurrent queries
   overwrote each other's reports.
"""

import threading

from ..conftest import HEADER_ITEM_SQL, PROFIT_SQL, load_erp, make_erp_db


class TestTornValueBytes:
    def test_value_bytes_in_counters_snapshot(self, erp_db):
        erp_db.query(PROFIT_SQL)
        counters = erp_db.cache.counters_snapshot()
        assert counters["value_bytes"] == sum(
            e.metrics.size_bytes for e in erp_db.cache.entries()
        )
        assert counters["entries"] == len(erp_db.cache.entries())

    def test_statistics_uses_the_single_snapshot(self, erp_db):
        """The byte total must come from counters_snapshot(), not from a
        second entries() walk: patch entries() to fail and statistics()
        must still produce a consistent cache view."""
        erp_db.query(PROFIT_SQL)
        expected = erp_db.cache.counters_snapshot()

        def boom():
            raise AssertionError(
                "collect_statistics must not re-read manager.entries()"
            )

        original = erp_db.cache.entries
        erp_db.cache.entries = boom
        try:
            stats = erp_db.statistics()
        finally:
            erp_db.cache.entries = original
        assert stats.cache.value_bytes == expected["value_bytes"]
        assert stats.cache.entries == expected["entries"]

    def test_byte_total_never_tears_under_concurrent_eviction(self):
        """entries and value_bytes are read under one lock acquisition, so
        they always describe the same instant even while another thread
        creates and evicts entries."""
        db = make_erp_db()
        load_erp(db, n_headers=6, merge=True)
        stop = threading.Event()
        errors = []

        def churn():
            try:
                while not stop.is_set():
                    db.query(PROFIT_SQL)
                    db.query(HEADER_ITEM_SQL)
                    db.cache.clear()
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            for _ in range(200):
                counters = db.cache.counters_snapshot()
                if counters["entries"] == 0:
                    assert counters["value_bytes"] == 0
                else:
                    assert counters["value_bytes"] > 0
        finally:
            stop.set()
            thread.join()
        assert not errors


class TestLastReportRaces:
    def test_report_travels_with_the_result(self, erp_db):
        result = erp_db.query(PROFIT_SQL)
        assert result.report is not None
        assert result.report.prune.combos_total > 0
        assert erp_db.last_report is result.report

    def test_last_report_is_thread_local(self):
        """Each thread sees its own last_report, never another thread's."""
        db = make_erp_db()
        load_erp(db, n_headers=6, merge=True)
        db.query(PROFIT_SQL)  # warm the cache entry
        barrier = threading.Barrier(4)
        mismatches = []

        def worker():
            barrier.wait()
            for _ in range(30):
                result = db.query(PROFIT_SQL)
                if db.last_report is not result.report:
                    mismatches.append(threading.get_ident())
                    return

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not mismatches

    def test_fresh_thread_has_no_last_report(self, erp_db):
        erp_db.query(PROFIT_SQL)
        seen = {}

        def probe():
            seen["report"] = erp_db.last_report

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        assert seen["report"] is None

