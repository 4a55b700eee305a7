"""Degraded serving: a WAL fault episode and a failing cache path.

A record the WAL refuses (after its in-place retries) waits in the
database's backlog.  While the backlog is non-empty the database is
WAL-degraded: every write drains it first and is rejected with a typed
error, applying nothing, when the drain fails; reads keep serving.  The
first write after the log heals goes through, with no cooldown.
``db.health()``, the shell's ``\\health`` and the ``repro_governor_*``
metrics say the same.  A failing cached read falls back to base-table
execution every time and degrades nothing.
"""

import io

import pytest

from repro import (
    Database,
    ExecutionStrategy,
    FaultInjector,
    WriteRejectedError,
    parse_prometheus,
)
from repro.errors import DurabilityError
from repro.shell import Shell

from ..conftest import PROFIT_SQL, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED
SUM_SQL = "SELECT k AS k, SUM(v) AS v FROM t GROUP BY k"


def _durable(tmp_path):
    faults = FaultInjector()
    db = Database(path=tmp_path / "db", fault_injector=faults)
    db.create_table("t", [("k", "INT"), ("v", "INT")], primary_key="k")
    return db, faults


def _rows(db):
    return {k: int(v) for k, v in db.query(SUM_SQL, strategy=UNCACHED).rows}


class TestWalDegraded:
    def test_episode_trips_recovers_and_is_observable(self, tmp_path):
        db, faults = _durable(tmp_path)
        db.insert("t", {"k": 1, "v": 10})
        assert db.health().modes == []

        faults.arm("wal.append", mode="io_error", times=None)
        # The first failing append exhausts its retries: the row is live
        # (the engine has no undo) and its record waits in the backlog.
        with pytest.raises(DurabilityError):
            db.insert("t", {"k": 2, "v": 20})
        assert db.health().modes == ["wal_degraded"]
        # Every later write is rejected before anything is applied.
        rejections = 0
        for k in range(3, 8):
            with pytest.raises(WriteRejectedError):
                db.insert("t", {"k": k, "v": k})
            rejections += 1
        with pytest.raises(WriteRejectedError):
            db.create_table("u", [("k", "INT")], primary_key="k")
        rejections += 1
        assert "u" not in db.catalog.table_names()

        health = db.health()
        assert health.state == "degraded"
        assert health.modes == ["wal_degraded"]
        assert health.writes_rejected == rejections
        assert health.retries.get("wal.append", 0) > 0

        # Reads are still served while WAL-degraded, and they show the
        # row whose record is queued but none of the rejected writes.
        assert _rows(db) == {1: 10, 2: 20}

        # The shell surfaces the same picture.
        out = io.StringIO()
        Shell(db=db, stdin=io.StringIO("\\health\n"), stdout=out).run()
        assert "modes: wal_degraded" in out.getvalue()
        assert f"writes rejected: {rejections}" in out.getvalue()

        # And so do the metrics.
        samples = parse_prometheus(db.export_metrics())
        assert samples["repro_governor_writes_rejected_total"] == rejections
        assert (
            samples['repro_governor_retries_total{point="wal.append"}']
            == health.retries["wal.append"]
        )
        assert not any("breaker" in name for name in samples)

        # The fault clears: the very next write drains the backlog and
        # goes through — no sleep, no probe window.
        faults.disarm("wal.append")
        db.insert("t", {"k": 99, "v": 99})
        health = db.health()
        assert health.state == "healthy"
        assert health.modes == []
        assert db.statistics().health.modes == []
        db.close()

        recovered = Database.open(tmp_path / "db")
        try:
            assert _rows(recovered) == {1: 10, 2: 20, 99: 99}
        finally:
            recovered.close()

    def test_write_while_fault_live_stays_degraded(self, tmp_path):
        db, faults = _durable(tmp_path)
        faults.arm("wal.append", mode="io_error", times=None)
        with pytest.raises(DurabilityError):
            db.insert("t", {"k": 0, "v": 0})
        # Each rejected write is a probe: it tries the backlog again.
        hits = faults.hits["wal.append"]
        with pytest.raises(WriteRejectedError):
            db.insert("t", {"k": 50, "v": 50})
        assert faults.hits["wal.append"] > hits
        assert db.health().modes == ["wal_degraded"]
        assert db.table("t").get_row(50) is None
        db.close()

    def test_backlog_is_bounded_by_open_transactions(self, tmp_path):
        db, faults = _durable(tmp_path)
        open_txn = db.begin()
        db.insert("t", {"k": 1, "v": 1}, txn=open_txn)
        faults.arm("wal.append", mode="io_error", times=None)
        with pytest.raises(DurabilityError):
            db.insert("t", {"k": 2, "v": 2})
        for k in range(10, 40):
            with pytest.raises(WriteRejectedError):
                db.insert("t", {"k": k, "v": k})
        assert len(db._wal_backlog) == 1
        # A transaction opened before the episode still finishes; its
        # record joins the queue behind the first one.
        with pytest.raises(DurabilityError):
            open_txn.commit()
        assert len(db._wal_backlog) == 2
        faults.disarm("wal.append")
        db.close()  # a clean close drains the backlog

        recovered = Database.open(tmp_path / "db")
        try:
            assert _rows(recovered) == {1: 1, 2: 2}
        finally:
            recovered.close()

    def test_checkpoint_clears_the_backlog(self, tmp_path):
        db, faults = _durable(tmp_path)
        faults.arm("wal.append", mode="io_error", times=None)
        with pytest.raises(DurabilityError):
            db.insert("t", {"k": 7, "v": 70})
        assert db.health().modes == ["wal_degraded"]
        # The checkpoint captures the queued record's effects, so the
        # record must never be appended after it.
        db.checkpoint()
        assert db.health().modes == []
        faults.disarm("wal.append")
        db.insert("t", {"k": 8, "v": 80})
        db.close()

        recovered = Database.open(tmp_path / "db")
        try:
            assert _rows(recovered) == {7: 70, 8: 80}
        finally:
            recovered.close()

    def test_failed_checkpoint_degrades_nothing(self, tmp_path):
        db, faults = _durable(tmp_path)
        db.insert("t", {"k": 1, "v": 1})
        faults.arm("checkpoint.write", mode="io_error", times=None)
        with pytest.raises(DurabilityError):
            db.checkpoint()
        assert db.health().modes == []
        db.insert("t", {"k": 2, "v": 2})  # the WAL holds every record
        db.close()

        recovered = Database.open(tmp_path / "db")
        try:
            assert _rows(recovered) == {1: 1, 2: 2}
        finally:
            recovered.close()

    def test_in_memory_database_never_wal_degrades(self):
        db = make_erp_db()
        load_erp(db, n_headers=3)
        assert db.health().modes == []


class TestCacheDegraded:
    def _failing_cache_db(self, times=None):
        faults = FaultInjector()
        db = make_erp_db(fault_injector=faults)
        load_erp(db, n_headers=6, merge=True)
        load_erp(db, n_headers=2, start_hid=100, merge=False)
        expected = db.query(PROFIT_SQL, strategy=UNCACHED).rows
        faults.arm("cache.compensation", mode="raise", times=times)
        return db, faults, expected

    def test_cache_failure_falls_back_to_base_tables(self):
        db, faults, expected = self._failing_cache_db(times=1)
        result = db.query(PROFIT_SQL, strategy=FULL)
        assert result.rows == expected
        assert result.report.fallback_uncached
        assert result.report.degraded_reason == "fallback"

    def test_repeated_failures_each_fall_back(self):
        db, faults, expected = self._failing_cache_db(times=None)
        for n in range(1, 6):
            result = db.query(PROFIT_SQL, strategy=FULL)
            assert result.rows == expected
            assert result.report.degraded_reason == "fallback"
            # No bypass: every query tries the cached path again.
            assert faults.hits["cache.compensation"] == n
        health = db.health()
        assert health.modes == []  # a failed cached read degrades nothing
        assert health.degraded_queries == 5

    def test_disarmed_fault_serves_from_cache_at_once(self):
        db, faults, expected = self._failing_cache_db(times=None)
        for _ in range(3):
            db.query(PROFIT_SQL, strategy=FULL)
        faults.disarm("cache.compensation")
        result = db.query(PROFIT_SQL, strategy=FULL)
        assert result.rows == expected
        assert result.report.degraded_reason == ""
        assert not result.report.fallback_uncached

    def test_degraded_queries_metric_labelled_by_reason(self):
        db, faults, expected = self._failing_cache_db(times=None)
        for _ in range(3):
            db.query(PROFIT_SQL, strategy=FULL)
        samples = parse_prometheus(db.export_metrics())
        degraded = {
            name: value
            for name, value in samples.items()
            if name.startswith("repro_governor_degraded_queries_total")
        }
        assert degraded == {
            'repro_governor_degraded_queries_total{reason="fallback"}': 3.0
        }

    def test_timeouts_are_not_cache_failures(self, erp_db):
        """A deadline abort is the *governor's* doing, not a cache fault."""
        from repro import QueryTimeout

        for _ in range(10):
            with pytest.raises(QueryTimeout):
                erp_db.query(PROFIT_SQL, strategy=FULL, timeout_ms=0.0)
        health = erp_db.health()
        assert health.degraded_queries == 0
        assert health.timeouts == 10
