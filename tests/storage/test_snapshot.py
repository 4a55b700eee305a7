"""Tests for save_database / load_database: one checkpoint file."""

import json
import threading
import time
import zlib

import pytest

from repro import Database, ExecutionStrategy
from repro.errors import DurabilityError, StorageError
from repro.reliability.checkpoint import list_checkpoints
from repro.storage import Partition, load_database, save_database, threshold_aging

from ..conftest import (
    HEADER_ITEM_SQL,
    PROFIT_SQL,
    assert_same_pk_lookups,
    load_erp,
    make_erp_db,
    scatter_erp_writes,
)

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED


def populated_db():
    db = make_erp_db()
    load_erp(db, n_headers=5, merge=True)
    load_erp(db, n_headers=2, start_hid=60, merge=False)
    db.update("item", 0, {"price": 99.0})
    db.delete("item", 1)
    return db


class TestRoundTrip:
    def test_queries_identical_after_reload(self, tmp_path):
        db = populated_db()
        expected_profit = db.query(PROFIT_SQL, strategy=UNCACHED)
        expected_join = db.query(HEADER_ITEM_SQL, strategy=UNCACHED)
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        assert restored.query(PROFIT_SQL, strategy=UNCACHED) == expected_profit
        assert restored.query(HEADER_ITEM_SQL, strategy=FULL) == expected_join

    def test_filled_deltas_restore_every_key(self, tmp_path):
        db = make_erp_db(separate_update_delta=True)
        keys = scatter_erp_writes(db)
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        assert_same_pk_lookups(restored, db, keys)
        assert restored.table("item").pk_lookup(2).partition == "delta"
        assert restored.table("item").pk_lookup(0).partition == "udelta"
        assert restored.table("item").pk_lookup(5001) is None

    def test_partition_layout_preserved(self, tmp_path):
        db = populated_db()
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        for name in db.catalog.table_names():
            original = {p.name: p.row_count for p in db.table(name).partitions()}
            loaded = {p.name: p.row_count for p in restored.table(name).partitions()}
            assert loaded == original, name

    def test_mvcc_stamps_and_visibility_preserved(self, tmp_path):
        db = populated_db()
        checkpoint = 4  # an early snapshot tid
        past = db.query("SELECT COUNT(*) AS n FROM item", as_of=checkpoint)
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        assert restored.query("SELECT COUNT(*) AS n FROM item", as_of=checkpoint) == past

    def test_writes_continue_after_reload(self, tmp_path):
        db = populated_db()
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        # tids continue past the snapshot high-water mark
        txn = restored.begin()
        assert txn.tid > db.transactions.global_snapshot() - 1
        restored.insert("header", {"hid": 900, "year": 2014}, txn=txn)
        txn.commit()
        restored.insert("item", {"iid": 9000, "hid": 900, "cid": 0, "price": 5.0})
        assert restored.query(HEADER_ITEM_SQL, strategy=FULL) == restored.query(
            HEADER_ITEM_SQL, strategy=UNCACHED
        )

    def test_matching_dependencies_restored(self, tmp_path):
        db = populated_db()
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        assert len(restored.enforcer.dependencies()) == 2
        # Enforcement still stamps new child rows.
        restored.insert("header", {"hid": 901, "year": 2014})
        restored.insert("item", {"iid": 9001, "hid": 901, "cid": 0, "price": 1.0})
        row = restored.table("item").get_row(9001)
        assert row["tid_header"] == restored.table("header").get_row(901)["tid_header"]

    def test_table_ids_preserved_and_not_reused(self, tmp_path):
        db = populated_db()
        ids = {name: db.table(name).table_id for name in db.catalog.table_names()}
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        for name, table_id in ids.items():
            assert restored.table(name).table_id == table_id
        fresh = restored.create_table("extra", [("x", "INT")])
        assert fresh.table_id > max(ids.values())

    def test_history_survives(self, tmp_path):
        db = make_erp_db()
        load_erp(db, n_headers=3, merge=False)
        checkpoint = db.transactions.global_snapshot()
        db.delete("item", 0)
        db.merge(keep_history=True)
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        past = restored.query("SELECT COUNT(*) AS n FROM item", as_of=checkpoint)
        now = restored.query("SELECT COUNT(*) AS n FROM item")
        assert past.rows[0][0] == now.rows[0][0] + 1


class TestAgedAndUpdateDelta:
    def test_save_refuses_callable_rule_and_writes_nothing(self, tmp_path):
        db = Database()
        rule = lambda row: "hot" if (row["year"] or 0) >= 2014 else "cold"
        db.create_table(
            "t", [("k", "INT"), ("year", "INT")], primary_key="k", aging_rule=rule
        )
        db.insert("t", {"k": 1, "year": 2015})
        with pytest.raises(DurabilityError):
            save_database(db, tmp_path / "snap")
        assert not (tmp_path / "snap").exists()

    def test_threshold_aging_round_trips(self, tmp_path):
        db = Database()
        rule = threshold_aging("year", 2014)
        db.create_table(
            "t", [("k", "INT"), ("year", "INT")], primary_key="k", aging_rule=rule
        )
        db.insert("t", {"k": 1, "year": 2015})
        db.insert("t", {"k": 2, "year": 2010})
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        assert restored.table("t").aging_rule == rule
        assert restored.table("t").partition("hot_delta").row_count == 1
        assert restored.table("t").partition("cold_delta").row_count == 1
        # New inserts keep routing through the restored rule.
        restored.insert("t", {"k": 3, "year": 2016})
        assert restored.table("t").partition("hot_delta").row_count == 2

    def test_update_delta_layout_preserved(self, tmp_path):
        db = Database()
        db.create_table(
            "t", [("k", "INT"), ("v", "FLOAT")], primary_key="k",
            separate_update_delta=True,
        )
        db.insert("t", {"k": 1, "v": 1.0})
        db.merge()
        db.update("t", 1, {"v": 2.0})
        save_database(db, tmp_path / "snap")
        restored = load_database(tmp_path / "snap")
        assert restored.table("t").partition("udelta").row_count == 1
        assert restored.table("t").get_row(1)["v"] == 2.0


class TestDurableLoad:
    def test_load_with_path_survives_reopen(self, tmp_path):
        """The restored rows bypass the WAL; the checkpoint written right
        after the restore is what makes them durable."""
        db = Database()
        db.create_table("t", [("k", "INT"), ("v", "INT")], primary_key="k")
        for k in range(5):
            db.insert("t", {"k": k, "v": 10 * k})
        save_database(db, tmp_path / "snap")

        loaded = load_database(tmp_path / "snap", path=tmp_path / "db")
        served = loaded.query("SELECT k AS k, SUM(v) AS v FROM t GROUP BY k").rows
        assert len(served) == 5
        loaded.insert("t", {"k": 5, "v": 50})  # the WAL continues past it
        loaded.close()

        reopened = Database.open(tmp_path / "db")
        try:
            rows = reopened.query("SELECT k AS k, SUM(v) AS v FROM t GROUP BY k").rows
            assert rows == served + [(5, 50)]
            assert reopened.recovery_stats.checkpoint_lsn is not None
        finally:
            reopened.close()


class TestErrors:
    def test_missing_snapshot(self, tmp_path):
        with pytest.raises(StorageError):
            load_database(tmp_path / "nothing")

    def test_torn_checkpoint_file(self, tmp_path):
        root = save_database(populated_db(), tmp_path / "snap")
        [(_, path)] = list_checkpoints(root)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(StorageError):
            load_database(root)

    def test_crc_mismatch(self, tmp_path):
        root = save_database(populated_db(), tmp_path / "snap")
        [(_, path)] = list_checkpoints(root)
        document = json.loads(path.read_text())
        document["state"]["latest_tid"] += 1
        path.write_text(json.dumps(document))
        with pytest.raises(StorageError):
            load_database(root)

    def test_bad_format_version(self, tmp_path):
        root = save_database(populated_db(), tmp_path / "snap")
        [(_, path)] = list_checkpoints(root)
        state = json.loads(path.read_text())["state"]
        state["format_version"] = 999
        payload = json.dumps(state, sort_keys=True, separators=(",", ":"))
        path.write_text(
            json.dumps({"crc": zlib.crc32(payload.encode("utf-8")), "state": state})
        )
        with pytest.raises(StorageError):
            load_database(root)


class TestConcurrentSave:
    def test_saves_during_writes_restore_one_state(self, tmp_path, monkeypatch):
        """A save takes the database lock: each image holds exactly the
        writes made before it, however the writer interleaves."""
        db = Database()
        db.create_table("t", [("k", "INT"), ("v", "FLOAT")], primary_key="k")
        for k in range(300):
            db.insert("t", {"k": k, "v": 0.0})
        inserted = [300]
        errors = []
        stop = threading.Event()

        def writer():
            k = 300
            try:
                while not stop.is_set():
                    db.insert("t", {"k": k, "v": 0.0})
                    inserted[0] = k = k + 1
                    # A new version of an older key: an image that takes its
                    # invalidation without the version loses the key.
                    db.update("t", k // 2, {"v": float(k)})
                    time.sleep(0.0002)  # bounds the table, and the test's time
            except Exception as err:  # surfaced by the assert below
                errors.append(err)

        # Yield to the writer between reading a partition's stamps and the
        # rest of it, where an unlocked save interleaves with writes.
        cts_array = Partition.cts_array

        def yielding_cts_array(partition):
            stamps = cts_array(partition)
            time.sleep(0.001)
            return stamps

        monkeypatch.setattr(Partition, "cts_array", yielding_cts_array)
        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            deadline = time.monotonic() + 1.5
            for attempt in range(20):
                before = inserted[0]
                root = save_database(db, tmp_path / f"snap{attempt}")
                after = inserted[0]
                n, total = load_database(root).query(
                    "SELECT COUNT(*) AS n, SUM(k) AS s FROM t"
                ).rows[0]
                assert before <= n <= after + 1
                assert total == n * (n - 1) // 2  # keys 0..n-1, none lost
                if time.monotonic() > deadline:
                    break
        finally:
            stop.set()
            thread.join(timeout=5)
        assert not thread.is_alive()
        assert errors == [] and inserted[0] > 300
