"""Crash-recovery tests: checkpoint + WAL replay rebuild the exact state."""

import pytest

from repro import (
    CatalogError,
    Database,
    DurabilityError,
    ExecutionStrategy,
)
from repro.reliability.checkpoint import list_checkpoints
from repro.storage import threshold_aging

from ..conftest import PROFIT_SQL, load_erp, make_erp_db


def reopen(db: Database) -> Database:
    """Close ``db`` and recover a fresh instance from the same directory."""
    path = db.path
    db.close()
    return Database.open(path)


class TestRoundtrip:
    def test_wal_only_recovery(self, tmp_path):
        db = make_erp_db(path=tmp_path / "db")
        load_erp(db, n_headers=4, merge=False)  # no merge => no checkpoint
        expected = db.query(PROFIT_SQL)
        recovered = reopen(db)
        assert recovered.query(PROFIT_SQL) == expected
        assert recovered.recovery_stats.checkpoint_lsn is None
        assert recovered.recovery_stats.transactions_replayed > 0

    def test_checkpoint_plus_wal_suffix(self, tmp_path):
        db = make_erp_db(path=tmp_path / "db")
        load_erp(db, n_headers=4, merge=True)  # merge writes a checkpoint
        load_erp(db, n_headers=2, start_hid=100, merge=False)  # WAL suffix
        expected = db.query(PROFIT_SQL)
        recovered = reopen(db)
        assert recovered.query(PROFIT_SQL) == expected
        assert recovered.recovery_stats.checkpoint_lsn is not None
        # Only the post-checkpoint suffix is replayed, not the whole history.
        assert (
            recovered.recovery_stats.records_replayed
            < recovered.recovery_stats.records_scanned
        )

    def test_merge_with_nothing_to_merge_is_still_logged_and_reported(self, tmp_path):
        db = make_erp_db(path=tmp_path / "db")
        load_erp(db, n_headers=2, merge=True)
        versions = {t.name: t.version for t in db.catalog.tables()}
        logged = sum(r.type == "merge" for r in db.wal.scan().records)
        stats = db.merge()  # empty deltas, unstamped mains
        assert [(s.table, s.groups_merged) for s in stats] == [
            (t.name, 0) for t in db.catalog.tables()
        ]
        assert {t.name: t.version for t in db.catalog.tables()} == versions
        assert sum(r.type == "merge" for r in db.wal.scan().records) == logged + len(stats)
        expected = db.query(PROFIT_SQL)
        assert reopen(db).query(PROFIT_SQL) == expected

    def test_update_and_delete_replay(self, tmp_path):
        db = make_erp_db(path=tmp_path / "db")
        load_erp(db, n_headers=3, merge=False)
        db.update("item", 1, {"price": 99.0})
        db.delete("item", 2)
        expected = db.query(PROFIT_SQL)
        recovered = reopen(db)
        assert recovered.query(PROFIT_SQL) == expected
        assert recovered.table("item").get_row(1)["price"] == 99.0
        assert recovered.table("item").get_row(2) is None

    def test_tid_sequence_continues_after_recovery(self, tmp_path):
        db = make_erp_db(path=tmp_path / "db")
        load_erp(db, n_headers=2, merge=False)
        before = db.transactions.latest_tid
        recovered = reopen(db)
        assert recovered.transactions.latest_tid == before
        recovered.insert("header", {"hid": 500, "year": 2014})
        stamped = recovered.table("header").get_row(500)["tid_header"]
        assert stamped > before

    def test_writes_after_recovery_are_md_stamped(self, tmp_path):
        db = make_erp_db(path=tmp_path / "db")
        load_erp(db, n_headers=2, merge=True)
        recovered = reopen(db)
        recovered.insert_business_object(
            "header",
            {"hid": 700, "year": 2013},
            "item",
            [{"iid": 700, "hid": 700, "cid": 0, "price": 5.0}],
        )
        header_tid = recovered.table("header").get_row(700)["tid_header"]
        item_tid = recovered.table("item").get_row(700)["tid_header"]
        assert header_tid == item_tid  # enforcer active post-recovery

    def test_recover_method_rebuilds_from_disk(self, tmp_path):
        db = make_erp_db(path=tmp_path / "db")
        load_erp(db, n_headers=2, merge=False)
        expected = db.query(PROFIT_SQL)
        recovered = db.recover()
        assert recovered is not db
        assert recovered.query(PROFIT_SQL) == expected
        with pytest.raises(DurabilityError):
            Database().recover()  # in-memory: nothing to recover from

    def test_second_generation_recovery(self, tmp_path):
        """Recover, write more, crash again, recover again."""
        db = make_erp_db(path=tmp_path / "db")
        load_erp(db, n_headers=2, merge=True)
        second = reopen(db)
        load_erp(second, n_headers=2, start_hid=50, merge=False)
        expected = second.query(PROFIT_SQL)
        third = reopen(second)
        assert third.query(PROFIT_SQL) == expected


class TestTornTail:
    def test_torn_final_record_is_dropped_and_truncated(self, tmp_path):
        db = make_erp_db(path=tmp_path / "db")
        load_erp(db, n_headers=3, merge=False)
        expected = db.query(PROFIT_SQL)
        db.close()
        with (tmp_path / "db" / "wal.jsonl").open("ab") as fh:
            fh.write(b'{"crc": 1, "lsn": 9999, "type": "t')
        recovered = Database.open(tmp_path / "db")
        assert recovered.query(PROFIT_SQL) == expected
        assert recovered.recovery_stats.torn_records_dropped == 1
        # The tail was truncated: a third open sees a clean log.
        third = reopen(recovered)
        assert third.recovery_stats.torn_records_dropped == 0
        assert third.query(PROFIT_SQL) == expected


class TestCheckpointFallback:
    def test_corrupt_newest_checkpoint_falls_back(self, tmp_path):
        db = make_erp_db(path=tmp_path / "db")
        load_erp(db, n_headers=2, merge=True)   # checkpoint 1
        load_erp(db, n_headers=2, start_hid=10, merge=True)  # checkpoint 2
        expected = db.query(PROFIT_SQL)
        db.close()
        checkpoints = list_checkpoints(tmp_path / "db" / "checkpoints")
        assert len(checkpoints) >= 2
        newest = checkpoints[0][1]
        newest.write_bytes(b"this is not a checkpoint")
        recovered = Database.open(tmp_path / "db")
        assert recovered.query(PROFIT_SQL) == expected
        # It anchored on the older checkpoint and replayed a longer suffix.
        assert recovered.recovery_stats.checkpoint_lsn == checkpoints[1][0]

    def test_all_checkpoints_corrupt_replays_full_wal(self, tmp_path):
        db = make_erp_db(path=tmp_path / "db")
        load_erp(db, n_headers=2, merge=True)
        expected = db.query(PROFIT_SQL)
        db.close()
        for _, path in list_checkpoints(tmp_path / "db" / "checkpoints"):
            path.write_bytes(b"junk")
        recovered = Database.open(tmp_path / "db")
        assert recovered.query(PROFIT_SQL) == expected
        assert recovered.recovery_stats.checkpoint_lsn is None


class TestDdlReplay:
    def test_drop_table_survives_recovery(self, tmp_path):
        db = make_erp_db(path=tmp_path / "db")
        load_erp(db, n_headers=2, merge=False)
        db.drop_table("category")
        recovered = reopen(db)
        with pytest.raises(CatalogError):
            recovered.table("category")
        assert recovered.table("header").get_row(0) is not None

    def test_keep_history_merge_supports_time_travel_after_recovery(self, tmp_path):
        db = make_erp_db(path=tmp_path / "db")
        load_erp(db, n_headers=2, merge=False)
        as_of = db.transactions.latest_tid
        old = db.query(PROFIT_SQL, as_of=as_of)
        db.update("item", 0, {"price": 1000.0})
        db.merge(keep_history=True)
        recovered = reopen(db)
        assert recovered.query(PROFIT_SQL, as_of=as_of) == old


class TestDurabilityLimits:
    def test_callable_aging_rules_refused_in_durable_mode(self, tmp_path):
        db = Database.open(tmp_path / "db")
        with pytest.raises(DurabilityError):
            db.create_table(
                "t",
                [("id", "INT"), ("year", "INT")],
                primary_key="id",
                aging_rule=lambda row: "hot" if row["year"] >= 2014 else "cold",
            )

    def test_threshold_aging_survives_recovery(self, tmp_path):
        db = Database.open(tmp_path / "db")
        db.create_table(
            "t",
            [("id", "INT"), ("year", "INT")],
            primary_key="id",
            aging_rule=threshold_aging("year", hot_if_at_least=2014),
        )
        db.insert_many(
            "t",
            [
                {"id": 1, "year": 2012},
                {"id": 2, "year": 2014},
                {"id": 3, "year": 2015},
            ],
        )
        db.merge()
        db.insert("t", {"id": 4, "year": 2013})
        recovered = reopen(db)
        table = recovered.table("t")
        assert table.is_aged()
        assert table.aging_rule == threshold_aging("year", hot_if_at_least=2014)
        by_partition = {
            p.name: p.row_count for p in table.partitions() if p.row_count
        }
        assert by_partition == {"hot_main": 2, "cold_main": 1, "cold_delta": 1}

    def test_in_memory_database_has_no_durability(self):
        db = Database()
        assert not db.is_durable
        assert db.wal is None
        assert db.checkpoint() is None
        db.close()  # no-op
        assert db.statistics().durability is None


class TestCacheAcrossRecovery:
    def test_entries_dropped_then_readmitted(self, tmp_path):
        db = make_erp_db(path=tmp_path / "db")
        load_erp(db, n_headers=4, merge=True)
        expected = db.query(PROFIT_SQL, strategy=ExecutionStrategy.CACHED_FULL_PRUNING)
        assert db.cache.entry_count() == 1
        recovered = reopen(db)
        # Cached aggregates are not persisted; the entry is gone...
        assert recovered.cache.entry_count() == 0
        # ...but the cache re-admits on first use with identical results.
        result = recovered.query(
            PROFIT_SQL, strategy=ExecutionStrategy.CACHED_FULL_PRUNING
        )
        assert result == expected
        assert recovered.cache.entry_count() == 1
        again = recovered.query(
            PROFIT_SQL, strategy=ExecutionStrategy.CACHED_FULL_PRUNING
        )
        assert again == expected
        assert recovered.last_report.cache_hits >= 1


class TestStatisticsSurface:
    def test_durability_counters_reported(self, tmp_path):
        db = make_erp_db(path=tmp_path / "db")
        load_erp(db, n_headers=2, merge=True)
        stats = db.statistics()
        assert stats.durability is not None
        assert stats.durability.wal_records_appended > 0
        assert stats.durability.wal_transactions_logged > 0
        assert stats.durability.wal_merges_logged == 3  # one per table
        assert stats.durability.checkpoints_written == 1
        assert not stats.durability.recovered
        assert "durability:" in stats.render()
        recovered = reopen(db)
        rstats = recovered.statistics().durability
        assert rstats.recovered
        assert rstats.recovery_transactions_replayed >= 0
        assert rstats.recovered_tid == db.transactions.latest_tid
        assert "recovered:" in recovered.statistics().render()
