"""The memory-mapped cold tier: demotion, identity, bit-identity, recovery.

The tier contract under test:

* demotion swaps a cold main's backing onto disk files **in place** — same
  partition/fragment objects, no version bump, so plans and memos survive;
* query results are bit-identical across all-resident and tiered layouts
  under every execution mode (full scan, cached, delta-memo incremental);
* the partition synopsis answers prune-relevant facts (min/max/nulls)
  without touching disk;
* released handles reopen transparently; byte accounting splits
  resident vs mapped; reattach after restart CRC-validates the files.
"""

import numpy as np
import pytest

from repro import Database, ExecutionStrategy
from repro.errors import StorageError
from repro.storage import threshold_aging
from repro.storage.coldstore import (
    LazyMainDictionary,
    MappedIntVector,
    demote_partition,
    partition_dir,
    read_manifest,
    release_table,
)

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED

SPAN_SQL = (
    "SELECT h.year AS year, SUM(i.price) AS total, COUNT(*) AS n "
    "FROM header h, item i WHERE h.hid = i.hid GROUP BY h.year"
)


def make_aged_db(cold_path=None, **kwargs) -> Database:
    """header/item both aged on year (consistently), MD installed."""
    db = Database(cold_path=cold_path, **kwargs)
    db.create_table(
        "header",
        [("hid", "INT"), ("year", "INT")],
        primary_key="hid",
        aging_rule=threshold_aging("year", 2014),
    )
    db.create_table(
        "item",
        [("iid", "INT"), ("hid", "INT"), ("year", "INT"), ("price", "FLOAT")],
        primary_key="iid",
        aging_rule=threshold_aging("year", 2014),
    )
    db.add_matching_dependency("header", "hid", "item", "hid")
    db.declare_consistent_aging("header", "item")
    return db


def load_aged(db: Database, n_headers: int = 8, merge: bool = True, start: int = 0):
    """Half the objects land cold (2012/2013), half hot (2014/2015)."""
    for hid in range(start, start + n_headers):
        year = 2012 + hid % 4
        items = [
            {"iid": hid * 10 + k, "hid": hid, "year": year, "price": float(k + 1)}
            for k in range(3)
        ]
        db.insert_business_object("header", {"hid": hid, "year": year}, "item", items)
    if merge:
        db.merge()


@pytest.fixture
def tiered_db(tmp_path):
    db = make_aged_db(cold_path=tmp_path / "cold")
    load_aged(db, n_headers=8, merge=True)
    return db


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
class TestMappedIntVector:
    def _vector(self, tmp_path, values):
        path = tmp_path / "codes.bin"
        path.write_bytes(np.asarray(values, dtype="<i8").tobytes())
        return MappedIntVector(path, len(values))

    def test_reads_and_length(self, tmp_path):
        vec = self._vector(tmp_path, [5, -1, 7])
        assert len(vec) == 3
        assert list(vec) == [5, -1, 7]
        assert vec[0] == 5 and vec[-1] == 7
        assert vec[0:2].tolist() == [5, -1]

    def test_bounds_checked(self, tmp_path):
        vec = self._vector(tmp_path, [1])
        with pytest.raises(IndexError):
            vec[1]
        with pytest.raises(IndexError):
            vec[-2]

    def test_read_only(self, tmp_path):
        vec = self._vector(tmp_path, [1, 2])
        with pytest.raises(StorageError):
            vec[0] = 9

    def test_release_then_reopen(self, tmp_path):
        vec = self._vector(tmp_path, [1, 2, 3])
        assert vec[1] == 2
        assert vec.is_loaded
        vec.release()
        assert not vec.is_loaded
        assert vec[2] == 3  # transparently re-mapped
        assert vec.nbytes() == 24

    def test_zero_length_needs_no_file(self, tmp_path):
        vec = MappedIntVector(tmp_path / "missing.bin", 0)
        assert len(vec) == 0
        assert vec.view().tolist() == []


class TestLazyMainDictionary:
    def _dictionary(self, tmp_path, values):
        import json

        path = tmp_path / "d.json"
        path.write_text(json.dumps(sorted(values)))
        return LazyMainDictionary(path, len(values), min(values), max(values))

    def test_metadata_without_io(self, tmp_path):
        # The file deliberately does not exist: metadata must not touch it.
        lazy = LazyMainDictionary(tmp_path / "absent.json", 4, "a", "z")
        assert len(lazy) == 4
        assert lazy.min_value() == "a"
        assert lazy.max_value() == "z"
        assert not lazy.is_loaded
        assert lazy.loaded_nbytes() == 0

    def test_data_access_loads(self, tmp_path):
        lazy = self._dictionary(tmp_path, [10, 20, 30])
        assert lazy.decode(1) == 20
        assert lazy.is_loaded
        assert lazy.lookup(30) == 2
        assert 10 in lazy and 99 not in lazy
        assert lazy.values() == [10, 20, 30]

    def test_release_frees_and_reloads(self, tmp_path):
        lazy = self._dictionary(tmp_path, [1, 2])
        lazy.decode(0)
        assert lazy.release() > 0
        assert not lazy.is_loaded
        assert lazy.decode(1) == 2  # reloaded on demand


# ----------------------------------------------------------------------
# demotion mechanics
# ----------------------------------------------------------------------
class TestDemotion:
    def test_swap_preserves_identity_and_version(self, tiered_db):
        table = tiered_db.table("header")
        partition = table.group("cold").main
        fragment = partition.column("year")
        version_before = table.version
        partition_version = partition.version

        demoted = tiered_db.age_out()
        assert ("header", partition.name) in demoted
        assert table.group("cold").main is partition  # same object
        assert partition.column("year") is fragment  # same fragment
        assert partition.storage_tier == "mapped"
        assert fragment.is_mapped
        assert table.version == version_before  # no memo/plan invalidation
        assert partition.version == partition_version

    def test_idempotent(self, tiered_db):
        first = tiered_db.age_out()
        assert first
        assert tiered_db.age_out() == []

    def test_only_mains_demotable(self, tiered_db, tmp_path):
        delta = tiered_db.table("header").group("cold").delta
        with pytest.raises(StorageError):
            demote_partition("header", delta, tmp_path / "cold2")

    def test_in_memory_db_without_cold_path_refuses(self):
        from repro.errors import DurabilityError

        db = make_aged_db()
        load_aged(db, n_headers=4)
        with pytest.raises(DurabilityError):
            db.age_out()

    def test_rows_identical_after_demotion(self, tiered_db):
        partition = tiered_db.table("item").group("cold").main
        before = [partition.get_row(i) for i in range(partition.row_count)]
        tiered_db.age_out()
        after = [partition.get_row(i) for i in range(partition.row_count)]
        assert after == before

    def test_manifest_written_and_validated(self, tiered_db):
        tiered_db.age_out()
        partition = tiered_db.table("header").group("cold").main
        manifest = read_manifest(
            partition_dir(tiered_db.cold_dir, "header", partition.name)
        )
        assert manifest is not None
        assert manifest["row_count"] == partition.row_count
        assert [c["name"] for c in manifest["columns"]] == partition.column_names()

    def test_drop_table_removes_cold_files(self, tiered_db):
        tiered_db.age_out()
        table_dir = tiered_db.cold_dir / "header"
        assert table_dir.is_dir()
        tiered_db.drop_table("header")
        assert not table_dir.exists()


class TestByteAccounting:
    def test_resident_vs_mapped_split(self, tiered_db):
        table = tiered_db.table("item")
        resident_before = table.nbytes_resident()
        assert table.nbytes_mapped() == 0
        tiered_db.age_out()
        assert table.nbytes_mapped() > 0
        assert table.nbytes_resident() < resident_before
        tiers = table.tier_bytes()
        assert set(tiers) == {"hot", "cold_resident", "cold_mapped"}
        assert tiers["cold_mapped"] > 0
        assert tiers["hot"] > 0

    def test_release_cold_frees_loaded_handles(self, tiered_db):
        tiered_db.age_out()
        table = tiered_db.table("item")
        # Touch the data so the lazy dictionaries materialize.
        tiered_db.query(SPAN_SQL, strategy=UNCACHED)
        assert release_table(table) > 0
        # Released handles reopen transparently.
        assert tiered_db.query(SPAN_SQL, strategy=UNCACHED).rows

    def test_governor_cold_shed_runs_first(self, tmp_path):
        db = make_aged_db(cold_path=tmp_path / "cold")
        load_aged(db, n_headers=8)
        db.age_out()
        db.query(SPAN_SQL, strategy=FULL)  # load handles + create an entry
        entries = db.cache.entry_count()
        # Just below the footprint: releasing the cold handles covers it,
        # nothing that needs a recompute goes.
        shed = db.cache.shed_to_budget(db.cache.tracked_bytes() - 1)
        assert shed == {"cold": 1, "memo": 0, "entry": 0, "plan": 0}
        assert db.cache.entry_count() == entries
        # Shedding must not break subsequent queries.
        assert db.query(SPAN_SQL, strategy=UNCACHED).rows


# ----------------------------------------------------------------------
# synopsis
# ----------------------------------------------------------------------
class TestSynopsis:
    def test_min_max_nulls_without_disk(self, tiered_db):
        tiered_db.age_out()
        partition = tiered_db.table("header").group("cold").main
        fragment = partition.column("year")
        assert partition.min_value("year") == 2012
        assert partition.max_value("year") == 2013
        assert partition.has_nulls("year") is False
        # The verdicts came from the synopsis: nothing was loaded.
        assert not fragment.dictionary.is_loaded

    def test_synopsis_skips_counted_in_reports(self, tmp_path):
        db = make_aged_db(cold_path=tmp_path / "cold")
        load_aged(db, n_headers=8)
        db.age_out()
        db.query(SPAN_SQL, strategy=FULL)
        prune = db.last_report.prune
        assert prune.pruned_total > 0
        assert prune.synopsis_skips > 0
        assert prune.synopsis_skips <= prune.pruned_total


# ----------------------------------------------------------------------
# bit-identity across layouts and execution modes
# ----------------------------------------------------------------------
class TestBitIdentity:
    def _pair(self, tmp_path):
        resident = make_aged_db()
        tiered = make_aged_db(cold_path=tmp_path / "cold")
        for db in (resident, tiered):
            load_aged(db, n_headers=8, merge=True)
            load_aged(db, n_headers=2, start=100, merge=False)
        tiered.age_out()
        return resident, tiered

    def _assert_identical(self, a, b):
        assert a.columns == b.columns
        assert a.rows == b.rows
        for row_a, row_b in zip(a.rows, b.rows):
            assert [type(v) for v in row_a] == [type(v) for v in row_b]

    def test_serial(self, tmp_path):
        resident, tiered = self._pair(tmp_path)
        for strategy in (UNCACHED, FULL):
            self._assert_identical(
                resident.query(SPAN_SQL, strategy=strategy),
                tiered.query(SPAN_SQL, strategy=strategy),
            )

    def test_delta_memo_incremental(self, tmp_path):
        # The delta memo only engages on single-entry plans, which aged
        # (multi-combo) tables never produce — so demote a *default*-group
        # main directly through the coldstore API instead of age_out().
        def build(cold=None):
            db = Database()
            db.create_table(
                "header", [("hid", "INT"), ("year", "INT")], primary_key="hid"
            )
            db.create_table(
                "item",
                [("iid", "INT"), ("hid", "INT"), ("price", "FLOAT")],
                primary_key="iid",
            )
            db.add_matching_dependency("header", "hid", "item", "hid")
            for hid in range(8):
                db.insert_business_object(
                    "header",
                    {"hid": hid, "year": 2012 + hid % 4},
                    "item",
                    [
                        {"iid": hid * 10 + k, "hid": hid, "price": float(k + 1)}
                        for k in range(3)
                    ],
                )
            db.merge()
            # Deltas must be non-empty before the memo is built, else the
            # plan excludes them and later growth forces a rebuild.
            for hid in (100, 101):
                db.insert_business_object(
                    "header",
                    {"hid": hid, "year": 2014},
                    "item",
                    [{"iid": hid * 10, "hid": hid, "price": 2.0}],
                )
            if cold is not None:
                for name in ("header", "item"):
                    table = db.table(name)
                    demote_partition(name, table.group("default").main, cold)
            return db

        resident, tiered = build(), build(cold=tmp_path / "cold")
        for db in (resident, tiered):
            db.query(SPAN_SQL, strategy=FULL)
            for hid in (200, 201):  # fresh delta rows between the two hits
                db.insert_business_object(
                    "header",
                    {"hid": hid, "year": 2014},
                    "item",
                    [{"iid": hid * 10, "hid": hid, "price": 4.0}],
                )
        result_resident = resident.query(SPAN_SQL, strategy=FULL)
        result_tiered = tiered.query(SPAN_SQL, strategy=FULL)
        assert resident.last_report.delta_memo_mode == "incremental"
        assert tiered.last_report.delta_memo_mode == "incremental"
        self._assert_identical(result_resident, result_tiered)

    def test_warm_hit_leaves_cold_stamps_unmapped(self, tiered_db):
        tiered_db.age_out()
        expected = tiered_db.query(SPAN_SQL, strategy=UNCACHED)
        tiered_db.query(SPAN_SQL, strategy=FULL)  # builds the entries
        for name in ("header", "item"):
            release_table(tiered_db.table(name))
        again = tiered_db.query(SPAN_SQL, strategy=FULL)
        assert tiered_db.last_report.cache_hits >= 2
        assert again.rows == expected.rows
        # No cold main was invalidated: its step from birth is empty, known
        # without opening its stamp file.
        for name in ("header", "item"):
            dts = tiered_db.table(name).group("cold").main._dts
            assert dts.is_mapped_store and not dts.is_loaded

    def test_cache_entry_survives_demotion(self, tmp_path):
        db = make_aged_db(cold_path=tmp_path / "cold")
        load_aged(db, n_headers=8)
        baseline = db.query(SPAN_SQL, strategy=FULL)
        entries = db.cache.entry_count()
        assert entries > 0
        db.age_out()
        # Demotion bumps no versions: the entries and plan are still valid.
        assert db.cache.entry_count() == entries
        again = db.query(SPAN_SQL, strategy=FULL)
        assert db.last_report.cache_hits >= 1
        assert again.rows == baseline.rows


# ----------------------------------------------------------------------
# mutation of demoted partitions
# ----------------------------------------------------------------------
class TestColdMutation:
    def test_delete_promotes_dts_and_stays_correct(self, tiered_db):
        tiered_db.age_out()
        before = tiered_db.query(SPAN_SQL, strategy=UNCACHED)
        # hid=0 is a 2012 (cold) object: its rows live in the mapped mains.
        tiered_db.delete("item", 0)  # iid 0 belongs to hid 0
        partition = tiered_db.table("item").group("cold").main
        assert partition.storage_tier == "mapped"  # codes/cts still mapped
        after = tiered_db.query(SPAN_SQL, strategy=UNCACHED)
        total_before = sum(r[1] for r in before.rows)
        total_after = sum(r[1] for r in after.rows)
        assert total_after == total_before - 1.0  # iid 0 had price 1.0
        # Uncached and cached agree on the mutated cold data.
        cached = tiered_db.query(SPAN_SQL, strategy=FULL)
        assert cached.rows == after.rows


# ----------------------------------------------------------------------
# restart: reattach or discard
# ----------------------------------------------------------------------
class TestReattach:
    def _durable_aged_db(self, path):
        db = Database.open(path)
        db.create_table(
            "header",
            [("hid", "INT"), ("year", "INT")],
            primary_key="hid",
            aging_rule=threshold_aging("year", 2014),
        )
        db.create_table(
            "item",
            [("iid", "INT"), ("hid", "INT"), ("year", "INT"), ("price", "FLOAT")],
            primary_key="iid",
            aging_rule=threshold_aging("year", 2014),
        )
        db.add_matching_dependency("header", "hid", "item", "hid")
        db.declare_consistent_aging("header", "item")
        return db

    def test_cold_tier_survives_restart(self, tmp_path):
        db = self._durable_aged_db(tmp_path / "db")
        load_aged(db, n_headers=8)
        db.age_out()
        expected = db.query(SPAN_SQL, strategy=UNCACHED)
        db.close()

        recovered = Database.open(tmp_path / "db")
        for name in ("header", "item"):
            assert recovered.table(name).group("cold").main.storage_tier == "mapped"
        assert recovered.query(SPAN_SQL, strategy=UNCACHED).rows == expected.rows
        recovered.close()

    def test_corrupted_cold_file_discarded(self, tmp_path):
        db = self._durable_aged_db(tmp_path / "db")
        load_aged(db, n_headers=8)
        db.age_out()
        expected = db.query(SPAN_SQL, strategy=UNCACHED)
        partition = db.table("header").group("cold").main
        cold = partition_dir(db.cold_dir, "header", partition.name)
        db.close()

        # Flip a byte in the year code vector: the CRC no longer matches.
        data = bytearray((cold / "year.codes.bin").read_bytes())
        data[0] ^= 0xFF
        (cold / "year.codes.bin").write_bytes(bytes(data))

        recovered = Database.open(tmp_path / "db")
        assert recovered.table("header").group("cold").main.storage_tier == "resident"
        assert not cold.exists()  # stale directory was deleted
        assert recovered.query(SPAN_SQL, strategy=UNCACHED).rows == expected.rows
        recovered.close()

    def test_stale_cold_files_after_remerge_discarded(self, tmp_path):
        db = self._durable_aged_db(tmp_path / "db")
        load_aged(db, n_headers=8)
        db.age_out()
        # New cold business + merge rebuilds the cold main resident; the
        # old cold files now describe a shorter partition.
        load_aged(db, n_headers=4, start=50, merge=True)
        expected = db.query(SPAN_SQL, strategy=UNCACHED)
        db.close()

        recovered = Database.open(tmp_path / "db")
        assert recovered.table("header").group("cold").main.storage_tier == "resident"
        assert recovered.query(SPAN_SQL, strategy=UNCACHED).rows == expected.rows
        # Re-demotion from the recovered state works.
        demoted = recovered.age_out()
        assert ("header", "cold_main") in demoted
        assert recovered.query(SPAN_SQL, strategy=UNCACHED).rows == expected.rows
        recovered.close()
