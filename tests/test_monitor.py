"""Tests for the monitoring/statistics views."""

import io

import pytest

from repro import Database, ExecutionStrategy
from repro.monitor import collect_statistics
from repro.shell import Shell

from .conftest import HEADER_ITEM_SQL, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING


def make_db():
    db = make_erp_db()
    load_erp(db, n_headers=4, merge=True)
    load_erp(db, n_headers=1, start_hid=50, merge=False)
    return db


class TestTableStats:
    def test_partition_breakdown(self):
        db = make_db()
        stats = db.statistics()
        item = stats.table("item")
        names = {p.name for p in item.partitions}
        assert names == {"main", "delta"}
        assert item.total_rows == 15
        assert item.total_bytes > 0

    def test_delta_fill(self):
        db = make_db()
        item = db.statistics().table("item")
        assert item.delta_fill == pytest.approx(3 / 15)
        db.merge()
        assert db.statistics().table("item").delta_fill == 0.0

    def test_visible_vs_physical(self):
        db = make_db()
        db.delete("item", 0)
        item = db.statistics().table("item")
        main = next(p for p in item.partitions if p.name == "main")
        assert main.rows == main.visible_rows + 1
        assert main.invalidation_epoch == 1

    def test_unknown_table(self):
        with pytest.raises(KeyError):
            make_db().statistics().table("nope")


class TestCacheStats:
    def test_hit_miss_counters(self):
        db = make_db()
        stats = db.statistics()
        assert stats.cache.entries == 0
        assert stats.cache.hit_rate == 0.0
        db.query(HEADER_ITEM_SQL, strategy=FULL)
        db.query(HEADER_ITEM_SQL, strategy=FULL)
        db.query(HEADER_ITEM_SQL, strategy=FULL)
        stats = db.statistics()
        assert stats.cache.entries == 1
        assert stats.cache.total_misses == 1
        assert stats.cache.total_hits == 2
        assert stats.cache.hit_rate == pytest.approx(2 / 3)

    def test_maintenance_counter(self):
        db = make_db()
        db.query(HEADER_ITEM_SQL, strategy=FULL)
        db.merge()
        assert db.statistics().cache.total_maintenance_runs >= 1

    def test_eviction_counter(self):
        from repro import CacheConfig

        db = make_erp_db(cache_config=CacheConfig(max_entries=1))
        load_erp(db, n_headers=3, merge=True)
        db.query("SELECT cid, COUNT(*) AS n FROM item GROUP BY cid", strategy=FULL)
        db.query("SELECT cid, SUM(price) AS s FROM item GROUP BY cid", strategy=FULL)
        assert db.statistics().cache.total_evictions >= 1


class TestEnforcementStats:
    def test_counts_exposed(self):
        db = make_db()
        stats = db.statistics().enforcement
        assert stats.matching_dependencies == 2
        assert stats.parent_stamps > 0
        assert stats.child_lookups > 0
        assert stats.lookups_failed == 0


class TestRendering:
    def test_render_mentions_everything(self):
        db = make_db()
        db.query(HEADER_ITEM_SQL, strategy=FULL)
        text = db.statistics().render()
        assert "tables:" in text
        assert "item" in text
        assert "aggregate cache:" in text
        assert "matching dependencies:" in text
        assert "refresh:" in text

    def test_shell_stats_command(self):
        db = make_db()
        stdin = io.StringIO("\\stats\n\\quit\n")
        stdout = io.StringIO()
        Shell(db=db, stdin=stdin, stdout=stdout).run()
        assert "aggregate cache:" in stdout.getvalue()


class TestSnapshotCoherence:
    def test_tracked_bytes_comes_from_the_counters_snapshot(self):
        # Regression: the collector used to call ``manager.tracked_bytes()``
        # *outside* the single-lock ``counters_snapshot()``, so a concurrent
        # query could evict or create state between the two reads and the
        # report would disagree with itself.  Raising from the standalone
        # method proves the collector no longer touches it.
        db = make_db()
        db.query(HEADER_ITEM_SQL, strategy=FULL)

        def boom():
            raise AssertionError("tracked_bytes() read outside the snapshot")

        db.cache.tracked_bytes = boom
        stats = collect_statistics(db)
        assert stats.cache.tracked_bytes > 0

    def test_tracked_bytes_matches_manager_when_quiescent(self):
        db = make_db()
        db.query(HEADER_ITEM_SQL, strategy=FULL)
        assert db.statistics().cache.tracked_bytes == db.cache.tracked_bytes()

