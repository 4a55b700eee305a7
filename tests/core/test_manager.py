"""Tests for the aggregate cache manager's query path (Fig. 3)."""

import pytest

from repro import (
    AlwaysAdmit,
    CacheConfig,
    Database,
    ExecutionStrategy,
    LruEviction,
    ProfitAdmission,
)
from repro.core import EntryStatus

from ..conftest import HEADER_ITEM_SQL, PROFIT_SQL, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
NO_PRUNE = ExecutionStrategy.CACHED_NO_PRUNING
EMPTY = ExecutionStrategy.CACHED_EMPTY_DELTA
UNCACHED = ExecutionStrategy.UNCACHED


class TestCacheLifecycle:
    def test_miss_creates_entry_then_hits(self, erp_db):
        erp_db.query(PROFIT_SQL, strategy=FULL)
        assert erp_db.last_report.entries_created == 1
        assert erp_db.last_report.cache_hits == 0
        erp_db.query(PROFIT_SQL, strategy=FULL)
        assert erp_db.last_report.entries_created == 0
        assert erp_db.last_report.cache_hits == 1
        assert erp_db.cache.entry_count() == 1

    def test_entry_value_covers_main_only(self, erp_db):
        erp_db.query(HEADER_ITEM_SQL, strategy=FULL)
        (entry,) = erp_db.cache.entries_for(erp_db.parse(HEADER_ITEM_SQL))
        # 6 objects x 3 items in the mains; the 2 delta objects are excluded.
        assert entry.metrics.aggregated_records_main == 18

    def test_structurally_equal_queries_share_entries(self, erp_db):
        erp_db.query(HEADER_ITEM_SQL, strategy=FULL)
        reordered = (
            "SELECT i.cid AS cid, SUM(i.price) AS profit, COUNT(*) AS n "
            "FROM item i, header h WHERE i.hid = h.hid GROUP BY i.cid"
        )
        erp_db.query(reordered, strategy=FULL)
        assert erp_db.last_report.cache_hits == 1
        assert erp_db.cache.entry_count() == 1

    def test_different_filters_get_distinct_entries(self, erp_db):
        erp_db.query(HEADER_ITEM_SQL, strategy=FULL)
        filtered = HEADER_ITEM_SQL.replace(
            "WHERE h.hid = i.hid", "WHERE h.hid = i.hid AND h.year = 2013"
        )
        erp_db.query(filtered, strategy=FULL)
        assert erp_db.cache.entry_count() == 2

    def test_uncached_strategy_creates_no_entries(self, erp_db):
        erp_db.query(PROFIT_SQL, strategy=UNCACHED)
        assert erp_db.cache.entry_count() == 0
        assert erp_db.last_report.strategy is UNCACHED

    def test_min_max_falls_back_uncached(self, erp_db):
        sql = "SELECT cid, MAX(price) AS m FROM item GROUP BY cid"
        result = erp_db.query(sql, strategy=FULL)
        assert erp_db.last_report.fallback_uncached
        assert erp_db.cache.entry_count() == 0
        assert result == erp_db.query(sql, strategy=UNCACHED)

    def test_clear(self, erp_db):
        erp_db.query(PROFIT_SQL, strategy=FULL)
        erp_db.cache.clear()
        assert erp_db.cache.entry_count() == 0


class TestStrategyEquivalence:
    """All four strategies must return identical results (Section 5.1:
    'the join pruning using these MDs will be correct' in both cases)."""

    @pytest.mark.parametrize("sql", [PROFIT_SQL, HEADER_ITEM_SQL])
    def test_fresh_deltas(self, erp_db, sql):
        reference = erp_db.query(sql, strategy=UNCACHED)
        for strategy in (NO_PRUNE, EMPTY, FULL):
            assert erp_db.query(sql, strategy=strategy) == reference, strategy

    def test_after_merge(self, erp_db):
        erp_db.merge()
        reference = erp_db.query(PROFIT_SQL, strategy=UNCACHED)
        for strategy in (NO_PRUNE, EMPTY, FULL):
            assert erp_db.query(PROFIT_SQL, strategy=strategy) == reference

    def test_with_temporal_violations(self):
        """Late items break the soft constraint but never correctness."""
        db = make_erp_db()
        load_erp(db, n_headers=4, merge=True)
        db.insert("item", {"iid": 7777, "hid": 0, "cid": 0, "price": 77.0})
        load_erp(db, n_headers=2, start_hid=40, merge=False)
        reference = db.query(HEADER_ITEM_SQL, strategy=UNCACHED)
        for strategy in (NO_PRUNE, EMPTY, FULL):
            assert db.query(HEADER_ITEM_SQL, strategy=strategy) == reference
        # The Hmain x Idelta subjoin carrying the late item must have been
        # evaluated under full pruning, not pruned away.
        db.query(HEADER_ITEM_SQL, strategy=FULL)
        assert db.last_report.prune.evaluated >= 2

    def test_empty_database(self):
        db = make_erp_db()
        sql = "SELECT COUNT(*) AS n FROM item"
        for strategy in (UNCACHED, NO_PRUNE, EMPTY, FULL):
            assert db.query(sql, strategy=strategy).rows == []


class TestPruningCounters:
    def test_full_pruning_prunes_cross_subjoins(self, erp_db):
        erp_db.query(PROFIT_SQL, strategy=FULL)
        report = erp_db.last_report
        # category's delta is empty -> star-join reduction pins it to main
        # and enumerates 2^2 - 1 = 3 subjoins (the 4 category-delta combos
        # are never generated).
        assert report.prune.combos_total == 3
        assert report.prune.excluded_tables == 1
        assert report.prune.combos_excluded == 4
        # header/item main x delta crosses -> dynamic pruning; only
        # (Hd, Id, Dm) survives.
        assert report.prune.evaluated == 1
        assert report.prune.pruned_total == 2

    def test_full_pruning_exhaustive_with_override(self, erp_db):
        # star_join_tables=() pins exhaustive enumeration: the legacy
        # 2^3 - 1 shape with the category-delta combos empty-pruned.
        erp_db.query(PROFIT_SQL, strategy=FULL, star_join_tables=())
        report = erp_db.last_report
        assert report.prune.combos_total == 7
        assert report.prune.excluded_tables == 0
        assert report.prune.combos_excluded == 0
        assert report.prune.evaluated == 1
        assert report.prune.pruned_total == 6

    def test_no_pruning_evaluates_everything(self, erp_db):
        # CACHED_NO_PRUNING stays the paper's exhaustive baseline: no
        # reduction, no pruning.
        erp_db.query(PROFIT_SQL, strategy=NO_PRUNE)
        report = erp_db.last_report
        assert report.prune.combos_total == 7
        assert report.prune.evaluated == 7
        assert report.prune.pruned_total == 0
        assert report.prune.excluded_tables == 0

    def test_empty_delta_pruning_only(self, erp_db):
        erp_db.query(PROFIT_SQL, strategy=EMPTY)
        report = erp_db.last_report
        # The 4 subjoins touching the (empty) category delta are excluded
        # from enumeration outright; without dynamic pruning the 3
        # remaining subjoins are all evaluated.
        assert report.prune.excluded_tables == 1
        assert report.prune.combos_excluded == 4
        assert report.prune.pruned_empty == 0
        assert report.prune.pruned_dynamic == 0
        assert report.prune.evaluated == 3

    def test_empty_delta_pruning_exhaustive_with_override(self, erp_db):
        erp_db.query(PROFIT_SQL, strategy=EMPTY, star_join_tables=())
        report = erp_db.last_report
        # The legacy shape: category-delta combos enumerated, then pruned.
        assert report.prune.pruned_empty == 4
        assert report.prune.pruned_dynamic == 0
        assert report.prune.evaluated == 3

    def test_two_table_counts(self, erp_db):
        erp_db.query(HEADER_ITEM_SQL, strategy=FULL)
        report = erp_db.last_report
        assert report.prune.combos_total == 3
        assert report.prune.pruned_dynamic == 2
        assert report.prune.evaluated == 1


def _count_main_joins(db, monkeypatch):
    """Record every all-main subjoin the cache's executor evaluates (a
    whole-main join: every partition a main, no pinned rows)."""
    executor = db.cache._executor
    real = executor.execute
    joins = []

    def counting(query, snapshot, combos=None, **kwargs):
        for spec in combos or ():
            if not spec.fixed_rows and all(
                p.kind == "main" for p in spec.partitions.values()
            ):
                joins.append(spec.describe())
        return real(query, snapshot, combos=combos, **kwargs)

    monkeypatch.setattr(executor, "execute", counting)
    return joins


class _EvictNewest:
    """Evicts the most recently admitted entries beyond ``max_entries``: an
    admission into a full cache evicts the entry it just admitted."""

    def __init__(self):
        self.victims = []

    def select_victims(self, entries, max_entries, max_bytes):
        keys = list(entries)[max_entries:]
        self.victims.extend(entries[key] for key in keys)
        return keys


class TestOneBuildPerMiss:
    """A miss answers from the entry it built, kept by the cache or not."""

    def _db(self, deltas: bool):
        eviction = _EvictNewest()
        db = make_erp_db(cache_config=CacheConfig(max_entries=1), eviction=eviction)
        load_erp(db, n_headers=6, merge=True)
        if deltas:
            load_erp(db, n_headers=2, start_hid=100, merge=False)
            db.update("item", 0, {"price": 50.0})
            db.delete("item", 4)
        db.query(PROFIT_SQL, strategy=FULL)  # the one resident entry
        return db, eviction

    def test_evicted_build_answers_its_read(self, monkeypatch):
        db, eviction = self._db(deltas=False)
        db.query(HEADER_ITEM_SQL, strategy=FULL)  # plans and parses it once
        tracked = db.cache.tracked_bytes()
        joins = _count_main_joins(db, monkeypatch)
        result = db.query(HEADER_ITEM_SQL, strategy=FULL)
        report = result.report
        assert report.entries_created == 1
        assert len(eviction.victims) == 2
        evicted = eviction.victims[-1]
        assert evicted.key not in {e.key for e in db.cache.entries()}
        # One all-main join (the build); no direct scan aggregated a row.
        assert joins == ["(h:main, i:main)"]
        assert report.executor_stats.rows_aggregated == 0
        assert (report.delta_memo_mode, report.delta_memo_reason) == (
            "full",
            "not_cached",
        )
        assert evicted.delta_memo is None and evicted.result_order is None
        assert db.cache.tracked_bytes() == tracked
        assert result == db.query(HEADER_ITEM_SQL, strategy=UNCACHED)

    def test_evicted_build_compensates_like_a_resident_entry(self, monkeypatch):
        db, eviction = self._db(deltas=True)
        joins = _count_main_joins(db, monkeypatch)
        result = db.query(HEADER_ITEM_SQL, strategy=FULL)
        report = result.report
        assert joins == ["(h:main, i:main)"]
        assert report.delta_memo_reason == "not_cached"
        # Built after the update and delete, the entry never counted the
        # rows they invalidated; the delta subjoins add their successors.
        assert report.invalidated_rows_compensated == 0
        assert report.executor_stats.rows_aggregated > 0
        evicted = eviction.victims[-1]
        assert evicted.delta_memo is None and evicted.result_order is None
        assert result == db.query(HEADER_ITEM_SQL, strategy=UNCACHED)

    def test_trace_separates_admitted_from_resident(self):
        db, _ = self._db(deltas=False)
        text = db.explain_analyze(HEADER_ITEM_SQL, strategy=FULL).render()
        line = next(line for line in text.splitlines() if "build_entry" in line)
        assert "admitted=True" in line and "resident=False" in line
        assert "direct_scan" not in text

    def test_lost_build_race_counts_one_miss(self, monkeypatch):
        db = make_erp_db()
        load_erp(db, n_headers=4, merge=True)
        manager = db.cache
        executor = manager._executor
        real = executor.execute
        others = []

        def racing(query, snapshot, **kwargs):
            # Another reader admits the equivalent entry mid-build.
            monkeypatch.setattr(executor, "execute", real)
            others.append(db.query(HEADER_ITEM_SQL, strategy=FULL).report)
            return real(query, snapshot, **kwargs)

        monkeypatch.setattr(executor, "execute", racing)
        hits, misses = manager.total_hits, manager.total_misses
        result = db.query(HEADER_ITEM_SQL, strategy=FULL)
        (other,) = others
        assert other.entries_created == 1
        report = result.report
        assert report.entries_created == 0
        assert report.cache_hits == 0
        assert (manager.total_hits, manager.total_misses) == (hits, misses + 2)
        assert result == db.query(HEADER_ITEM_SQL, strategy=UNCACHED)


class TestAdmission:
    def test_profit_admission_rejects_cheap_queries(self, monkeypatch):
        db = make_erp_db(admission=ProfitAdmission(min_creation_time=999.0))
        load_erp(db, n_headers=4, merge=True)
        db.query(HEADER_ITEM_SQL, strategy=FULL)
        tracked = db.cache.tracked_bytes()
        joins = _count_main_joins(db, monkeypatch)
        result = db.query(HEADER_ITEM_SQL, strategy=FULL)
        report = result.report
        assert report.admission_rejected == 1
        assert db.cache.entry_count() == 0
        # The rejected build answers the read: no second all-main join.
        assert joins == ["(h:main, i:main)"]
        assert report.executor_stats.rows_aggregated == 0
        assert (report.delta_memo_mode, report.delta_memo_reason) == (
            "full",
            "not_cached",
        )
        assert db.cache.tracked_bytes() == tracked
        # Result must still be correct without an entry.
        assert result == db.query(HEADER_ITEM_SQL, strategy=UNCACHED)

    def test_compression_gate(self):
        admitting = ProfitAdmission(min_compression=1.0)
        rejecting = ProfitAdmission(min_compression=10_000.0)
        db = make_erp_db(admission=admitting)
        load_erp(db, n_headers=4, merge=True)
        db.query(HEADER_ITEM_SQL, strategy=FULL)
        assert db.cache.entry_count() == 1
        db2 = make_erp_db(admission=rejecting)
        load_erp(db2, n_headers=4, merge=True)
        db2.query(HEADER_ITEM_SQL, strategy=FULL)
        assert db2.cache.entry_count() == 0


class TestEviction:
    def test_max_entries_enforced_lru(self):
        db = make_erp_db(
            cache_config=CacheConfig(max_entries=2), eviction=LruEviction()
        )
        load_erp(db, n_headers=4, merge=True)
        queries = [
            f"SELECT cid, COUNT(*) AS n FROM item WHERE price > {p} GROUP BY cid"
            for p in (0, 1, 2)
        ]
        for sql in queries:
            db.query(sql, strategy=FULL)
        assert db.cache.entry_count() == 2
        # The first (least recently used) entry was evicted.
        db.query(queries[0], strategy=FULL)
        assert db.last_report.cache_hits == 0

    def test_max_bytes_enforced(self):
        db = make_erp_db(cache_config=CacheConfig(max_bytes=1))
        load_erp(db, n_headers=4, merge=True)
        db.query(HEADER_ITEM_SQL, strategy=FULL)
        # Even the fresh entry cannot fit a 1-byte cache.
        assert db.cache.entry_count() == 0
        # Correctness unaffected.
        assert db.query(HEADER_ITEM_SQL, strategy=FULL) == db.query(
            HEADER_ITEM_SQL, strategy=UNCACHED
        )


class TestMetrics:
    def test_usage_metrics_updated(self, erp_db):
        erp_db.query(HEADER_ITEM_SQL, strategy=FULL)
        erp_db.query(HEADER_ITEM_SQL, strategy=FULL)
        (entry,) = erp_db.cache.entries_for(erp_db.parse(HEADER_ITEM_SQL))
        assert entry.metrics.reference_count == 2
        assert entry.metrics.status is EntryStatus.ACTIVE
        assert entry.metrics.size_bytes > 0
        assert entry.metrics.creation_time_main > 0

    def test_report_timings_populated(self, erp_db):
        erp_db.query(PROFIT_SQL, strategy=NO_PRUNE)
        report = erp_db.last_report
        assert report.time_total > 0
        assert report.time_delta_compensation > 0
