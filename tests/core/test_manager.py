"""Tests for the aggregate cache manager's query path (Fig. 3)."""

import sys
import threading

import pytest

from repro import CacheConfig, Database, ExecutionStrategy, GovernorConfig
from repro.core import manager as manager_module

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
            # No GROUP BY: one row over no input, as in SQL.
            assert db.query(sql, strategy=strategy).rows == [(0,)]


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
        # Star-join reduction off pins exhaustive enumeration: the legacy
        # 2^3 - 1 shape with the category-delta combos empty-pruned.
        erp_db.cache.config.star_join_reduction = False
        erp_db.query(PROFIT_SQL, strategy=FULL)
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
        erp_db.cache.config.star_join_reduction = False
        erp_db.query(PROFIT_SQL, strategy=EMPTY)
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


def _spy_victims(monkeypatch):
    """The entries eviction drops, in order, as the manager evicts them."""
    victims = []
    real = manager_module.select_victims

    def spy(entries, max_entries, max_bytes):
        keys = real(entries, max_entries, max_bytes)
        victims.extend(entries[key] for key in keys)
        return keys

    monkeypatch.setattr(manager_module, "select_victims", spy)
    return victims


class TestOneBuildPerMiss:
    """A miss answers from the entry it built, kept by the cache or not."""

    def _db(self, monkeypatch, deltas: bool):
        db = make_erp_db(cache_config=CacheConfig(max_entries=1))
        load_erp(db, n_headers=6, merge=True)
        if deltas:
            load_erp(db, n_headers=2, start_hid=100, merge=False)
            db.update("item", 0, {"price": 50.0})
            db.delete("item", 4)
        # The one resident entry: three uses of 18 rows each outrank a
        # HEADER_ITEM_SQL build (18 rows) read once or twice, so eviction
        # drops that build as soon as it is admitted.
        for _ in range(3):
            db.query(PROFIT_SQL, strategy=FULL)
        return db, _spy_victims(monkeypatch)

    def test_evicted_build_answers_its_read(self, monkeypatch):
        db, victims = self._db(monkeypatch, deltas=False)
        db.query(HEADER_ITEM_SQL, strategy=FULL)  # plans and parses it once
        tracked = db.cache.tracked_bytes()
        joins = _count_main_joins(db, monkeypatch)
        result = db.query(HEADER_ITEM_SQL, strategy=FULL)
        report = result.report
        assert report.entries_created == 1
        assert len(victims) == 2
        evicted = victims[-1]
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
        db, victims = self._db(monkeypatch, deltas=True)
        joins = _count_main_joins(db, monkeypatch)
        result = db.query(HEADER_ITEM_SQL, strategy=FULL)
        report = result.report
        assert joins == ["(h:main, i:main)"]
        assert report.delta_memo_reason == "not_cached"
        # Built after the update and delete, the entry never counted the
        # rows they invalidated; the delta subjoins add their successors.
        assert report.invalidated_rows_compensated == 0
        assert report.executor_stats.rows_aggregated > 0
        (evicted,) = victims
        assert evicted.delta_memo is None and evicted.result_order is None
        assert result == db.query(HEADER_ITEM_SQL, strategy=UNCACHED)

    def test_trace_separates_admitted_from_resident(self, monkeypatch):
        db, _ = self._db(monkeypatch, deltas=False)
        text = db.explain_analyze(HEADER_ITEM_SQL, strategy=FULL).render()
        line = next(line for line in text.splitlines() if "build_entry" in line)
        assert "resident=False" in line
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
        before = manager.counters_snapshot()
        result = db.query(HEADER_ITEM_SQL, strategy=FULL)
        (other,) = others
        assert other.entries_created == 1
        report = result.report
        assert report.entries_created == 0
        assert report.cache_hits == 0
        after = manager.counters_snapshot()
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"] + 2
        assert result == db.query(HEADER_ITEM_SQL, strategy=UNCACHED)


class TestEviction:
    def test_max_bytes_enforced(self):
        # The governor's memory budget is the one byte bound.
        db = make_erp_db(governor=GovernorConfig(memory_budget_mb=1e-6))
        load_erp(db, n_headers=4, merge=True)
        db.query(HEADER_ITEM_SQL, strategy=FULL)
        # Even the fresh entry cannot fit a 1-byte budget.
        assert db.cache.entry_count() == 0
        # Correctness unaffected.
        assert db.query(HEADER_ITEM_SQL, strategy=FULL) == db.query(
            HEADER_ITEM_SQL, strategy=UNCACHED
        )


#: Seven item rows: three reads fold more rows than one of HEADER_ITEM_SQL's
#: eighteen, two do not.
FEW_ROWS_SQL = "SELECT cid, COUNT(*) AS n FROM item WHERE price > 4 OR iid = 0 GROUP BY cid"
CATEGORY_SQL = "SELECT lang, COUNT(*) AS n FROM category GROUP BY lang"
HEADER_SQL = "SELECT year, COUNT(*) AS n FROM header GROUP BY year"


class TestUsesAcrossEvictions:
    """Eviction ranks a key by all its uses × the rows its build folds,
    and a key's uses outlive its entry in a bounded ghost history."""

    def _db(self, **config):
        db = make_erp_db(cache_config=CacheConfig(**config))
        load_erp(db, n_headers=6, merge=True)
        return db

    def _key_of(self, db, sql):
        return db.cache.plan_for(db.parse(sql)).cache_keys[0]

    def test_a_statement_read_often_displaces_one_read_once(self):
        db = self._db(max_entries=1)
        db.query(HEADER_ITEM_SQL, strategy=FULL)
        (a,) = db.cache.entries()
        assert a.metrics.aggregated_records_main == 18
        for _ in range(2):
            db.query(FEW_ROWS_SQL, strategy=FULL)
            assert db.cache.entries() == [a]  # 7, then 14 rows < 18
        result = db.query(FEW_ROWS_SQL, strategy=FULL)
        (b,) = db.cache.entries()
        assert b is not a
        assert (b.metrics.reference_count, b.metrics.aggregated_records_main) == (3, 7)
        assert result.report.entries_created == 1
        assert result == db.query(FEW_ROWS_SQL, strategy=UNCACHED)
        # A's one use is remembered: reborn with two, 36 rows beat 21.
        db.query(HEADER_ITEM_SQL, strategy=FULL)
        (reborn,) = db.cache.entries()
        assert reborn.key == a.key and reborn.metrics.reference_count == 2
        assert dict(db.cache._ghosts) == {b.key: 3}

    def test_ghost_history_keeps_the_most_recently_touched_keys(self):
        db = self._db(max_entries=2)
        # 18, 16, 13, 9 and 6 item rows: each statement from the third on
        # folds fewer rows than both residents and is evicted at once.
        statements = [
            f"SELECT cid, COUNT(*) AS n FROM item WHERE price > {p} GROUP BY cid"
            for p in range(5)
        ]
        for sql in statements:
            db.query(sql, strategy=FULL)
        keys = [self._key_of(db, sql) for sql in statements]
        assert {e.key for e in db.cache.entries()} == {keys[0], keys[1]}
        # Three left the map; the history holds the last two of them.
        assert list(db.cache._ghosts.items()) == [(keys[3], 1), (keys[4], 1)]
        # Reborn with two uses (2 × 9 rows), statement 3 evicts statement 1
        # (16 rows), not statement 0 (18 rows, less recently used).
        db.query(statements[3], strategy=FULL)
        (reborn,) = [e for e in db.cache.entries() if e.key == keys[3]]
        assert reborn.metrics.reference_count == 2
        assert list(db.cache._ghosts.items()) == [(keys[4], 1), (keys[1], 1)]

    def test_dropping_a_table_forgets_its_keys(self):
        db = self._db(max_entries=2)
        # Rows saved: header 2 × 6, then category 2, few-rows 7, header-item
        # 18 — category, then few-rows, leave the map.
        for sql in (HEADER_SQL, HEADER_SQL, CATEGORY_SQL, FEW_ROWS_SQL, HEADER_ITEM_SQL):
            db.query(sql, strategy=FULL)
        category = self._key_of(db, CATEGORY_SQL)
        assert set(db.cache._ghosts) == {self._key_of(db, FEW_ROWS_SQL), category}
        db.drop_table("item")
        assert dict(db.cache._ghosts) == {category: 1}
        assert [e.query.canonical_key() for e in db.cache.entries()] == [
            db.executor.bind(db.parse(HEADER_SQL)).canonical_key()
        ]
        db.cache.clear()
        assert dict(db.cache._ghosts) == {}

    def test_concurrent_reads_lose_no_use(self):
        # Four statements, two slots: at most two keys are out of the map,
        # so the two-key history never trims and every read stays counted.
        db = self._db(max_entries=2)
        statements = [HEADER_ITEM_SQL, FEW_ROWS_SQL, CATEGORY_SQL, HEADER_SQL]
        reads_per_thread, errors = 24, []

        def reader(offset):
            try:
                for i in range(reads_per_thread):
                    db.query(statements[(offset + i) % len(statements)], strategy=FULL)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(n,)) for n in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        uses = sum(e.metrics.reference_count for e in db.cache.entries())
        assert uses + sum(db.cache._ghosts.values()) == 6 * reads_per_thread
        assert db.cache.entry_count() == 2 and len(db.cache._ghosts) == 2


class TestMetrics:
    def test_usage_metrics_updated(self, erp_db):
        erp_db.query(HEADER_ITEM_SQL, strategy=FULL)
        erp_db.query(HEADER_ITEM_SQL, strategy=FULL)
        (entry,) = erp_db.cache.entries_for(erp_db.parse(HEADER_ITEM_SQL))
        assert entry.metrics.reference_count == 2
        assert entry.metrics.size_bytes > 0

    def test_profit_gauge_is_rows_saved_per_cached_byte(self, erp_db):
        erp_db.query(HEADER_ITEM_SQL, strategy=FULL)
        erp_db.query(HEADER_ITEM_SQL, strategy=FULL)
        erp_db.query(CATEGORY_SQL, strategy=FULL)
        small, large = sorted(
            (e.metrics for e in erp_db.cache.entries()), key=lambda m: m.size_bytes
        )
        assert small.size_bytes < large.size_bytes
        gauge = erp_db.metrics_snapshot()["repro_cache_profit_per_byte"]
        assert gauge == pytest.approx(
            (small.profit() + large.profit()) / (small.size_bytes + large.size_bytes)
        )
        assert gauge != pytest.approx(
            small.profit() / small.size_bytes + large.profit() / large.size_bytes
        )

    def test_report_timings_populated(self, erp_db):
        erp_db.query(PROFIT_SQL, strategy=NO_PRUNE)
        report = erp_db.last_report
        assert report.time_total > 0
        assert report.time_delta_compensation > 0
