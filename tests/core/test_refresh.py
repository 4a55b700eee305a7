"""Cardinality-based cache refresh: routing, synopsis discounts, application.

``plan_cache_refresh`` routes every live entry to skip / advance / rebuild
from the estimated *affected rows* — physical delta growth past the memo's
watermarks, discounted by synopsis-based selectivity of the entry's local
filters.  ``Database.refresh_cache`` applies the routed actions off the
query path, so the next query replays an already-advanced memo.
"""

import pytest

from repro import CacheConfig, Database, ExecutionStrategy
from repro.core import MergeAdvisor
from repro.core.maintenance import (
    RefreshDecision,
    _suffix_selectivity,
    _synopsis_refutes,
    plan_cache_refresh,
)
from repro.query.sql import parse_sql

from ..conftest import PROFIT_SQL, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED


def _typed(rows):
    return [tuple((type(v).__name__, v) for v in row) for row in rows]


def _routed(db):
    snapshot = db.transactions.global_snapshot()
    return {
        d.key: d
        for d in plan_cache_refresh(
            db.cache, snapshot, db.cache.config.refresh_rebuild_ratio
        )
    }


class TestRouting:
    def test_clean_entry_skips(self):
        db = make_erp_db()
        load_erp(db, n_headers=6, merge=True)
        db.query(PROFIT_SQL, strategy=FULL)
        decisions = list(_routed(db).values())
        assert decisions
        assert all(d.action == "skip" for d in decisions)
        assert any(d.reason == "clean" for d in decisions)

    def test_modest_growth_routes_to_advance(self):
        db = make_erp_db()
        load_erp(db, n_headers=12, merge=True)
        load_erp(db, n_headers=6, start_hid=100, merge=False)
        db.query(PROFIT_SQL, strategy=FULL)  # builds the memo
        load_erp(db, n_headers=1, start_hid=300, merge=False)  # small growth
        decisions = [
            d for d in _routed(db).values() if d.action != "skip"
        ]
        assert decisions
        advance = [d for d in decisions if d.action == "advance"]
        assert advance
        assert all(d.reason == "delta_growth" for d in advance)
        assert all(d.affected_rows > 0 for d in advance)

    def test_dominant_growth_routes_to_rebuild(self):
        db = make_erp_db(
            cache_config=CacheConfig(refresh_rebuild_ratio=0.01)
        )
        load_erp(db, n_headers=6, merge=True)
        load_erp(db, n_headers=2, start_hid=100, merge=False)
        db.query(PROFIT_SQL, strategy=FULL)
        load_erp(db, n_headers=6, start_hid=300, merge=False)  # big growth
        decisions = [d for d in _routed(db).values() if d.action != "skip"]
        assert decisions
        assert all(d.action == "rebuild" for d in decisions)


class TestSynopsisDiscount:
    def test_refutes_out_of_range_equality(self):
        db = make_erp_db()
        load_erp(db, n_headers=6, merge=False)
        delta = db.table("header").partition("delta")
        in_range = parse_sql(
            "SELECT COUNT(*) AS n FROM header h WHERE h.year = 2013 GROUP BY h.year"
        ).filters[0]
        out_of_range = parse_sql(
            "SELECT COUNT(*) AS n FROM header h WHERE h.year = 1999 GROUP BY h.year"
        ).filters[0]
        assert not _synopsis_refutes(delta, in_range)
        assert _synopsis_refutes(delta, out_of_range)
        assert _suffix_selectivity(delta, [out_of_range]) == 0.0
        assert 0.0 < _suffix_selectivity(delta, [in_range]) < 1.0

    def test_refuted_filter_zeroes_affected_rows(self):
        filtered_sql = (
            "SELECT d.name AS category, COUNT(*) AS n "
            "FROM header h, item i, category d "
            "WHERE h.hid = i.hid AND i.cid = d.cid AND h.year = 1999 "
            "GROUP BY d.name"
        )
        db = make_erp_db()
        load_erp(db, n_headers=6, merge=True)
        db.query(filtered_sql, strategy=FULL)
        # Growth only in header rows, all of them 2013/2014: the synopsis
        # proves year=1999 matches none of them.
        for hid in range(300, 310):
            db.insert("header", {"hid": hid, "year": 2013 + hid % 2})
        decisions = list(_routed(db).values())
        assert decisions
        assert all(d.affected_rows == 0 for d in decisions)


class TestApplication:
    def _grown_db(self):
        db = make_erp_db()
        load_erp(db, n_headers=12, merge=True)
        load_erp(db, n_headers=4, start_hid=100, merge=False)
        db.query(PROFIT_SQL, strategy=FULL)
        load_erp(db, n_headers=2, start_hid=300, merge=False)
        return db

    def test_refresh_cache_advances_memos_off_the_query_path(self):
        db = self._grown_db()
        truth = db.query(PROFIT_SQL, strategy=UNCACHED)
        decisions = db.refresh_cache()
        applied = [d for d in decisions if d.action != "skip"]
        assert applied
        counters = db.cache.counters_snapshot()
        assert (
            counters["refresh_advances"] + counters["refresh_rebuilds"]
            >= len(applied)
        )
        # The next query replays the advanced memo: incremental mode with
        # nothing left to scan past the watermarks, same rows as uncached.
        result = db.query(PROFIT_SQL, strategy=FULL)
        assert _typed(result.rows) == _typed(truth.rows)
        report = db.last_report
        assert report.delta_memo_mode == "incremental"

    def test_refresh_is_idempotent(self):
        db = self._grown_db()
        db.refresh_cache()
        again = db.refresh_cache()
        assert all(d.action == "skip" for d in again)

    def test_advisor_recommendation_matches_planner(self):
        db = self._grown_db()
        recommendation = MergeAdvisor().recommend_refresh(db)
        assert recommendation.should_refresh
        assert "refresh recommended" in recommendation.describe()
        db.refresh_cache(max_entries=None)
        after = MergeAdvisor().recommend_refresh(db)
        assert not after.should_refresh
        assert after.describe() == "no refresh recommended"

    def test_max_entries_bounds_the_tick(self):
        db = make_erp_db()
        load_erp(db, n_headers=12, merge=True)
        load_erp(db, n_headers=4, start_hid=100, merge=False)
        header_item = (
            "SELECT i.cid AS cid, SUM(i.price) AS profit "
            "FROM header h, item i WHERE h.hid = i.hid GROUP BY i.cid"
        )
        db.query(PROFIT_SQL, strategy=FULL)
        db.query(header_item, strategy=FULL)
        load_erp(db, n_headers=2, start_hid=300, merge=False)
        planned = [
            d for d in db.refresh_cache(max_entries=1) if d.action != "skip"
        ]
        assert len(planned) >= 2  # more work was routed than the tick allows
        counters = db.cache.counters_snapshot()
        assert counters["refresh_advances"] + counters["refresh_rebuilds"] == 1

    def test_rebuild_route_applies_correctly(self):
        db = make_erp_db(
            cache_config=CacheConfig(refresh_rebuild_ratio=0.01)
        )
        load_erp(db, n_headers=6, merge=True)
        load_erp(db, n_headers=2, start_hid=100, merge=False)
        db.query(PROFIT_SQL, strategy=FULL)
        load_erp(db, n_headers=6, start_hid=300, merge=False)
        truth = db.query(PROFIT_SQL, strategy=UNCACHED)
        decisions = db.refresh_cache()
        assert any(d.action == "rebuild" for d in decisions)
        assert db.cache.counters_snapshot()["refresh_rebuilds"] > 0
        result = db.query(PROFIT_SQL, strategy=FULL)
        assert _typed(result.rows) == _typed(truth.rows)
        assert db.last_report.delta_memo_mode == "incremental"
