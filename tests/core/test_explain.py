"""Tests for the EXPLAIN facility."""

import pytest

from repro import Database, ExecutionStrategy
from repro.core import explain_query

from ..conftest import HEADER_ITEM_SQL, PROFIT_SQL, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING


def make_db():
    db = make_erp_db()
    load_erp(db, n_headers=4, merge=True)
    load_erp(db, n_headers=1, start_hid=99, merge=False)
    return db


class TestExplain:
    def test_does_not_execute_or_create_entries(self):
        db = make_db()
        text = db.explain(PROFIT_SQL)
        assert db.cache.entry_count() == 0
        assert "MISS" in text

    def test_hit_reported_after_query(self):
        db = make_db()
        db.query(PROFIT_SQL, strategy=FULL)
        assert "HIT" in db.explain(PROFIT_SQL)

    def test_subjoin_fates_listed(self):
        # Without star-join reduction the enumeration is exhaustive, so
        # every prune mechanism shows up; the empty-delta category combos
        # otherwise never get enumerated (see test_star_join_reduction_line).
        db = make_db()
        db.cache.config.star_join_reduction = False
        text = db.explain(PROFIT_SQL, strategy=FULL)
        assert "PRUNED [empty]" in text
        assert "PRUNED [dynamic]" in text
        assert "EVALUATE" in text
        # 3 tables -> 7 compensation subjoins listed
        assert text.count("(d:") == 7 + 1  # + the cached combination line

    def test_star_join_reduction_line(self):
        db = make_db()
        text = db.explain(PROFIT_SQL, strategy=FULL)
        # category's delta is empty -> excluded; only 2^2-1 subjoins remain
        # with d pinned to its main in every one.
        assert "star-join reduction: excluded=[d]" in text
        assert "(4 combinations not enumerated)" in text
        assert text.count("(d:main") == 3 + 1  # + the cached combination line

    def test_no_pruning_strategy_evaluates_all(self):
        db = make_db()
        text = db.explain(PROFIT_SQL, strategy=ExecutionStrategy.CACHED_NO_PRUNING)
        assert "PRUNED" not in text
        assert text.count("EVALUATE") == 7

    def test_uncached_strategy(self):
        db = make_db()
        text = db.explain(PROFIT_SQL, strategy=ExecutionStrategy.UNCACHED)
        assert "bypassed" in text
        assert text.count("EVALUATE") == 8  # all 2^3 subjoins

    def test_non_cacheable_query(self):
        db = make_db()
        text = db.explain("SELECT cid, MAX(price) AS m FROM item GROUP BY cid")
        assert "does not qualify" in text

    def test_pushdown_filters_shown(self):
        db = make_erp_db()
        load_erp(db, n_headers=4, merge=False)
        db.merge("item")  # overlap scenario
        load_erp(db, n_headers=1, start_hid=50, merge=False)
        text = db.explain(HEADER_ITEM_SQL, strategy=FULL)
        assert "pushdown" in text
        assert "tid_header" in text

    def test_plan_object_api(self):
        db = make_db()
        plan = explain_query(db.cache, db.parse(PROFIT_SQL), FULL)
        assert plan.cacheable
        # category excluded (empty delta) -> 2^2-1 enumerated subjoins.
        assert len(plan.subjoins) == 3
        assert plan.excluded == ["d"]
        assert plan.combos_excluded == 4
        pruned = [s for s in plan.subjoins if s.action == "pruned"]
        assert all(s.reason in ("empty", "logical", "dynamic") for s in pruned)

    def test_plan_object_api_exhaustive_override(self):
        db = make_db()
        db.cache.config.star_join_reduction = False
        plan = explain_query(db.cache, db.parse(PROFIT_SQL), FULL)
        assert len(plan.subjoins) == 7
        assert plan.excluded == []
        assert plan.combos_excluded == 0

    def test_explain_matches_execution_counters(self):
        db = make_db()
        plan = explain_query(db.cache, db.parse(PROFIT_SQL), FULL)
        planned_evaluated = sum(1 for s in plan.subjoins if s.action == "evaluate")
        db.query(PROFIT_SQL, strategy=FULL)
        db.query(PROFIT_SQL, strategy=FULL)
        assert db.last_report.prune.evaluated == planned_evaluated
