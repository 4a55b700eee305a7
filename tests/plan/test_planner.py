"""Planner and cost-model unit tests: one plan object carries the full
subjoin list with fates and pushdown; EXPLAIN adds cost-seeded join
orders."""

import pytest

from repro import ExecutionStrategy
from repro.plan import estimate_scan_rows
from repro.plan.physical import plan_signature

from ..conftest import PROFIT_SQL, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING


def loaded_db(**kwargs):
    db = make_erp_db(**kwargs)
    load_erp(db, n_headers=4, merge=True)
    load_erp(db, n_headers=1, start_hid=90, merge=False)
    return db


class TestCostModel:
    def test_estimate_halves_per_filter_with_floor_one(self):
        assert estimate_scan_rows(100, 0) == 100
        assert estimate_scan_rows(100, 1) == 50
        assert estimate_scan_rows(100, 2) == 25
        assert estimate_scan_rows(3, 5) == 1  # floor: never rounds to zero
        assert estimate_scan_rows(0, 2) == 0  # empty stays empty


class TestPlannerOutput:
    def test_full_plan_shape(self):
        db = loaded_db()
        plan = db.cache.plan_for(PROFIT_SQL, FULL)
        assert plan.cacheable
        assert plan.strategy is FULL
        assert len(plan.cached_combos) == len(plan.cache_keys) == 1
        # category's delta is empty -> star-join reduction excludes it:
        # 2^2 - 1 enumerated subjoins with d pinned to main in each.
        assert [e.describe() for e in plan.excluded] == ["d:empty_delta"]
        assert len(plan.subjoins) == 3
        assert plan.prune.combos_total == 3
        assert plan.prune.excluded_tables == 1
        assert plan.prune.combos_excluded == 4
        assert all(
            s.partitions["d"].name == "main" for s in plan.subjoins
        )
        assert all(s.action in ("evaluate", "pruned") for s in plan.subjoins)
        pruned = [s for s in plan.subjoins if s.action == "pruned"]
        assert all(s.reason in ("empty", "logical", "dynamic") for s in pruned)
        assert plan.prune.pruned_total == len(pruned)

    def test_full_plan_shape_exhaustive_override(self):
        db = loaded_db()
        plan = db.cache.plan_for(PROFIT_SQL, FULL, star_join_tables=())
        # 3 tables -> 2^3 - 1 compensation subjoins, every fate decided.
        assert plan.excluded == ()
        assert plan.star_override == ()
        assert len(plan.subjoins) == 7
        assert plan.prune.combos_total == 7
        assert plan.prune.combos_excluded == 0

    def test_evaluated_subjoins_carry_join_order(self):
        """Plans carry no join order; EXPLAIN derives the displayed one
        from estimated scan sizes of the plan's partitions."""
        db = loaded_db()
        physical = db.cache.plan_for(PROFIT_SQL, FULL)
        explained = db.cache.explain(PROFIT_SQL, FULL)
        aliases = {"h", "i", "d"}
        assert len(explained.subjoins) == len(physical.subjoins)
        for sub, shown in zip(physical.subjoins, explained.subjoins):
            if sub.action != "evaluate":
                assert shown.probe_side is None and shown.join_order == []
                continue
            assert set(shown.join_order) == aliases
            assert shown.join_order[0] == shown.probe_side
            estimated = {
                alias: estimate_scan_rows(
                    partition.row_count,
                    len(physical.query.local_filters(alias))
                    + len(sub.pushdown.get(alias, ())),
                )
                for alias, partition in sub.partitions.items()
            }
            # Probe side = the largest estimated input.
            assert estimated[shown.probe_side] == max(estimated.values())

    def test_uncached_plan_covers_full_product(self):
        db = loaded_db()
        plan = db.cache.plan_for(PROFIT_SQL, ExecutionStrategy.UNCACHED)
        assert len(plan.subjoins) == 8  # 2^3, nothing cached or pruned
        assert all(s.action == "evaluate" for s in plan.subjoins)
        assert plan.cached_combos == []
        assert plan.prune.combos_total == 0  # matches legacy reporting

    def test_non_cacheable_statement(self):
        db = loaded_db()
        plan = db.cache.plan_for(
            "SELECT i.cid AS cid, MAX(i.price) AS m FROM item i GROUP BY i.cid",
            FULL,
        )
        assert not plan.cacheable
        assert plan.cached_combos == []
        assert all(s.action == "evaluate" for s in plan.subjoins)

    def test_to_spec_returns_fresh_objects(self):
        db = loaded_db()
        plan = db.cache.plan_for(PROFIT_SQL, FULL)
        sub = next(s for s in plan.subjoins if s.action == "evaluate")
        spec1, spec2 = sub.to_spec(), sub.to_spec()
        assert spec1 is not spec2
        spec1.partitions.clear()
        spec1.extra_filters.clear()
        assert sub.partitions  # the plan is untouched
        assert sub.to_spec().partitions == spec2.partitions


class TestSignature:
    def test_signature_changes_with_dml(self):
        db = loaded_db()
        names = ["category", "header", "item"]
        before = plan_signature(db.catalog, db.cache.config, names)
        db.insert("item", {"iid": 5555, "hid": 0, "cid": 0, "price": 2.0})
        after = plan_signature(db.catalog, db.cache.config, names)
        assert before != after

    def test_signature_stable_across_reads(self):
        db = loaded_db()
        names = ["category", "header", "item"]
        before = plan_signature(db.catalog, db.cache.config, names)
        db.query(PROFIT_SQL)
        db.explain(PROFIT_SQL)
        assert plan_signature(db.catalog, db.cache.config, names) == before

    def test_signature_raises_for_missing_table(self):
        db = loaded_db()
        with pytest.raises(Exception):
            plan_signature(db.catalog, db.cache.config, ["nonexistent"])


class TestExplainFromPlan:
    def test_explain_shows_join_order(self):
        db = loaded_db()
        text = db.explain(PROFIT_SQL, strategy=FULL)
        assert "probe=" in text
        assert "order=" in text

    def test_explain_and_execute_share_the_cached_plan(self):
        db = loaded_db()
        db.explain(PROFIT_SQL, strategy=FULL)  # builds and caches the plan
        before = db.plan_cache.stats()
        db.query(PROFIT_SQL, strategy=FULL)  # must reuse, not rebuild
        after = db.plan_cache.stats()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
