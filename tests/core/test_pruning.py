"""Unit tests for dynamic join pruning and predicate pushdown decisions."""

import pytest

from repro import Database, ExecutionStrategy
from repro.core import JoinPruner, MatchingDependency
from repro.core.pruning import partition_temperature
from repro.query import Lit, parse_sql
from repro.storage import ConsistentAging, threshold_aging

from ..conftest import HEADER_ITEM_SQL, make_erp_db, load_erp


def bound_query(db, sql=HEADER_ITEM_SQL):
    return db.executor.bind(db.parse(sql))


def make_pruner(db, strategy, pushdown=False, agings=(), sql=HEADER_ITEM_SQL):
    return JoinPruner(
        bound_query(db, sql),
        db.cache.matching_dependencies,
        list(agings),
        strategy,
        predicate_pushdown=pushdown,
    )


class TestEmptyPruning:
    def test_empty_partition_pruned(self):
        db = make_erp_db()
        load_erp(db, n_headers=3, merge=True)  # deltas now empty
        pruner = make_pruner(db, ExecutionStrategy.CACHED_EMPTY_DELTA)
        assignment = {
            "h": db.table("header").partition("main"),
            "i": db.table("item").partition("delta"),
        }
        reason, filters = pruner.check(assignment)
        assert reason == "empty"
        assert filters == {}

    def test_no_pruning_under_no_pruning_strategy(self):
        db = make_erp_db()
        load_erp(db, n_headers=3, merge=True)
        pruner = make_pruner(db, ExecutionStrategy.CACHED_NO_PRUNING)
        assignment = {
            "h": db.table("header").partition("main"),
            "i": db.table("item").partition("delta"),
        }
        assert pruner.check(assignment) == (None, {})


class TestDynamicPruning:
    def setup_db(self):
        """Mains hold old objects, deltas hold new ones — disjoint tid ranges."""
        db = make_erp_db()
        load_erp(db, n_headers=4, merge=True)
        load_erp(db, n_headers=2, start_hid=50, merge=False)
        return db

    def test_main_delta_cross_subjoins_pruned(self):
        db = self.setup_db()
        pruner = make_pruner(db, ExecutionStrategy.CACHED_FULL_PRUNING)
        header, item = db.table("header"), db.table("item")
        for assignment in (
            {"h": header.partition("main"), "i": item.partition("delta")},
            {"h": header.partition("delta"), "i": item.partition("main")},
        ):
            reason, _ = pruner.check(assignment)
            assert reason == "dynamic"

    def test_delta_delta_subjoin_not_pruned(self):
        db = self.setup_db()
        pruner = make_pruner(db, ExecutionStrategy.CACHED_FULL_PRUNING)
        assignment = {
            "h": db.table("header").partition("delta"),
            "i": db.table("item").partition("delta"),
        }
        assert pruner.check(assignment)[0] is None

    def test_overlap_prevents_pruning(self):
        """Fig. 5's failure case: item merged before header, ranges overlap."""
        db = make_erp_db()
        load_erp(db, n_headers=2, merge=False)
        db.merge("item")  # unsynchronized merge: item main now holds new tids
        pruner = make_pruner(db, ExecutionStrategy.CACHED_FULL_PRUNING)
        assignment = {
            "h": db.table("header").partition("delta"),
            "i": db.table("item").partition("main"),
        }
        reason, _ = pruner.check(assignment)
        assert reason is None  # matching tuples really do span the two partitions

    def test_temporal_violation_is_correctly_not_pruned(self):
        """A 'late item' referencing an old (merged) header must keep the
        Hmain x Idelta subjoin alive: pruning stays correct when the
        temporal soft-constraint is violated."""
        db = make_erp_db()
        load_erp(db, n_headers=3, merge=True)
        # late item for header 0 (which lives in the main)
        db.insert("item", {"iid": 9000, "hid": 0, "cid": 0, "price": 9.0})
        pruner = make_pruner(db, ExecutionStrategy.CACHED_FULL_PRUNING)
        assignment = {
            "h": db.table("header").partition("main"),
            "i": db.table("item").partition("delta"),
        }
        reason, _ = pruner.check(assignment)
        assert reason is None

    def test_uncovered_edge_never_dynamically_pruned(self):
        db = self.setup_db()
        pruner = JoinPruner(
            bound_query(db),
            [],  # no matching dependencies registered
            [],
            ExecutionStrategy.CACHED_FULL_PRUNING,
        )
        assignment = {
            "h": db.table("header").partition("main"),
            "i": db.table("item").partition("delta"),
        }
        assert pruner.check(assignment)[0] is None


class TestLogicalPruning:
    def make_aged_db(self):
        db = Database()
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
        aging = db.declare_consistent_aging("header", "item")
        for hid, year in [(1, 2013), (2, 2015)]:
            db.insert_business_object(
                "header",
                {"hid": hid, "year": year},
                "item",
                [{"iid": hid * 10, "hid": hid, "year": year, "price": 1.0}],
            )
        db.merge()
        return db, aging

    def test_cross_temperature_pruned(self):
        db, aging = self.make_aged_db()
        sql = (
            "SELECT COUNT(*) AS n FROM header h, item i WHERE h.hid = i.hid"
        )
        pruner = make_pruner(
            db, ExecutionStrategy.CACHED_FULL_PRUNING, agings=[aging], sql=sql
        )
        assignment = {
            "h": db.table("header").partition("hot_main"),
            "i": db.table("item").partition("cold_main"),
        }
        reason, _ = pruner.check(assignment)
        assert reason == "logical"

    def test_same_temperature_not_logically_pruned(self):
        db, aging = self.make_aged_db()
        sql = "SELECT COUNT(*) AS n FROM header h, item i WHERE h.hid = i.hid"
        pruner = make_pruner(
            db, ExecutionStrategy.CACHED_FULL_PRUNING, agings=[aging], sql=sql
        )
        assignment = {
            "h": db.table("header").partition("hot_main"),
            "i": db.table("item").partition("hot_main"),
        }
        # not logically pruned (may still be evaluated; both are mains)
        assert pruner.check(assignment)[0] is None

    def test_partition_temperature_helper(self):
        db, _ = self.make_aged_db()
        assert partition_temperature(db.table("header").partition("hot_main")) == "hot"
        assert partition_temperature(db.table("header").partition("cold_delta")) == "cold"
        plain = Database()
        plain.create_table("t", [("a", "INT")])
        assert partition_temperature(plain.table("t").partition("main")) is None


class TestPushdown:
    def setup_overlap_db(self):
        """Force the Fig. 5 overlap: header delta joins item main."""
        db = make_erp_db()
        load_erp(db, n_headers=4, merge=False)
        db.merge("item")  # item rows now in main with fresh tids
        return db

    def test_pushdown_filters_generated(self):
        db = self.setup_overlap_db()
        load_erp(db, n_headers=2, start_hid=60, merge=False)
        pruner = make_pruner(
            db, ExecutionStrategy.CACHED_FULL_PRUNING, pushdown=True
        )
        assignment = {
            "h": db.table("header").partition("delta"),
            "i": db.table("item").partition("main"),
        }
        reason, filters = pruner.check(assignment)
        assert reason is None
        # The item main spans a wider tid range than the header delta, so at
        # least the item side gets a pushdown range filter.
        assert "i" in filters or "h" in filters
        for exprs in filters.values():
            for expr in exprs:
                assert "tid_header" in expr.canonical()

    def test_pushdown_disabled_produces_no_filters(self):
        db = self.setup_overlap_db()
        pruner = make_pruner(
            db, ExecutionStrategy.CACHED_FULL_PRUNING, pushdown=False
        )
        assignment = {
            "h": db.table("header").partition("delta"),
            "i": db.table("item").partition("main"),
        }
        assert pruner.check(assignment)[1] == {}

    def test_pushdown_requires_full_pruning_strategy(self):
        db = self.setup_overlap_db()
        pruner = make_pruner(
            db, ExecutionStrategy.CACHED_EMPTY_DELTA, pushdown=True
        )
        assignment = {
            "h": db.table("header").partition("delta"),
            "i": db.table("item").partition("main"),
        }
        assert pruner.check(assignment)[1] == {}

