"""Plans keyed on the structural epoch: what DML keeps, what it re-derives,
and what still invalidates.

Insert, update and delete move a table's ``version`` but not its
``epoch``.  A cached plan over such a table keeps its skeleton — cache
keys, cached combinations, compensation assignments, pruner — and only its
prune verdicts, pushdown filters, prune report and signature are derived
again (``Planner.reprune``).  Merges, MD / aging registration and schema
changes move the epoch and rebuild the plan, as does a star-join exclusion
flip (a dimension delta going empty → non-empty).
"""

import random

import pytest

from repro import CacheConfig, ExecutionStrategy
from repro.storage.schema import tid_column

from ..conftest import HEADER_ITEM_SQL, PROFIT_SQL, load_erp, make_erp_db
from .test_plan_cache import lookup_outcome, make_two_domain_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED

DML = [
    pytest.param(
        lambda db: db.insert("item", {"iid": 7777, "hid": 0, "cid": 0, "price": 1.0}),
        id="insert",
    ),
    pytest.param(lambda db: db.update("item", 0, {"price": 99.0}), id="update"),
    pytest.param(lambda db: db.delete("item", 1), id="delete"),
]


def merged_db(star_join_reduction=True):
    db = make_erp_db(cache_config=CacheConfig(star_join_reduction=star_join_reduction))
    load_erp(db, n_headers=6, merge=True)
    return db


def fates(plan):
    """Everything the verdicts decide, in comparable form."""
    return (
        [
            (
                {alias: id(p) for alias, p in sub.partitions.items()},
                sub.action,
                sub.reason,
                {a: [e.canonical() for e in f] for a, f in sub.pushdown.items()},
            )
            for sub in plan.subjoins
        ],
        vars(plan.prune),
        plan.signature,
        plan.structure,
    )


def pushdown_of(plan, **partitions):
    """The pushdown filters of the subjoin reading exactly ``partitions``."""
    for sub in plan.subjoins:
        if sub.partition_names() == partitions:
            assert sub.action == "evaluate"
            return {a: [e.canonical() for e in f] for a, f in sub.pushdown.items()}
    raise AssertionError(f"no subjoin {partitions}")


class TestDmlKeepsTheSkeleton:
    @pytest.mark.parametrize("mutate", DML)
    def test_lookup_is_a_hit_over_the_same_skeleton(self, mutate):
        db = make_two_domain_db()
        db.query(PROFIT_SQL, strategy=FULL)
        old = db.cache.plan_for(PROFIT_SQL, FULL)
        before = db.plan_cache.stats()
        mutate(db)
        assert lookup_outcome(db, PROFIT_SQL) == "hit"
        after = db.plan_cache.stats()
        assert after["rederived"] == before["rederived"] + 1
        assert after["invalidations"] == before["invalidations"]
        new = db.cache.plan_for(PROFIT_SQL, FULL)
        assert new is not old
        assert new.cached_combos is old.cached_combos
        assert new.cache_keys is old.cache_keys
        assert new.assignments is old.assignments
        assert new.logical is old.logical and new.pruner is old.pruner
        assert new.structure == old.structure
        assert new.signature != old.signature
        assert db.query(PROFIT_SQL, strategy=FULL).rows == (
            db.query(PROFIT_SQL, strategy=UNCACHED).rows
        )

    @pytest.mark.parametrize("seed", [3, 11])
    def test_rederived_verdicts_equal_a_fresh_build(self, seed):
        rng = random.Random(seed)
        # The same history on a reducing and an exhaustive database.
        reducing, exhaustive = merged_db(), merged_db(star_join_reduction=False)
        next_iid = 5000
        deletable = list(range(6, 18))  # main items no update touches
        statements = [
            (reducing, PROFIT_SQL), (exhaustive, PROFIT_SQL), (exhaustive, HEADER_ITEM_SQL)
        ]
        for db, sql in statements:
            db.cache.plan_for(sql, FULL)

        def stat(name):
            return sum(db.plan_cache.stats()[name] for db in (reducing, exhaustive))

        for _ in range(12):
            action = rng.choice(["late_item", "object", "update", "delete"])
            if action == "late_item":
                next_iid += 1
                row = {"iid": next_iid, "hid": rng.randrange(6), "cid": 1, "price": 2.5}
                write = lambda db: db.insert("item", row)
            elif action == "object":
                hid = rng.randrange(100, 900)
                write = lambda db: load_erp(db, n_headers=1, start_hid=hid, merge=False)
            elif action == "update":
                key, price = rng.randrange(6), rng.randrange(1, 9) * 0.5
                write = lambda db: db.update("item", key, {"price": price})
            else:
                key = deletable.pop(rng.randrange(len(deletable)))
                write = lambda db: db.delete("item", key)
            write(reducing)
            write(exhaustive)
            before = stat("rederived") + stat("exclusion_flips")
            again = [db.cache.plan_for(sql, FULL) for db, sql in statements]
            # Every lookup re-derived, or found the exclusions flipped.
            assert stat("rederived") + stat("exclusion_flips") - before == len(statements)
            for db, sql in statements:
                db.plan_cache.clear()
            for plan, (db, sql) in zip(again, statements):
                assert fates(plan) == fates(db.cache.plan_for(sql, FULL))
        assert stat("rederived") >= 2 * len(statements)


class TestVerdictsFollowTheData:
    def test_empty_pruned_subjoin_is_evaluated_once_its_delta_has_rows(self):
        db = merged_db(star_join_reduction=False)
        plan = db.cache.plan_for(HEADER_ITEM_SQL, FULL)
        both_deltas = [
            s for s in plan.subjoins
            if s.partition_names() == {"h": "delta", "i": "delta"}
        ]
        assert both_deltas[0].action == "pruned"
        assert both_deltas[0].reason == "empty"
        load_erp(db, n_headers=1, start_hid=100, merge=False)
        plan = db.cache.plan_for(HEADER_ITEM_SQL, FULL)
        assert db.plan_cache.stats()["rederived"] == 1
        assert pushdown_of(plan, h="delta", i="delta") is not None
        result = db.query(HEADER_ITEM_SQL, strategy=FULL)
        assert result.report.prune.evaluated >= 1
        assert result.rows == db.query(HEADER_ITEM_SQL, strategy=UNCACHED).rows

    def test_pushdown_bounds_follow_a_widened_tid_range(self):
        db = merged_db(star_join_reduction=False)
        tid_of = {
            hid: db.table("header").get_row(hid)["tid_header"] for hid in (1, 4)
        }
        db.insert("item", {"iid": 9000, "hid": 1, "cid": 0, "price": 2.0})
        plan = db.cache.plan_for(HEADER_ITEM_SQL, FULL)
        lo = tid_of[1]
        assert pushdown_of(plan, h="main", i="delta")["h"] == [
            f"(h.tid_header >= {lo})", f"(h.tid_header <= {lo})"
        ]
        db.insert("item", {"iid": 9001, "hid": 4, "cid": 0, "price": 2.0})
        rederived = db.plan_cache.stats()["rederived"]
        plan = db.cache.plan_for(HEADER_ITEM_SQL, FULL)
        assert db.plan_cache.stats()["rederived"] == rederived + 1
        assert pushdown_of(plan, h="main", i="delta")["h"] == [
            f"(h.tid_header >= {lo})", f"(h.tid_header <= {tid_of[4]})"
        ]
        result = db.query(HEADER_ITEM_SQL, strategy=FULL)
        assert result.rows == db.query(HEADER_ITEM_SQL, strategy=UNCACHED).rows


class TestRebuilds:
    def test_exclusion_flip_rebuilds_the_plan_and_the_memo(self):
        db = merged_db()
        load_erp(db, n_headers=2, start_hid=100, merge=False)
        db.query(PROFIT_SQL, strategy=FULL)
        db.query(PROFIT_SQL, strategy=FULL)
        old = db.cache.plan_for(PROFIT_SQL, FULL)
        assert old.excluded_fingerprint() == ("d",)
        before = db.plan_cache.stats()
        db.insert("category", {"cid": 5, "name": "cat5", "lang": "ENG"})
        assert lookup_outcome(db, PROFIT_SQL) == "invalidated"
        after = db.plan_cache.stats()
        assert after["exclusion_flips"] == before["exclusion_flips"] + 1
        assert after["rederived"] == before["rederived"]
        new = db.cache.plan_for(PROFIT_SQL, FULL)
        assert new.excluded == ()
        assert new.assignments is not old.assignments
        result = db.query(PROFIT_SQL, strategy=FULL)
        assert result.report.delta_memo_mode == "full"
        assert result.rows == db.query(PROFIT_SQL, strategy=UNCACHED).rows

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda db: db.merge("item"), id="merge"),
            pytest.param(
                lambda db: db.declare_consistent_aging("header", "item"), id="aging"
            ),
        ],
    )
    def test_structural_changes_invalidate(self, mutate):
        db = make_two_domain_db()
        db.cache.plan_for(PROFIT_SQL, FULL)
        epoch = db.table("item").epoch
        mutate(db)
        assert db.table("item").epoch == epoch + 1
        assert lookup_outcome(db, PROFIT_SQL) == "invalidated"

    def test_md_registration_and_schema_extension_invalidate(self):
        db = make_two_domain_db()
        db.create_table("p", [("pid", "INT"), ("tag", "INT")], primary_key="pid")
        db.create_table("c", [("cid", "INT"), ("fk", "INT")], primary_key="cid")
        sql = "SELECT y.tag AS tag, COUNT(*) AS n FROM p y, c x WHERE y.pid = x.fk GROUP BY y.tag"
        single = "SELECT y.tag AS tag, COUNT(*) AS n FROM p y GROUP BY y.tag"
        db.cache.plan_for(sql, FULL)
        db.add_matching_dependency("p", "pid", "c", "fk")
        assert lookup_outcome(db, sql) == "invalidated"
        db.cache.plan_for(single, FULL)
        db.table("p").extend_schema([tid_column("tid_extra")])
        assert lookup_outcome(db, single) == "invalidated"

    def test_dml_leaves_the_epoch_alone(self):
        db = merged_db()
        table = db.table("item")
        epoch, version = table.epoch, table.version
        db.insert("item", {"iid": 9100, "hid": 0, "cid": 0, "price": 1.0})
        db.update("item", 9100, {"price": 2.0})
        db.delete("item", 9100)
        assert table.epoch == epoch
        assert table.version == version + 3


class TestPureHitAfterDml:
    def test_reuse_refused_after_insert_into_a_referenced_table(self):
        """Exhaustive enumeration, so that the insert re-derives the plan
        rather than lifting an exclusion."""
        db = make_two_domain_db()
        db.cache.config.star_join_reduction = False
        db.merge()
        db.query(PROFIT_SQL)
        assert db.query(PROFIT_SQL).report.result_reused
        db.insert("other", {"k": 100, "g": 0, "v": 1.0})
        # An unrelated table: the plan is a plain hit and the order holds.
        assert db.query(PROFIT_SQL).report.result_reused
        rederived = db.plan_cache.stats()["rederived"]
        db.insert("item", {"iid": 9200, "hid": 0, "cid": 0, "price": 4.0})
        result = db.query(PROFIT_SQL)
        assert db.plan_cache.stats()["rederived"] == rederived + 1
        assert not result.report.result_reused
        assert result.rows == db.query(PROFIT_SQL, strategy=UNCACHED).rows
