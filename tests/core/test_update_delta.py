"""Tests for the separate update-delta partition (the paper's Section-8
"negative delta" future-work direction, implemented here).

With ``separate_update_delta=True`` every partition group carries a third,
update-only delta.  Updates no longer pollute the insert delta's tid ranges,
so dynamic pruning of the main x insert-delta subjoins keeps succeeding
under update traffic — while correctness is preserved by construction (the
update delta is just one more partition in the compensation set).
"""

import pytest

from repro import Database, ExecutionStrategy
from repro.storage import threshold_aging

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED

SQL = (
    "SELECT i.cid AS cid, SUM(i.price) AS profit, COUNT(*) AS n "
    "FROM header h, item i WHERE h.hid = i.hid GROUP BY i.cid"
)


def make_db(separate_update_delta: bool, aged: bool = False) -> Database:
    db = Database()
    aging = threshold_aging("year", 2014) if aged else None
    db.create_table(
        "header",
        [("hid", "INT"), ("year", "INT")],
        primary_key="hid",
        aging_rule=aging,
        separate_update_delta=separate_update_delta,
    )
    db.create_table(
        "item",
        [("iid", "INT"), ("hid", "INT"), ("cid", "INT"), ("price", "FLOAT"), ("year", "INT")],
        primary_key="iid",
        aging_rule=aging,
        separate_update_delta=separate_update_delta,
    )
    db.add_matching_dependency("header", "hid", "item", "hid")
    return db


def load(db, n_headers=6, start=0, year=2014, merge=True):
    for hid in range(start, start + n_headers):
        db.insert_business_object(
            "header",
            {"hid": hid, "year": year},
            "item",
            [
                {"iid": hid * 10 + k, "hid": hid, "cid": k % 2, "price": float(k + 1), "year": year}
                for k in range(3)
            ],
        )
    if merge:
        db.merge()


class TestPartitionLayout:
    def test_third_partition_exists(self):
        db = make_db(True)
        names = [p.name for p in db.table("item").partitions()]
        assert names == ["main", "delta", "udelta"]

    def test_aged_layout(self):
        db = make_db(True, aged=True)
        names = [p.name for p in db.table("item").partitions()]
        assert names == [
            "hot_main", "hot_delta", "hot_udelta",
            "cold_main", "cold_delta", "cold_udelta",
        ]

    def test_disabled_by_default(self):
        db = make_db(False)
        assert [p.name for p in db.table("item").partitions()] == ["main", "delta"]


class TestRouting:
    def test_updates_land_in_udelta(self):
        db = make_db(True)
        load(db)
        db.update("item", 1, {"price": 99.0})
        assert db.table("item").partition("udelta").row_count == 1
        assert db.table("item").partition("delta").row_count == 0

    def test_inserts_land_in_insert_delta(self):
        db = make_db(True)
        load(db)
        db.insert("header", {"hid": 900, "year": 2014})
        db.insert("item", {"iid": 9000, "hid": 900, "cid": 0, "price": 1.0, "year": 2014})
        assert db.table("item").partition("delta").row_count == 1
        assert db.table("item").partition("udelta").row_count == 0

    def test_update_of_delta_row_goes_to_udelta(self):
        db = make_db(True)
        load(db, merge=False)  # rows still in the insert delta
        db.update("item", 1, {"price": 5.5})
        assert db.table("item").partition("udelta").row_count == 1
        assert db.table("item").get_row(1)["price"] == 5.5

    def test_cold_update_goes_to_cold_udelta(self):
        db = make_db(True, aged=True)
        load(db, year=2010)  # cold rows
        db.update("item", 1, {"price": 7.0})
        assert db.table("item").partition("cold_udelta").row_count == 1


class TestCorrectness:
    def test_strategies_agree_under_updates(self):
        db = make_db(True)
        load(db)
        db.query(SQL, strategy=FULL)
        load(db, n_headers=2, start=100, merge=False)
        db.update("item", 1, {"price": 50.0})  # main-resident row
        db.update("item", 1001, {"price": 60.0})  # delta-resident row
        reference = db.query(SQL, strategy=UNCACHED)
        for strategy in (
            ExecutionStrategy.CACHED_NO_PRUNING,
            ExecutionStrategy.CACHED_EMPTY_DELTA,
            FULL,
        ):
            assert db.query(SQL, strategy=strategy) == reference, strategy

    def test_merge_folds_both_deltas(self):
        db = make_db(True)
        load(db)
        db.query(SQL, strategy=FULL)
        load(db, n_headers=1, start=50, merge=False)
        db.update("item", 1, {"price": 42.0})
        db.merge()
        assert db.table("item").partition("udelta").row_count == 0
        assert db.table("item").partition("delta").row_count == 0
        cached = db.query(SQL, strategy=FULL)
        assert db.last_report.cache_hits == 1  # entry incrementally maintained
        assert cached == db.query(SQL, strategy=UNCACHED)

    def test_compensation_covers_three_partitions(self):
        db = make_db(True)
        load(db)
        db.query(SQL, strategy=ExecutionStrategy.CACHED_NO_PRUNING)
        # 2 tables x 3 partitions = 9 combos, minus the main-only one.
        assert db.last_report.prune.combos_total == 8


class TestPruningBenefit:
    def _pruning_after_updates(self, separate: bool) -> int:
        db = make_db(separate)
        load(db, n_headers=20)
        db.query(SQL, strategy=FULL)
        # Update traffic against main-resident rows...
        for hid in range(10):
            db.update("item", hid * 10 + 1, {"price": 2.0})
        # ...then fresh insert business.
        load(db, n_headers=3, start=200, merge=False)
        db.query(SQL, strategy=FULL)
        return db.last_report.prune

    def test_insert_delta_stays_prunable(self):
        with_udelta = self._pruning_after_updates(True)
        without = self._pruning_after_updates(False)
        # Without the update delta, the updated rows' old tids sit in the
        # single delta and the Hmain x Idelta subjoin cannot be pruned.
        assert without.evaluated > 1
        # With it, the insert delta keeps fresh tids: every main x
        # insert-delta cross is pruned; only delta-delta and the small
        # udelta subjoins are evaluated.
        assert with_udelta.pruned_dynamic >= without.pruned_dynamic
        assert with_udelta.evaluated <= without.evaluated + 2  # udelta combos are extra

    def test_udelta_subjoins_counted_but_cheap(self):
        # Star-join reduction off keeps enumeration exhaustive: after the
        # merge header's deltas are empty, so reduction would otherwise
        # pin it and count 2 combos instead of the udelta-shaped 8.
        db = make_db(True)
        db.cache.config.star_join_reduction = False
        load(db, n_headers=10)
        db.query(SQL, strategy=FULL)
        db.update("item", 1, {"price": 3.0})
        db.query(SQL, strategy=FULL)
        report = db.last_report.prune
        assert report.combos_total == 8
        # Most of the 8 compensation subjoins are pruned (empty or ranges).
        assert report.pruned_total >= 5
