"""Soundness properties of dynamic tid-range pruning and pushdown.

The pruner derives tid ranges from the *dictionaries* of the current
partitions — which cover every physical row, including invalidated and
not-yet-visible ones.  That makes prune verdicts snapshot-independent, and
these tests hold it to that claim over randomized update/delete/merge
histories:

* a pruned subjoin must aggregate to nothing at *every* snapshot, old or
  new, when evaluated anyway;
* pushdown filters must never drop a matching row — queries with and
  without pushdown agree exactly.
"""

import random

import pytest

from repro import CacheConfig, ExecutionStrategy
from repro.query.executor import ComboSpec

from ..conftest import PROFIT_SQL, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED


def _pruned_subjoins_are_empty(db, sql):
    """Evaluate every pruned subjoin anyway, at a spread of snapshots."""
    plan = db.cache.plan_for(sql, FULL)
    current = db.transactions.global_snapshot()
    snapshots = sorted({1, current // 2, max(1, current - 1), current})
    checked = 0
    for sub in plan.subjoins:
        if sub.action != "pruned":
            continue
        for snapshot in snapshots:
            value = db.executor.execute(
                plan.query, snapshot, combos=[ComboSpec(dict(sub.partitions))]
            )
            assert value.group_count() == 0, (
                f"subjoin pruned as {sub.reason!r} produced rows "
                f"at snapshot {snapshot}"
            )
            checked += 1
    return checked


def _random_history(db, rng, steps=30, start=100):
    """Apply a deterministic mixed DML history; returns inserted pks."""
    next_hid, next_iid = start, start * 100
    headers, items = [], []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.4:
            hid = next_hid
            next_hid += 1
            db.insert("header", {"hid": hid, "year": 2013 + hid % 2})
            headers.append(hid)
            for _ in range(rng.randint(1, 3)):
                db.insert(
                    "item",
                    {
                        "iid": next_iid,
                        "hid": hid,
                        "cid": rng.randint(0, 1),
                        "price": rng.randint(1, 40) / 4.0,
                    },
                )
                items.append(next_iid)
                next_iid += 1
        elif roll < 0.55 and headers:
            db.update("header", rng.choice(headers), {"year": 2044})
        elif roll < 0.7 and items:
            victim = rng.choice(items)
            if db.table("item").get_row(victim) is not None:
                db.delete("item", victim)
        elif roll < 0.8:
            db.merge()


class TestPrunedSubjoinsTrulyEmpty:
    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_random_histories_with_ri(self, seed):
        db = make_erp_db()
        load_erp(db, n_headers=4, merge=True)
        rng = random.Random(seed)
        checked_total = 0
        for round_no in range(3):
            _random_history(db, rng, steps=12, start=100 + 1000 * round_no)
            checked_total += _pruned_subjoins_are_empty(db, PROFIT_SQL)
            result = db.query(PROFIT_SQL, strategy=FULL)
            assert result.rows == db.query(PROFIT_SQL, strategy=UNCACHED).rows
        assert checked_total > 0  # the histories actually produced prunes


class TestPushdownDropsNoRows:
    @pytest.mark.parametrize("seed", [9, 31])
    def test_same_rows_with_and_without_pushdown(self, seed):
        dbs = {
            push: make_erp_db(cache_config=CacheConfig(predicate_pushdown=push))
            for push in (True, False)
        }
        for db in dbs.values():
            load_erp(db, n_headers=4, merge=True)
            _random_history(db, random.Random(seed), steps=25)
        rows = {
            push: db.query(PROFIT_SQL, strategy=FULL).rows
            for push, db in dbs.items()
        }
        assert rows[True] == rows[False]
        assert rows[True] == dbs[True].query(PROFIT_SQL, strategy=UNCACHED).rows


class TestNullTidRegression:
    """Under enforced RI a NULL tid means a NULL foreign key — a row that
    joins nothing — so dictionary ranges, which ignore NULLs, prune."""

    def test_with_ri_enforced_ranges_still_prune(self):
        """Range pruning fires on a merged ERP history.  (Star-join
        reduction off keeps enumeration exhaustive: the merged tables
        would otherwise all be excluded with nothing left to prune.)"""
        db = make_erp_db(cache_config=CacheConfig(star_join_reduction=False))
        load_erp(db, n_headers=3, merge=True)
        db.query(PROFIT_SQL, strategy=FULL)
        assert db.last_report.prune.pruned_total > 0

    def test_null_fk_side_is_pruned(self):
        """An item delta holding only a NULL-foreign-key row has no tid
        range: every subjoin reading it is empty and pruned."""
        db = make_erp_db(cache_config=CacheConfig(star_join_reduction=False))
        load_erp(db, n_headers=3, merge=True)
        db.insert("item", {"iid": 9100, "hid": None, "cid": None, "price": 4.5})
        plan = db.cache.plan_for(PROFIT_SQL, FULL)
        reading_it = [
            sub for sub in plan.subjoins if sub.partitions["i"].kind == "delta"
        ]
        assert reading_it
        assert {(sub.action, sub.reason) for sub in reading_it} <= {
            ("pruned", "dynamic"),
            ("pruned", "empty"),
        }
        assert ("pruned", "dynamic") in {(s.action, s.reason) for s in reading_it}
        result = db.query(PROFIT_SQL, strategy=FULL)
        assert result.rows == db.query(PROFIT_SQL, strategy=UNCACHED).rows
