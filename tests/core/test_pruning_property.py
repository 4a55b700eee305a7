"""Soundness properties of dynamic tid-range pruning and pushdown.

The pruner derives tid ranges from the *dictionaries* of the current
partitions — which cover every physical row, including invalidated and
not-yet-visible ones.  That makes prune verdicts snapshot-independent, and
these tests hold it to that claim over randomized update/delete/merge
histories:

* a pruned subjoin must aggregate to nothing at *every* snapshot, old or
  new, when evaluated anyway;
* pushdown filters must never drop a matching row — queries with and
  without pushdown agree exactly;
* with referential-integrity enforcement off, NULL-tid rows (dangling
  children whose parent arrives later) can still join; range reasoning
  must stand aside for them.
"""

import random

import pytest

from repro import CacheConfig, Database, ExecutionStrategy
from repro.query.executor import ComboSpec

from ..conftest import PROFIT_SQL, load_erp, make_erp_db, query_exhaustive

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


def _random_history(db, rng, steps=30, dangling=False, start=100):
    """Apply a deterministic mixed DML history; returns inserted pks."""
    next_hid, next_iid = start, start * 100
    headers, items = [], []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.4:
            hid = next_hid
            next_hid += 1
            if dangling and rng.random() < 0.4:
                # Child first (NULL tid stamp), parent later — or never.
                for _ in range(rng.randint(1, 2)):
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
                if rng.random() < 0.7:
                    db.insert("header", {"hid": hid, "year": 2013})
                    headers.append(hid)
            else:
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

    @pytest.mark.parametrize("seed", [5, 23])
    def test_random_histories_without_ri(self, seed):
        db = make_erp_db(
            cache_config=CacheConfig(enforce_referential_integrity=False)
        )
        load_erp(db, n_headers=4, merge=True)
        rng = random.Random(seed)
        for round_no in range(3):
            _random_history(
                db, rng, steps=12, dangling=True, start=100 + 1000 * round_no
            )
            _pruned_subjoins_are_empty(db, PROFIT_SQL)
            result = db.query(PROFIT_SQL, strategy=FULL)
            assert result.rows == db.query(PROFIT_SQL, strategy=UNCACHED).rows


class TestPushdownDropsNoRows:
    @pytest.mark.parametrize("seed", [9, 31])
    @pytest.mark.parametrize("enforce_ri", [True, False])
    def test_same_rows_with_and_without_pushdown(self, seed, enforce_ri):
        dbs = {
            push: make_erp_db(
                cache_config=CacheConfig(
                    predicate_pushdown=push,
                    enforce_referential_integrity=enforce_ri,
                )
            )
            for push in (True, False)
        }
        for db in dbs.values():
            load_erp(db, n_headers=4, merge=True)
            _random_history(
                db, random.Random(seed), steps=25, dangling=not enforce_ri
            )
        rows = {
            push: db.query(PROFIT_SQL, strategy=FULL).rows
            for push, db in dbs.items()
        }
        assert rows[True] == rows[False]
        assert rows[True] == dbs[True].query(PROFIT_SQL, strategy=UNCACHED).rows


class TestNullTidRegression:
    """The fix this suite guards: with RI off, a child inserted before its
    parent carries a NULL tid; dictionary ranges ignore NULLs, so a range-
    based prune (or an all-NULL-side prune) would drop its join match."""

    def _db(self):
        db = make_erp_db(
            cache_config=CacheConfig(enforce_referential_integrity=False)
        )
        load_erp(db, n_headers=3, merge=True)
        return db

    def test_late_arriving_parent_still_joins(self):
        db = self._db()
        # Dangling child in the delta: NULL header-tid, NULL category-tid.
        db.insert(
            "item", {"iid": 9000, "hid": 777, "cid": 0, "price": 8.25}
        )
        db.insert("header", {"hid": 777, "year": 2020})
        result = db.query(PROFIT_SQL, strategy=FULL)
        assert result.rows == db.query(PROFIT_SQL, strategy=UNCACHED).rows
        total = sum(row[1] for row in result.rows)
        assert abs(total - sum(
            row[1] for row in db.query(PROFIT_SQL, strategy=UNCACHED).rows
        )) == 0

    def test_all_null_side_is_not_pruned(self):
        db = self._db()
        db.merge()  # empty the deltas
        # The item delta now holds *only* NULL-tid rows; its tid range is
        # undefined, which with trusted MDs would mean "prune".
        db.insert("item", {"iid": 9100, "hid": 888, "cid": 1, "price": 4.5})
        db.insert("header", {"hid": 888, "year": 2021})
        result = db.query(PROFIT_SQL, strategy=FULL)
        assert result.rows == db.query(PROFIT_SQL, strategy=UNCACHED).rows

    def test_excluded_hub_with_null_tid_children(self):
        """Star-join reduction re-attaches an excluded hub's main to every
        variant.  With RI off, the item delta can hold NULL-tid rows
        (dangling or late-stamped); the re-attached header main must
        still be probed by value, and range pruning on the remaining
        variants must stand aside for the NULL rows."""
        db = self._db()
        db.merge()  # both deltas empty: header becomes excludable
        # A dangling child (hid=999 has no parent anywhere) and a child
        # of a *main* header — both NULL-tid in the item delta.
        db.insert("item", {"iid": 9200, "hid": 999, "cid": 0, "price": 2.5})
        db.insert("item", {"iid": 9201, "hid": 0, "cid": 1, "price": 7.75})
        plan = db.cache.plan_for(PROFIT_SQL, FULL)
        excluded = {e.alias for e in plan.excluded}
        assert "h" in excluded and "d" in excluded
        result = db.query(PROFIT_SQL, strategy=FULL)
        assert result.rows == db.query(PROFIT_SQL, strategy=UNCACHED).rows
        # The late parent arrives: header's delta grows, its exclusion
        # lifts, and the formerly-dangling pair must now join.
        db.insert("header", {"hid": 999, "year": 2022})
        plan = db.cache.plan_for(PROFIT_SQL, FULL)
        assert "h" not in {e.alias for e in plan.excluded}
        reference = db.query(PROFIT_SQL, strategy=UNCACHED).rows
        assert db.query(PROFIT_SQL, strategy=FULL).rows == reference
        # ...and matches the exhaustive enumeration bit for bit.
        assert query_exhaustive(db, PROFIT_SQL, strategy=FULL).rows == reference

    def test_random_null_tid_histories_reduced_vs_exhaustive(self):
        """Property sweep: under RI-off dangling histories the reduced
        and exhaustive variant sets agree with the uncached truth."""
        db = self._db()
        rng = random.Random(17)
        for round_no in range(3):
            _random_history(
                db, rng, steps=10, dangling=True, start=500 + 1000 * round_no
            )
            reference = db.query(PROFIT_SQL, strategy=UNCACHED).rows
            assert db.query(PROFIT_SQL, strategy=FULL).rows == reference
            assert query_exhaustive(db, PROFIT_SQL, strategy=FULL).rows == reference

    def test_with_ri_enforced_ranges_still_prune(self):
        """Control: under enforced RI the same shapes stay prunable —
        the fix must not cost trusted deployments their prunes.
        (Star-join reduction off keeps enumeration exhaustive: the merged
        tables would otherwise all be excluded with nothing left to
        prune.)"""
        db = make_erp_db(cache_config=CacheConfig(star_join_reduction=False))
        load_erp(db, n_headers=3, merge=True)
        db.query(PROFIT_SQL, strategy=FULL)
        assert db.last_report.prune.pruned_total > 0
