"""Star-join reduction vs the delta memo, degenerate shapes, and parity.

Satellite guarantees pinned here:

* the excluded-table decision is part of the memo's identity — toggling
  the override, the config flag, or the emptiness of a dimension delta
  must route ``classify_memo`` to a step from birth, never replay a memo
  folded over a different combo set;
* degenerate cases (k = 0, single-table statements) still scan the delta
  suffix — an all-excluded join must not silently return an empty combo
  list when a delta later grows rows;
* reduction on/off is bit-identical (values, types, order) across
  memo (kept, or dropped before every read) x plan-cache configurations,
  including
  concurrent-writer histories that grow a previously-empty dimension
  delta mid-run.
"""

import random

import pytest

from repro import Database, ExecutionStrategy
from repro.core.delta_compensation import sound_exclusions
from repro.plan.star_join import ExcludedTable

from ..conftest import (
    HEADER_ITEM_SQL,
    PROFIT_SQL,
    forget_memos,
    load_erp,
    make_erp_db,
    query_exhaustive,
)

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED


def _uncached_rows(db, sql, **kwargs):
    return db.query(sql, strategy=UNCACHED, **kwargs).rows


class TestMemoIdentity:
    def test_override_toggle_rebuilds_memo(self, erp_db):
        erp_db.query(PROFIT_SQL, strategy=FULL)
        erp_db.query(PROFIT_SQL, strategy=FULL)
        assert erp_db.last_report.delta_memo_mode == "incremental"
        # Same strategy, different combo set -> fingerprint mismatch.
        erp_db.cache.config.star_join_reduction = False
        result = erp_db.query(PROFIT_SQL, strategy=FULL)
        assert erp_db.last_report.delta_memo_mode == "full"
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)
        # And the new decision settles in turn.
        erp_db.query(PROFIT_SQL, strategy=FULL)
        assert erp_db.last_report.delta_memo_mode == "incremental"

    def test_dimension_delta_growth_rebuilds_memo(self, erp_db):
        """THE satellite case: a memo folded with category pinned to main
        has no watermark covering category's delta.  When that delta
        grows its first row the exclusion lifts, and the memo must be
        rebuilt, not advanced."""
        erp_db.query(PROFIT_SQL, strategy=FULL)
        erp_db.query(PROFIT_SQL, strategy=FULL)
        assert erp_db.last_report.prune.excluded_tables == 1
        erp_db.insert("category", {"cid": 5, "name": "cat5", "lang": "ENG"})
        erp_db.insert(
            "item", {"iid": 9500, "hid": 100, "cid": 5, "price": 3.25}
        )
        result = erp_db.query(PROFIT_SQL, strategy=FULL)
        report = erp_db.last_report
        assert report.prune.excluded_tables == 0
        assert report.delta_memo_mode == "full"
        rows = _uncached_rows(erp_db, PROFIT_SQL)
        assert result.rows == rows
        assert any(row[0] == "cat5" for row in rows)  # the new group landed

    def test_config_flag_toggle_rebuilds_memo(self, erp_db):
        erp_db.query(PROFIT_SQL, strategy=FULL)
        erp_db.query(PROFIT_SQL, strategy=FULL)
        erp_db.cache.config.star_join_reduction = False
        result = erp_db.query(PROFIT_SQL, strategy=FULL)
        report = erp_db.last_report
        assert report.prune.excluded_tables == 0
        assert report.delta_memo_mode == "full"
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)
        erp_db.cache.config.star_join_reduction = True
        erp_db.query(PROFIT_SQL, strategy=FULL)
        assert erp_db.last_report.delta_memo_mode == "full"  # flipped back


class TestDegenerateShapes:
    def test_single_table_with_delta_rows(self, erp_db):
        sql = "SELECT i.cid AS cid, COUNT(*) AS n FROM item i GROUP BY i.cid"
        result = erp_db.query(sql, strategy=FULL)
        report = erp_db.last_report
        # item's delta is non-empty -> no exclusion, the one compensation
        # variant (the delta itself) is enumerated and scanned.
        assert report.prune.excluded_tables == 0
        assert report.prune.combos_total == 1
        assert result.rows == _uncached_rows(erp_db, sql)

    def test_single_table_fully_merged(self):
        db = make_erp_db()
        load_erp(db, n_headers=4, merge=True)
        sql = "SELECT i.cid AS cid, COUNT(*) AS n FROM item i GROUP BY i.cid"
        result = db.query(sql, strategy=FULL)
        report = db.last_report
        # k = 0: zero variants is correct here — but only because the
        # delta is provably empty, not because the list collapsed.
        assert report.prune.excluded_tables == 1
        assert report.prune.combos_total == 0
        assert result.rows == _uncached_rows(db, sql)

    def test_all_excluded_join_rescans_after_delta_grows(self):
        """k = 0 regression: both tables excluded, then an item arrives.
        The next query must re-include item and scan its delta suffix —
        never reuse the zero-variant plan or memo."""
        db = make_erp_db()
        load_erp(db, n_headers=4, merge=True)
        db.query(HEADER_ITEM_SQL, strategy=FULL)
        assert db.last_report.prune.combos_total == 0
        assert db.last_report.prune.excluded_tables == 2
        before = _uncached_rows(db, HEADER_ITEM_SQL)
        db.insert("item", {"iid": 9600, "hid": 0, "cid": 0, "price": 10.0})
        result = db.query(HEADER_ITEM_SQL, strategy=FULL)
        report = db.last_report
        assert report.prune.excluded_tables == 1  # header stays excluded
        assert report.prune.combos_total == 1
        rows = _uncached_rows(db, HEADER_ITEM_SQL)
        assert result.rows == rows
        assert rows != before  # the fresh delta row changed the answer

    def test_stale_exclusion_degrades_to_enumeration(self, erp_db):
        """The enumeration-time gate: an exclusion decided when the delta
        was empty is dropped by sound_exclusions once rows exist."""
        query = erp_db.cache.plan_for(PROFIT_SQL, FULL).query
        stale = (ExcludedTable("d", "category"),)
        assert sound_exclusions(query, erp_db.catalog, stale) == stale
        erp_db.insert("category", {"cid": 7, "name": "cat7", "lang": "ENG"})
        assert sound_exclusions(query, erp_db.catalog, stale) == ()


class TestReductionParity:
    """Reduction on vs off must agree bit for bit — values, types, and
    row order — whatever the execution configuration."""

    #: ``no_memo`` drops every memo before each read: every read steps
    #: from its entry's birth.  ``no_plan_cache`` drops every plan before
    #: each read: every read binds and plans afresh.
    CONFIGS = ("serial", "no_memo", "no_plan_cache")

    @staticmethod
    def _typed(rows):
        return [tuple((type(v).__name__, v) for v in row) for row in rows]

    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @pytest.mark.parametrize("seed", [7, 19])
    def test_randomized_histories(self, config_name, seed):
        db = make_erp_db()

        def before_read():
            if config_name == "no_memo":
                forget_memos(db)
            elif config_name == "no_plan_cache":
                db.plan_cache.clear()

        load_erp(db, n_headers=4, merge=True)
        rng = random.Random(seed)
        try:
            for round_no in range(3):
                # A writer interleaves with the reader: fresh headers and
                # items, and mid-run the previously-empty category delta
                # grows (lifting the exclusion decided in round 0).
                start = 300 + 100 * round_no
                load_erp(db, n_headers=2, start_hid=start, merge=False)
                if round_no == 1:
                    db.insert(
                        "category",
                        {"cid": 3, "name": "cat3", "lang": "ENG"},
                    )
                if rng.random() < 0.5:
                    db.merge()
                for sql in (PROFIT_SQL, HEADER_ITEM_SQL):
                    # Warm both plans so later rounds exercise the
                    # plan-cache-hit path (except under no_plan_cache).
                    before_read()
                    reduced = db.query(sql, strategy=FULL)
                    before_read()
                    exhaustive = query_exhaustive(db, sql, strategy=FULL)
                    before_read()
                    reference = db.query(sql, strategy=UNCACHED)
                    assert self._typed(reduced.rows) == self._typed(
                        reference.rows
                    )
                    assert self._typed(exhaustive.rows) == self._typed(
                        reference.rows
                    )
        finally:
            db.close()

    def test_pinned_snapshot_with_concurrent_writer(self, erp_db):
        """A reader pinned before the dimension delta grew must keep
        seeing the reduced-world answer; a current reader sees the new
        row — under both reduction settings."""
        erp_db.query(PROFIT_SQL, strategy=FULL)
        pinned = erp_db.transactions.global_snapshot()
        erp_db.insert("category", {"cid": 4, "name": "cat4", "lang": "ENG"})
        erp_db.insert(
            "item", {"iid": 9700, "hid": 101, "cid": 4, "price": 6.5}
        )
        old_reduced = erp_db.query(PROFIT_SQL, strategy=FULL, as_of=pinned)
        old_exhaustive = query_exhaustive(
            erp_db, PROFIT_SQL, strategy=FULL, as_of=pinned
        )
        old_reference = _uncached_rows(erp_db, PROFIT_SQL, as_of=pinned)
        assert old_reduced.rows == old_reference
        assert old_exhaustive.rows == old_reference
        new_rows = _uncached_rows(erp_db, PROFIT_SQL)
        assert erp_db.query(PROFIT_SQL, strategy=FULL).rows == new_rows
        assert any(row[0] == "cat4" for row in new_rows)
        assert not any(row[0] == "cat4" for row in old_reference)
