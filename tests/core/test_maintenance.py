"""Tests for incremental cache maintenance at delta-merge time (Section 5.2)."""

import pytest

from repro import Database, ExecutionStrategy
from repro.storage import threshold_aging

from ..conftest import HEADER_ITEM_SQL, PROFIT_SQL, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED


class TestIncrementalMaintenance:
    def test_entry_survives_merge_and_stays_correct(self, erp_db):
        erp_db.query(HEADER_ITEM_SQL, strategy=FULL)
        erp_db.merge()
        result = erp_db.query(HEADER_ITEM_SQL, strategy=FULL)
        assert erp_db.last_report.cache_hits == 1
        assert erp_db.last_report.entries_recomputed == 0
        assert result == erp_db.query(HEADER_ITEM_SQL, strategy=UNCACHED)

    def test_entry_value_absorbs_merged_delta(self, erp_db):
        erp_db.query(HEADER_ITEM_SQL, strategy=FULL)
        (entry,) = erp_db.cache.entries_for(erp_db.parse(HEADER_ITEM_SQL))
        before = entry.metrics.aggregated_records_main
        erp_db.merge()
        assert entry.metrics.aggregated_records_main == before + 6  # 2 objects x 3

    def test_maintenance_pays_off_invalidation_debt(self, erp_db):
        erp_db.query(HEADER_ITEM_SQL, strategy=FULL)
        erp_db.update("item", 0, {"price": 999.0})
        erp_db.merge()
        result = erp_db.query(HEADER_ITEM_SQL, strategy=FULL)
        # Debt was retired at merge time: nothing to compensate now.
        assert erp_db.last_report.invalidated_rows_compensated == 0
        assert result == erp_db.query(HEADER_ITEM_SQL, strategy=UNCACHED)

    def test_repeated_merges(self, erp_db):
        erp_db.query(HEADER_ITEM_SQL, strategy=FULL)
        for round_no in range(3):
            load_erp(erp_db, n_headers=2, start_hid=500 + round_no * 10, merge=False)
            erp_db.merge()
            assert erp_db.query(HEADER_ITEM_SQL, strategy=FULL) == erp_db.query(
                HEADER_ITEM_SQL, strategy=UNCACHED
            )
        (entry,) = erp_db.cache.entries_for(erp_db.parse(HEADER_ITEM_SQL))
        assert entry.matches_current_partitions()

    def test_unsynchronized_merges_stay_correct(self, erp_db):
        """Merging item and header independently (Section 5.2's bad case for
        pruning success) must still maintain entries exactly."""
        erp_db.query(HEADER_ITEM_SQL, strategy=FULL)
        erp_db.merge("item")
        assert erp_db.query(HEADER_ITEM_SQL, strategy=FULL) == erp_db.query(
            HEADER_ITEM_SQL, strategy=UNCACHED
        )
        erp_db.merge("header")
        result = erp_db.query(HEADER_ITEM_SQL, strategy=FULL)
        assert erp_db.last_report.cache_hits == 1
        assert result == erp_db.query(HEADER_ITEM_SQL, strategy=UNCACHED)

    def test_three_table_entry_maintained(self, erp_db):
        erp_db.query(PROFIT_SQL, strategy=FULL)
        erp_db.insert("category", {"cid": 9, "name": "new", "lang": "ENG"})
        load_erp(erp_db, n_headers=1, start_hid=900, merge=False)
        erp_db.merge()
        cached = erp_db.query(PROFIT_SQL, strategy=FULL)
        assert erp_db.last_report.cache_hits == 1
        assert cached == erp_db.query(PROFIT_SQL, strategy=UNCACHED)

    def test_merge_with_empty_delta_is_noop_for_value(self, erp_db):
        erp_db.merge()
        erp_db.query(HEADER_ITEM_SQL, strategy=FULL)
        (entry,) = erp_db.cache.entries_for(erp_db.parse(HEADER_ITEM_SQL))
        value_before = sorted(entry.value.copy().finalize())
        erp_db.merge()  # nothing in the deltas
        assert sorted(entry.value.finalize()) == value_before


class TestAgedMaintenance:
    def make_aged(self):
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
        db.declare_consistent_aging("header", "item")
        for hid, year in [(1, 2010), (2, 2015), (3, 2016)]:
            db.insert_business_object(
                "header",
                {"hid": hid, "year": year},
                "item",
                [
                    {"iid": hid * 10 + k, "hid": hid, "year": year, "price": float(k + 1)}
                    for k in range(2)
                ],
            )
        db.merge()
        return db

    SQL = "SELECT h.year AS y, SUM(i.price) AS s FROM header h, item i WHERE h.hid = i.hid GROUP BY h.year"

    def test_one_entry_per_temperature_combination(self):
        db = self.make_aged()
        db.query(self.SQL, strategy=FULL)
        # 2 tables x {hot_main, cold_main} = 4 all-main combos = 4 entries.
        assert db.cache.entry_count() == 4

    def test_hot_group_merge_maintains_only_hot_entries(self):
        db = self.make_aged()
        db.query(self.SQL, strategy=FULL)
        db.insert_business_object(
            "header",
            {"hid": 9, "year": 2017},
            "item",
            [{"iid": 90, "hid": 9, "year": 2017, "price": 5.0}],
        )
        db.merge("header", group_name="hot")
        db.merge("item", group_name="hot")
        result = db.query(self.SQL, strategy=FULL)
        assert db.last_report.cache_hits == 4
        assert result == db.query(self.SQL, strategy=UNCACHED)

    def test_correctness_across_temperatures(self):
        db = self.make_aged()
        reference = db.query(self.SQL, strategy=UNCACHED)
        assert db.query(self.SQL, strategy=FULL) == reference
        assert db.query(
            self.SQL, strategy=ExecutionStrategy.CACHED_NO_PRUNING
        ) == reference
