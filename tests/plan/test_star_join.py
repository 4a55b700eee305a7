"""Star-join exclusion detection and its soundness gate.

The reduction replaces 2^t - 1 compensation variants with 2^k - 1 over
the k tables that can still contribute delta rows; everything here pins
the *decision* layer: which tables get excluded, when the gate vetoes a
candidate, and when the config switch and strategy turn it off.
"""

import pytest

from repro import CacheConfig, Database, ExecutionStrategy
from repro.plan import exclusion_is_sound, star_join_exclusions
from repro.storage import threshold_aging

from ..conftest import HEADER_ITEM_SQL, PROFIT_SQL, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
NO_PRUNE = ExecutionStrategy.CACHED_NO_PRUNING


def merged_db(**kwargs):
    """ERP db with everything in the mains — every table gate-eligible."""
    db = make_erp_db(**kwargs)
    load_erp(db, n_headers=4, merge=True)
    return db


class TestDetectionTiers:
    def test_empty_delta_reason_for_filtering_table(self, erp_db):
        # category groups the result but its delta is empty.
        plan = erp_db.cache.plan_for(PROFIT_SQL, FULL)
        assert [e.alias for e in plan.excluded] == ["d"]
        assert plan.excluded_fingerprint() == ("d",)

    def test_non_filtering_reason_for_join_only_table(self):
        # header contributes only its join key to HEADER_ITEM_SQL, item its
        # price too; with the deltas merged both pass the gate alike.
        db = merged_db()
        plan = db.cache.plan_for(HEADER_ITEM_SQL, FULL)
        assert plan.excluded_fingerprint() == ("h", "i")
        assert plan.prune.combos_total == 0  # k = 0: nothing to enumerate

    def test_delta_rows_block_exclusion(self, erp_db):
        # header and item hold fresh delta objects: neither may be pinned
        # to main, whatever tier would otherwise claim them.
        plan = erp_db.cache.plan_for(HEADER_ITEM_SQL, FULL)
        assert plan.excluded == ()
        assert plan.prune.combos_total == 3

    def test_detection_sorted_by_alias(self):
        db = merged_db()
        query = db.parse(PROFIT_SQL)
        excluded = star_join_exclusions(query, db.catalog)
        assert [e.alias for e in excluded] == sorted(e.alias for e in excluded)
        assert {e.alias for e in excluded} == {"d", "h", "i"}


class TestSoundnessGate:
    def test_gate_requires_physically_empty_deltas(self, erp_db):
        assert exclusion_is_sound(erp_db.table("category"))
        assert not exclusion_is_sound(erp_db.table("header"))
        assert not exclusion_is_sound(erp_db.table("item"))

    def test_invalidated_but_unmerged_rows_still_block(self):
        # A deleted delta row keeps row_count > 0 until the merge garbage
        # collects it; the gate must stay conservative (snapshot-free).
        db = merged_db()
        db.insert("category", {"cid": 9, "name": "late", "lang": "ENG"})
        db.delete("category", 9)
        assert not exclusion_is_sound(db.table("category"))
        db.merge()
        assert exclusion_is_sound(db.table("category"))

    def test_aged_table_is_never_excluded(self):
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
        for hid, year in [(1, 2013), (2, 2015)]:
            db.insert_business_object(
                "header",
                {"hid": hid, "year": year},
                "item",
                [{"iid": hid * 10, "hid": hid, "year": year, "price": 1.0}],
            )
        db.merge()  # splits the mains into current/passive by year
        assert db.table("header").is_aged()
        assert not exclusion_is_sound(db.table("header"))
        sql = (
            "SELECT i.year AS y, SUM(i.price) AS s FROM header h, item i "
            "WHERE h.hid = i.hid GROUP BY i.year"
        )
        plan = db.cache.plan_for(sql, FULL)
        assert plan.excluded == ()

class TestOverride:
    """``CacheConfig.star_join_reduction`` is the one override: off, the
    enumeration stays exhaustive (the paper's baseline)."""

    def test_config_flag_disables_reduction_entirely(self):
        db = merged_db(cache_config=CacheConfig(star_join_reduction=False))
        plan = db.cache.plan_for(PROFIT_SQL, FULL)
        assert plan.excluded == ()
        assert plan.prune.combos_total == 7


class TestStrategyGating:
    def test_no_pruning_stays_exhaustive(self):
        db = merged_db()
        plan = db.cache.plan_for(PROFIT_SQL, NO_PRUNE)
        assert plan.excluded == ()
        assert plan.prune.combos_total == 7

    def test_uncached_stays_exhaustive(self):
        db = merged_db()
        plan = db.cache.plan_for(PROFIT_SQL, ExecutionStrategy.UNCACHED)
        assert plan.excluded == ()


class TestPlanCacheKeying:
    def test_override_values_get_distinct_plans(self):
        """The switch is part of a plan's structure: flipping it replaces
        the cached plan (never a stale hit), and flipping it back again."""
        db = merged_db()
        reduced = db.query(PROFIT_SQL, strategy=FULL)
        assert reduced.report.plan.excluded_fingerprint() == ("d", "h", "i")
        before = db.plan_cache.stats()
        db.cache.config.star_join_reduction = False
        exhaustive = db.query(PROFIT_SQL, strategy=FULL)
        assert exhaustive.report.plan.excluded == ()
        db.cache.config.star_join_reduction = True
        again = db.query(PROFIT_SQL, strategy=FULL)
        after = db.plan_cache.stats()
        assert after["hits"] == before["hits"]
        assert after["invalidations"] == before["invalidations"] + 2
        assert again.report.plan.excluded_fingerprint() == ("d", "h", "i")
        assert reduced.rows == exhaustive.rows == again.rows


class TestSpanRendering:
    def test_delta_compensation_span_reports_exclusions(self, erp_db):
        trace = erp_db.explain_analyze(PROFIT_SQL)
        span = trace.span_named("delta_compensation")
        assert span.attrs["excluded"] == ["d"]
        assert span.attrs["subjoins_excluded"] == 4
        # One span per *enumerated* subjoin only.
        assert len(trace.subjoin_spans()) == trace.report.prune.combos_total

    def test_span_attrs_absent_without_exclusions(self, erp_db):
        erp_db.cache.config.star_join_reduction = False
        trace = erp_db.explain_analyze(PROFIT_SQL)
        span = trace.span_named("delta_compensation")
        assert "excluded" not in span.attrs
