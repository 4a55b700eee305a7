"""Unit tests for cache keys, entries, metrics, and eviction."""

import dataclasses
from types import SimpleNamespace

import pytest

from repro import Database, ExecutionStrategy
from repro.core import CacheKey, CacheMetrics, cache_key_for, select_victims
from repro.errors import CacheError
from repro.query.executor import main_only_combos

from ..conftest import HEADER_ITEM_SQL, load_erp, make_erp_db


def build_db():
    db = make_erp_db()
    load_erp(db, n_headers=3, merge=True)
    return db


class TestCacheKey:
    def test_same_query_same_key(self):
        db = build_db()
        bound = db.executor.bind(db.parse(HEADER_ITEM_SQL))
        combo = main_only_combos(bound, db.catalog)[0]
        k1 = cache_key_for(bound, db.catalog, combo)
        k2 = cache_key_for(bound, db.catalog, combo)
        assert k1 == k2
        assert hash(k1) == hash(k2)

    def test_key_includes_table_id(self):
        db = build_db()
        bound = db.executor.bind(db.parse("SELECT COUNT(*) AS n FROM item"))
        combo = main_only_combos(bound, db.catalog)[0]
        key_before = cache_key_for(bound, db.catalog, combo)
        db.drop_table("item")
        db.create_table(
            "item",
            [("iid", "INT"), ("hid", "INT"), ("cid", "INT"), ("price", "FLOAT")],
            primary_key="iid",
        )
        bound2 = db.executor.bind(db.parse("SELECT COUNT(*) AS n FROM item"))
        combo2 = main_only_combos(bound2, db.catalog)[0]
        key_after = cache_key_for(bound2, db.catalog, combo2)
        assert key_before != key_after  # recreated table gets a new id

    def test_key_distinguishes_combos(self):
        assert CacheKey("q", (("t", 1),), (("a", "hot_main"),)) != CacheKey(
            "q", (("t", 1),), (("a", "cold_main"),)
        )

    def test_str_rendering(self):
        key = CacheKey("Q", (("t", 1),), (("a", "main"),))
        assert "a:main" in str(key)


class TestEntryInvariants:
    def test_entry_visibility_must_cover_aliases(self):
        db = build_db()
        db.query(HEADER_ITEM_SQL, strategy=ExecutionStrategy.CACHED_FULL_PRUNING)
        (entry,) = db.cache.entries_for(db.parse(HEADER_ITEM_SQL))
        from repro.core.cache_entry import AggregateCacheEntry

        with pytest.raises(CacheError):
            AggregateCacheEntry(
                key=entry.key,
                query=entry.query,
                value=entry.value,
                tables=entry.tables,
                main_partitions=entry.main_partitions,
                visibility={},  # missing aliases
                snapshot=entry.snapshot,
            )


def stub_entries(*shapes):
    """``{name: entry}`` for eviction-policy tests: one stand-in per
    ``(uses, aggregated_records_main, size_bytes)``, accessed in order."""
    entries = {}
    for clock, (uses, records, size) in enumerate(shapes, start=1):
        metrics = CacheMetrics(size_bytes=size, aggregated_records_main=records)
        for _ in range(uses):
            metrics.record_use(clock)
        entries[f"e{clock}"] = SimpleNamespace(metrics=metrics)
    return entries


def victims_one_by_one(policy_rank, entries, max_entries, max_bytes):
    """The reference victim selection: re-check both budgets over what
    remains after every victim (the quadratic loop the rank replaced)."""

    def over(remaining):
        return (max_entries is not None and len(remaining) > max_entries) or (
            max_bytes is not None
            and sum(e.metrics.size_bytes for e in remaining.values()) > max_bytes
        )

    if not over(entries):
        return []
    remaining = dict(entries)
    victims = []
    for key, _ in sorted(entries.items(), key=lambda kv: policy_rank(kv[1])):
        if not over(remaining):
            break
        del remaining[key]
        victims.append(key)
    return victims


class TestMetrics:
    def test_profit_increases_with_reuse(self):
        cheap = CacheMetrics(size_bytes=100, aggregated_records_main=1000)
        cheap.record_use(1)
        reused = CacheMetrics(size_bytes=100, aggregated_records_main=1000)
        for clock in range(1, 11):
            reused.record_use(clock)
        assert reused.profit() > cheap.profit()

    def test_rank_reads_no_wall_clock(self):
        # The metrics hold no time to rank by: uses, rows, bytes and the
        # logical access clock are all integers.
        assert all(
            f.type == "int" for f in dataclasses.fields(CacheMetrics)
        )
        entries = stub_entries((1, 50, 10), (3, 40, 200), (2, 90, 30), (1, 10, 5))
        assert select_victims(entries, 2, None) == ["e4", "e1"]


class TestEvictionPolicies:
    def make_entries(self, count):
        db = make_erp_db()
        load_erp(db, n_headers=3, merge=True)
        for p in range(count):
            db.query(
                f"SELECT cid, COUNT(*) AS n FROM item WHERE price > {p} GROUP BY cid",
                strategy=ExecutionStrategy.CACHED_FULL_PRUNING,
            )
        return {e.key: e for e in db.cache.entries()}

    def test_no_eviction_within_budget(self):
        entries = self.make_entries(3)
        assert select_victims(entries, max_entries=5, max_bytes=None) == []
        assert select_victims(entries, max_entries=None, max_bytes=None) == []

    def test_bytes_budget(self):
        entries = self.make_entries(3)
        total = sum(e.metrics.size_bytes for e in entries.values())
        victims = select_victims(entries, max_entries=None, max_bytes=total - 1)
        assert len(victims) >= 1

    def test_profit_eviction_prefers_low_profit(self):
        entries = self.make_entries(2)
        entry_list = list(entries.values())
        entry_list[0].metrics.aggregated_records_main = 10_000  # saves many rows
        entry_list[1].metrics.aggregated_records_main = 1
        victims = select_victims(entries, max_entries=1, max_bytes=None)
        assert victims == [entry_list[1].key]

    def test_the_budget_over_picks_the_denominator(self):
        # "big" saves the most rows, "small" the most rows per byte.
        entries = stub_entries((2, 1000, 1000), (2, 100, 10))
        big, small = entries
        assert select_victims(entries, max_entries=1, max_bytes=None) == [small]
        assert select_victims(entries, max_entries=None, max_bytes=1000) == [big]
        # Both budgets set, only the count is over: per slot.
        assert select_victims(entries, max_entries=1, max_bytes=10**6) == [small]

    def test_ties_go_to_the_least_recently_used(self):
        entries = stub_entries((1, 10, 8), (1, 10, 8), (1, 10, 8))
        assert select_victims(entries, 1, None) == ["e1", "e2"]

    @pytest.mark.parametrize(
        "max_entries, max_bytes", [(3, 250), (5, 100), (2, 10_000), (4, 0)]
    )
    def test_count_and_byte_budgets_together(self, max_entries, max_bytes):
        entries = stub_entries(
            (1, 50, 10), (3, 40, 200), (2, 90, 30), (1, 10, 5), (4, 20, 80), (2, 5, 40)
        )
        nbytes = sum(e.metrics.size_bytes for e in entries.values())

        def rank(e):
            profit = e.metrics.profit()
            if nbytes > max_bytes:
                profit /= e.metrics.size_bytes
            return profit, e.metrics.last_access_clock

        victims = select_victims(entries, max_entries, max_bytes)
        assert victims == victims_one_by_one(rank, entries, max_entries, max_bytes)
        remaining = [e for k, e in entries.items() if k not in victims]
        assert len(remaining) <= max_entries
        assert sum(e.metrics.size_bytes for e in remaining) <= max_bytes
