"""The pure hit: a read answered by one entry with nothing to compensate
emits its rows from the entry itself, in a remembered order."""

import sys
import threading
import time
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest

from repro import Database, ExecutionStrategy
from repro.core.cache_entry import ResultOrder
from repro.query.aggregates import GroupedAggregates
from repro.query.result import QueryResult

from ..conftest import HEADER_ITEM_SQL, PROFIT_SQL, forget_memos, load_erp, make_erp_db

UNCACHED = ExecutionStrategy.UNCACHED

#: GROUP BY … HAVING … ORDER BY … LIMIT over the merged ERP tables.
SHAPED_SQL = (
    "SELECT i.cid AS cid, h.year AS year, SUM(i.price) AS profit, COUNT(*) AS n "
    "FROM header h, item i WHERE h.hid = i.hid "
    "GROUP BY i.cid, h.year HAVING n > 1 ORDER BY profit DESC, cid LIMIT 3"
)


@pytest.fixture
def merged_db() -> Database:
    db = make_erp_db()
    load_erp(db, n_headers=12, n_categories=3, merge=False)
    for k in range(5):  # skew, so that orders and HAVING cuts differ
        db.insert(
            "item",
            {"iid": 9000 + k, "hid": k, "cid": k % 3, "price": 0.25 * (k * k + 1)},
        )
    db.merge()
    return db


def entry_of(db, sql):
    (entry,) = db.cache.entries_for(db.parse(sql))
    return entry


def uncached_rows(db, sql, **kwargs):
    return db.query(sql, strategy=UNCACHED, **kwargs).rows


class TestThePathItself:
    def test_hundred_reads_copy_sort_and_filter_nothing(self, merged_db):
        """The guard that needs no clock: everything proportional to the
        group count that a normal hit re-derives is patched to raise."""
        db = merged_db
        first = db.query(SHAPED_SQL)
        second = db.query(SHAPED_SQL)
        assert not first.report.result_reused  # the miss remembers the order
        assert second.report.result_reused
        assert first.rows == second.rows == uncached_rows(db, SHAPED_SQL)
        assert 0 < len(first.rows) <= 3
        boom = AssertionError("a pure hit must not get here")
        with ExitStack() as stack:
            for target, name in (
                (GroupedAggregates, "merge"),
                (GroupedAggregates, "copy"),
                (GroupedAggregates, "finalize"),
                (QueryResult, "sorted_by"),
            ):
                stack.enter_context(mock.patch.object(target, name, side_effect=boom))
            stack.enter_context(
                mock.patch("repro.query.result._apply_having", side_effect=boom)
            )
            stack.enter_context(
                mock.patch("repro.core.manager.advance_memo", side_effect=boom)
            )
            for _ in range(100):
                result = db.query(SHAPED_SQL)
                assert result.rows == first.rows
                assert result.report.result_reused
        assert db.cache.counters_snapshot()["result_reuses"] == 101

    def test_reused_read_reports_a_normal_incremental_hit(self, merged_db):
        db = merged_db
        db.query(PROFIT_SQL)
        before = db.cache.counters_snapshot()
        uses = entry_of(db, PROFIT_SQL).metrics.reference_count
        report = db.query(PROFIT_SQL).report
        after = db.cache.counters_snapshot()
        assert report.result_reused
        assert report.cache_hits == 1
        assert report.entries_created == 0
        assert report.delta_memo_mode == "incremental"
        assert not report.fallback_uncached and not report.degraded_reason
        assert report.executor_stats.combos_evaluated == 0
        assert report.plan is not None
        assert after["hits"] == before["hits"] + 1
        assert after["memo_hits"] == before["memo_hits"] + 1
        assert after["misses"] == before["misses"]
        assert entry_of(db, PROFIT_SQL).metrics.reference_count == uses + 1

    def test_prune_report_matches_the_long_way(self, merged_db):
        db = merged_db
        db.cache.config.star_join_reduction = False  # keep subjoins enumerated
        db.query(PROFIT_SQL)
        reused = db.query(PROFIT_SQL).report
        assert reused.result_reused
        entry_of(db, PROFIT_SQL).result_order = None
        plain = db.query(PROFIT_SQL).report
        assert not plain.result_reused
        assert reused.prune == plain.prune
        assert reused.prune.combos_total == 7 and reused.prune.pruned_total == 7
        assert reused.delta_memo_mode == plain.delta_memo_mode == "incremental"
        assert reused.delta_memo_rows_saved == plain.delta_memo_rows_saved

    def test_memo_is_not_advanced(self, merged_db):
        db = merged_db
        db.query(PROFIT_SQL)
        memo = entry_of(db, PROFIT_SQL).delta_memo
        for _ in range(3):
            assert db.query(PROFIT_SQL).report.result_reused
        assert entry_of(db, PROFIT_SQL).delta_memo is memo

    def test_without_the_memo_layer(self):
        """An entry whose memo was dropped steps from its birth, installs
        the step, and the read after is a pure hit again — under
        CACHED_NO_PRUNING too, whose subjoins over the empty deltas never
        reach the executor."""
        db = make_erp_db()
        load_erp(db, n_headers=6, merge=True)
        db.query(PROFIT_SQL)
        forget_memos(db)
        report = db.query(PROFIT_SQL).report
        assert not report.result_reused
        assert (report.delta_memo_mode, report.delta_memo_reason) == ("full", "")
        assert db.query(PROFIT_SQL).report.result_reused
        none = ExecutionStrategy.CACHED_NO_PRUNING
        db.query(PROFIT_SQL, strategy=none)
        report = db.query(PROFIT_SQL, strategy=none).report
        assert report.result_reused
        assert report.executor_stats.combos_evaluated == 0

    @pytest.mark.parametrize(
        "strategy", [s for s in ExecutionStrategy if s.uses_cache]
    )
    def test_every_cached_strategy_reuses(self, merged_db, strategy):
        db = merged_db
        rows = uncached_rows(db, SHAPED_SQL)
        for _ in range(3):
            result = db.query(SHAPED_SQL, strategy=strategy)
            assert result.rows == rows
        assert result.report.result_reused


class TestValidity:
    def test_insert_into_a_referenced_table_flips_it_off(self, merged_db):
        db = merged_db
        db.query(PROFIT_SQL)
        assert db.query(PROFIT_SQL).report.result_reused
        db.insert("item", {"iid": 9500, "hid": 0, "cid": 0, "price": 3.25})
        result = db.query(PROFIT_SQL)
        assert not result.report.result_reused
        assert result.rows == uncached_rows(db, PROFIT_SQL)
        # The delta now contributes, so no later read qualifies either.
        assert not db.query(PROFIT_SQL).report.result_reused

    def test_insert_into_an_unreferenced_table_leaves_it_on(self, merged_db):
        db = merged_db
        db.query(HEADER_ITEM_SQL)  # header ⋈ item only
        assert db.query(HEADER_ITEM_SQL).report.result_reused
        db.insert("category", {"cid": 77, "name": "cat77", "lang": "ENG"})
        result = db.query(HEADER_ITEM_SQL)
        assert result.report.result_reused
        assert result.rows == uncached_rows(db, HEADER_ITEM_SQL)

    def test_update_and_delete_of_main_rows(self, merged_db):
        db = merged_db
        db.query(PROFIT_SQL)
        db.update("item", 0, {"price": 99.5})
        result = db.query(PROFIT_SQL)
        assert not result.report.result_reused
        assert result.rows == uncached_rows(db, PROFIT_SQL)
        db.merge()
        db.query(PROFIT_SQL)
        assert db.query(PROFIT_SQL).report.result_reused
        db.delete("item", 1)
        result = db.query(PROFIT_SQL)
        assert not result.report.result_reused
        assert result.rows == uncached_rows(db, PROFIT_SQL)

    def test_statements_sharing_an_entry_keep_their_own_shape(self, merged_db):
        """ORDER BY / LIMIT / HAVING / output names are not part of the
        cache key: one entry, one remembered order, checked per reader."""
        db = merged_db
        base = (
            "SELECT i.cid AS cid, SUM(i.price) AS profit, COUNT(*) AS n "
            "FROM header h, item i WHERE h.hid = i.hid GROUP BY i.cid"
        )
        variants = [
            base,
            base + " ORDER BY profit DESC",
            base + " ORDER BY profit DESC LIMIT 1",
            base + " HAVING profit > 47",
            # Same ORDER BY text, but "profit" now names the count.
            base.replace("AS profit", "AS total").replace("AS n", "AS profit")
            + " ORDER BY profit",
        ]
        truth = [uncached_rows(db, sql) for sql in variants]
        assert len({tuple(rows) for rows in truth}) == len(variants)
        for _ in range(2):
            for sql, rows in zip(variants, truth):
                assert db.query(sql).rows == rows  # alternating: never reused
                assert db.query(sql).rows == rows  # repeated: reused
                assert db.last_report.result_reused
        assert db.cache.entry_count() == 1

    def test_older_transaction_and_time_travel(self, merged_db):
        db = merged_db
        old = db.begin()  # a reader older than everything below
        db.query(PROFIT_SQL)
        anchor = entry_of(db, PROFIT_SQL).result_order.anchor
        assert db.query(PROFIT_SQL).report.result_reused
        for kwargs in ({"txn": old}, {"as_of": anchor - 1}):
            result = db.query(PROFIT_SQL, **kwargs)
            assert not result.report.result_reused
            assert result.rows == uncached_rows(db, PROFIT_SQL, **kwargs)
        later = db.query(PROFIT_SQL, as_of=anchor + 1)
        assert later.rows == uncached_rows(db, PROFIT_SQL, as_of=anchor + 1)
        old.commit()

    def test_stamp_of_an_open_transaction_ends_the_window(self):
        """A delete stamped by a still-open transaction *before* the order
        is remembered: readers on either side of that stamp see different
        rows although no table version moves between their reads."""
        db = make_erp_db()
        load_erp(db, n_headers=6, merge=True)
        db.query(PROFIT_SQL)  # the entry exists, anchored before the writer
        early = db.begin()
        writer = db.begin()
        db.delete("item", 0, txn=writer)  # stamped, writer stays open
        db.merge()  # drops the row, rebases the entry: clean again
        for _ in range(2):
            for kwargs in ({"txn": early}, {}):
                result = db.query(PROFIT_SQL, **kwargs)
                assert result.rows == uncached_rows(db, PROFIT_SQL, **kwargs)
        order = entry_of(db, PROFIT_SQL).result_order
        assert order is not None and order.anchor < order.horizon
        writer.commit()
        early.commit()

    def test_horizon_covers_every_partition_of_every_referenced_table(self):
        db = make_erp_db()
        load_erp(db, n_headers=6, merge=True)
        db.query(PROFIT_SQL)
        before = db.transactions.global_snapshot()
        # A header nobody joins: whatever the plan does with its delta, the
        # compensation stays empty — but the row's stamp lies in the future
        # of a reader pinned just before it.
        db.insert("header", {"hid": 500, "year": 2013})
        stamp = db.transactions.global_snapshot()
        pinned = db.query(PROFIT_SQL, as_of=before)
        assert not pinned.report.result_reused
        order = entry_of(db, PROFIT_SQL).result_order
        assert (order.anchor, order.horizon) == (before, stamp)
        again = db.query(PROFIT_SQL, as_of=before)
        assert again.report.result_reused and again.rows == pinned.rows
        fresh = db.query(PROFIT_SQL)  # at or past the horizon: the long way
        assert not fresh.report.result_reused
        assert fresh.rows == uncached_rows(db, PROFIT_SQL)
        order = entry_of(db, PROFIT_SQL).result_order
        assert order.anchor >= stamp and order.horizon == float("inf")

    def test_config_toggle_back_and_forth(self, merged_db):
        db = merged_db
        db.query(PROFIT_SQL)
        assert db.query(PROFIT_SQL).report.result_reused
        for flag in ("star_join_reduction", "predicate_pushdown"):
            setattr(db.cache.config, flag, False)
            off = db.query(PROFIT_SQL)
            assert not off.report.result_reused
            setattr(db.cache.config, flag, True)
            on = db.query(PROFIT_SQL)
            # Same signature as the remembered one, but the memo object
            # was replaced in between.
            assert not on.report.result_reused
            assert off.rows == on.rows == uncached_rows(db, PROFIT_SQL)
            assert db.query(PROFIT_SQL).report.result_reused


class TestLifecycle:
    def test_bytes_are_tracked(self, merged_db):
        db = merged_db
        before = db.cache.tracked_bytes()
        rows = db.query(SHAPED_SQL).rows
        order = entry_of(db, SHAPED_SQL).result_order
        assert isinstance(order, ResultOrder)
        assert order.slots.dtype == np.intp and len(order.slots) == len(rows)
        assert order.nbytes() == 8 * len(rows)
        entry = entry_of(db, SHAPED_SQL)
        # The slots address the value's own groups, in output order.
        assert entry.value.finalize_slots(order.slots) == rows
        with_order = db.cache.tracked_bytes()
        entry.result_order = None
        assert with_order - db.cache.tracked_bytes() == order.nbytes()
        assert with_order > before
        assert db.cache.counters_snapshot()["tracked_bytes"] == db.cache.tracked_bytes()

    def test_shed_drops_orders_with_memos_before_any_entry(self, merged_db):
        db = merged_db
        for sql in (PROFIT_SQL, HEADER_ITEM_SQL):
            db.query(sql)
        entries = db.cache.entries()
        assert all(e.result_order is not None for e in entries)
        held = sum(
            e.result_order.nbytes() + e.delta_memo.folded.approximate_nbytes()
            for e in entries
        )
        # A budget that the memos and orders alone can meet: step 2 of the
        # shedding order frees exactly them and no entry goes.
        shed = db.cache.shed_to_budget(db.cache.tracked_bytes() - held)
        assert shed["memo"] == 2 and shed["entry"] == 0
        assert db.cache.entry_count() == 2
        assert all(
            e.result_order is None and e.delta_memo is None
            for e in db.cache.entries()
        )
        # Rebuilt on the next read, reused on the one after.
        assert not db.query(PROFIT_SQL).report.result_reused
        assert db.query(PROFIT_SQL).report.result_reused

    def test_shed_to_zero_and_eviction_take_the_order_along(self, merged_db):
        db = merged_db
        db.query(PROFIT_SQL)
        db.cache.shed_to_budget(0)
        assert db.cache.entry_count() == 0
        result = db.query(PROFIT_SQL)
        assert not result.report.result_reused and result.report.entries_created == 1
        assert db.query(PROFIT_SQL).report.result_reused

    def test_rebase_resets_it(self, merged_db):
        db = merged_db
        db.query(PROFIT_SQL)
        entry = entry_of(db, PROFIT_SQL)
        assert entry.result_order is not None
        load_erp(db, n_headers=2, start_hid=300, n_categories=3, merge=True)
        assert entry_of(db, PROFIT_SQL) is entry  # maintained, not rebuilt
        assert entry.result_order is None
        result = db.query(PROFIT_SQL)
        assert not result.report.result_reused
        assert result.rows == uncached_rows(db, PROFIT_SQL)
        assert db.query(PROFIT_SQL).report.result_reused

    def test_refresh_swapping_the_memo_makes_it_unusable(self, merged_db):
        db = merged_db
        no_pruning = ExecutionStrategy.CACHED_NO_PRUNING
        db.query(PROFIT_SQL, strategy=no_pruning)
        entry = entry_of(db, PROFIT_SQL)
        assert entry.result_order is not None
        # The refresh plans under the default strategy, whose star-join
        # exclusion differs from the memo's: it steps from the entry's
        # birth and installs a new memo, while no table changed.
        assert db.refresh_cache() == {"advance": 0, "rebuild": 1}
        assert entry.result_order.memo is not entry.delta_memo
        result = db.query(PROFIT_SQL, strategy=no_pruning)
        assert not result.report.result_reused
        assert result.rows == uncached_rows(db, PROFIT_SQL)

    def test_compensation_fault_still_degrades_a_reused_read(self, merged_db):
        db = merged_db
        db.query(PROFIT_SQL)
        db.faults.arm("cache.compensation", mode="raise", times=1)
        result = db.query(PROFIT_SQL)
        assert result.report.degraded_reason == "fallback"
        assert not result.report.result_reused
        assert result.rows == uncached_rows(db, PROFIT_SQL)


class TestObservability:
    def test_counter_metric_and_monitor(self, merged_db):
        db = merged_db
        for _ in range(4):
            db.query(PROFIT_SQL)
        assert db.cache.counters_snapshot()["result_reuses"] == 3
        assert db.metrics_snapshot()["repro_cache_result_reuse_total"] == 3
        stats = db.statistics()
        assert stats.cache.result_reuses == 3
        assert "result-reuses=3" in stats.render()

    def test_explain_analyze_parity_on_a_reused_read(self, merged_db):
        """Same span shape as any other hit: one cache_lookup, one
        delta_compensation holding one child per planned subjoin."""
        db = merged_db
        db.cache.config.star_join_reduction = False  # keep subjoins enumerated
        db.explain_analyze(PROFIT_SQL)
        trace = db.explain_analyze(PROFIT_SQL)
        assert trace.report.result_reused
        assert trace.result.rows == uncached_rows(db, PROFIT_SQL)
        names = [span.name for span in trace.root.children]
        assert names == ["bind", "plan", "cache_lookup", "delta_compensation"]
        lookup = trace.span_named("cache_lookup")
        assert lookup.attrs["outcome"] == "hit" and lookup.attrs["reused"] is True
        assert lookup.duration > 0
        spans = trace.subjoin_spans()
        report = trace.report
        assert len(spans) == report.prune.combos_total == 7
        assert all(span.attrs["status"] == "pruned" for span in spans)
        comp = trace.span_named("delta_compensation")
        assert comp.attrs["compensation"] == "incremental"
        assert comp.attrs["subjoins_total"] == 7
        # The same statement the long way round: identical subjoin spans.
        entry_of(db, PROFIT_SQL).result_order = None
        plain = db.explain_analyze(PROFIT_SQL)
        assert not plain.report.result_reused
        assert plain.identity() == trace.identity()
        assert "reused" not in plain.span_named("cache_lookup").attrs

    def test_memoized_subjoins_keep_their_spans(self, merged_db):
        """CACHED_NO_PRUNING evaluates the (empty) subjoins once, memoizes
        the empty result, and a reused read still shows one span each."""
        db = merged_db
        strategy = ExecutionStrategy.CACHED_NO_PRUNING
        for _ in range(2):
            db.explain_analyze(PROFIT_SQL, strategy=strategy)
        trace = db.explain_analyze(PROFIT_SQL, strategy=strategy)
        assert trace.report.result_reused
        statuses = [span.attrs["status"] for span in trace.subjoin_spans()]
        assert statuses == ["memoized"] * 7


class TestConcurrentReaders:
    def test_readers_share_one_order_slot_while_a_writer_merges(self):
        """More readers than cores, two statements fighting over one
        entry's order slot, a writer that inserts and merges: every answer
        is in its own statement's order and never loses an insert."""
        db = make_erp_db()
        load_erp(db, n_headers=6, n_categories=3, merge=True)
        base = (
            "SELECT i.cid AS cid, SUM(i.price) AS profit, COUNT(*) AS n "
            "FROM header h, item i WHERE h.hid = i.hid GROUP BY i.cid"
        )
        shapes = {
            base + " ORDER BY cid": lambda rows: [r[0] for r in rows],
            base + " ORDER BY cid DESC": lambda rows: [-r[0] for r in rows],
        }
        stop = threading.Event()
        failures = []

        def read(sql, key):
            seen = 0
            try:
                while not stop.is_set():
                    rows = db.query(sql).rows
                    assert key(rows) == sorted(key(rows)), rows
                    total = sum(r[2] for r in rows)
                    assert total >= seen, (total, seen)  # insert-only
                    seen = total
            except BaseException as exc:  # surfaced by the main thread
                failures.append(exc)
                stop.set()

        def write():
            try:
                hid = 1000
                while not stop.is_set():
                    load_erp(db, n_headers=1, n_categories=3, start_hid=hid, merge=True)
                    hid += 1
                    time.sleep(0.01)  # let pure hits happen between merges
            except BaseException as exc:
                failures.append(exc)
                stop.set()

        threads = [
            threading.Thread(target=read, args=(sql, key))
            for sql, key in shapes.items()
            for _ in range(3)
        ] + [threading.Thread(target=write)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            time.sleep(1.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not failures, failures
        assert not any(thread.is_alive() for thread in threads)
        assert db.cache.counters_snapshot()["result_reuses"] > 0
        for sql in shapes:
            assert db.query(sql).rows == uncached_rows(db, sql)
