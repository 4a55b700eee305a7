"""Compensation memo lifecycle: the visibility step, steps from birth, parity.

The memo (repro.core.delta_memo) keeps an entry's whole compensation at
its anchor and steps it to a later reader over just the rows whose
visibility differs between the two snapshots.  These tests pin down that
DML on each referenced table and stamps below the watermark advance it,
that after a merge, a stale memo or for an older reader the read steps
from the entry's birth instead (installing nothing for the older reader),
and that runs keeping the memos and runs dropping them before every read
agree bit for bit.
"""

import random

import pytest

from repro import Database, ExecutionStrategy
from repro.core import delta_memo
from repro.core.delta_memo import subjoin_step_specs, visibility_step

from ..conftest import HEADER_ITEM_SQL, PROFIT_SQL, forget_memos, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED


def _uncached_rows(db, sql, **kwargs):
    return db.query(sql, strategy=UNCACHED, **kwargs).rows


class TestMemoReuse:
    def test_first_hit_builds_then_reuses(self, erp_db):
        erp_db.query(PROFIT_SQL, strategy=FULL)
        assert erp_db.last_report.delta_memo_mode == "full"
        result = erp_db.query(PROFIT_SQL, strategy=FULL)
        report = erp_db.last_report
        assert report.delta_memo_mode == "incremental"
        assert report.delta_memo_rows_saved > 0
        # Nothing changed, so no subjoin needs any rescan at all.
        assert report.executor_stats.combos_evaluated == 0
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)

    def test_appended_delta_rows_fold_in_incrementally(self, erp_db):
        erp_db.query(PROFIT_SQL, strategy=FULL)
        erp_db.query(PROFIT_SQL, strategy=FULL)
        load_erp(erp_db, n_headers=3, start_hid=200, merge=False)
        result = erp_db.query(PROFIT_SQL, strategy=FULL)
        report = erp_db.last_report
        assert report.delta_memo_mode == "incremental"
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)
        # The appended rows were scanned; the covered prefix was not.
        assert report.executor_stats.combos_evaluated > 0
        assert report.delta_memo_rows_saved > 0

    def test_memo_tracks_exclusion_decision_across_strategies(self, erp_db):
        """Strategy changes that keep the star-join exclusion decision
        reuse the memo; ones that change it rebuild.  FULL excludes the
        empty-delta category table while NO_PRUNING enumerates
        exhaustively, so a FULL-built memo (folded over the reduced combo
        set, category delta uncovered) must NOT be replayed for the
        NO_PRUNING plan — growth in category's delta would be invisible
        to its watermarks."""
        erp_db.query(PROFIT_SQL, strategy=FULL)
        result = erp_db.query(
            PROFIT_SQL, strategy=ExecutionStrategy.CACHED_NO_PRUNING
        )
        assert erp_db.last_report.delta_memo_mode == "full"
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)
        # Same strategy again: same exclusion fingerprint -> reuse.
        erp_db.query(PROFIT_SQL, strategy=ExecutionStrategy.CACHED_NO_PRUNING)
        assert erp_db.last_report.delta_memo_mode == "incremental"

    def test_memo_survives_strategy_changes_same_combo_set(self, erp_db):
        """With reduction pinned off on both sides, a memo folded under
        one strategy is valid under another: pruned subjoins are *truly*
        empty, so they contribute zero to the fold."""
        erp_db.cache.config.star_join_reduction = False
        erp_db.query(PROFIT_SQL, strategy=FULL)
        result = erp_db.query(
            PROFIT_SQL, strategy=ExecutionStrategy.CACHED_NO_PRUNING
        )
        assert erp_db.last_report.delta_memo_mode == "incremental"
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)

    def test_report_counters_reach_statistics(self, erp_db):
        erp_db.query(PROFIT_SQL, strategy=FULL)
        erp_db.query(PROFIT_SQL, strategy=FULL)
        stats = erp_db.statistics().cache
        assert stats.memo_misses == 1
        assert stats.memo_hits == 1
        assert "delta-memo" in erp_db.statistics().render()


def _grow_item(db):
    db.insert("item", {"iid": 9800, "hid": 100, "cid": 0, "price": 1.25})


def _grow_header_and_item(db):
    load_erp(db, n_headers=1, start_hid=400, merge=False)


def _grow_all_three(db):
    db.insert("category", {"cid": 7, "name": "cat7", "lang": "ENG"})
    db.insert_business_object(
        "header",
        {"hid": 500, "year": 2013},
        "item",
        [{"iid": 50000, "hid": 500, "cid": 7, "price": 2.5}],
    )


class TestTelescopedIncrement:
    """An incremental read scans one term per grown alias of a subjoin —
    k specs, not the 2^k - 1 subsets of inclusion–exclusion."""

    @pytest.mark.parametrize(
        "k, grow", [(1, _grow_item), (2, _grow_header_and_item), (3, _grow_all_three)]
    )
    def test_one_spec_per_grown_alias_and_equal_to_uncached(self, erp_db, k, grow):
        erp_db.cache.config.star_join_reduction = False
        kwargs = {"strategy": FULL}
        erp_db.query(PROFIT_SQL, **kwargs)
        erp_db.query(PROFIT_SQL, **kwargs)
        (entry,) = erp_db.cache.entries()
        memo = entry.delta_memo
        grow(erp_db)
        plan = erp_db.cache.plan_for(PROFIT_SQL, FULL)
        step = visibility_step(memo, entry, erp_db.transactions.global_snapshot())
        specs, spec_counts = subjoin_step_specs(plan, step)
        terms = {}
        for index, sub in enumerate(plan.subjoins):
            if sub.action != "evaluate":
                assert index not in spec_counts
                continue
            grown = [
                alias
                for alias, partition in sub.partitions.items()
                if partition.row_count > memo.watermarks[id(partition)].rows
            ]
            terms[index] = len(step.specs(sub.partitions, sub.pushdown))
            assert terms[index] == len(grown)
            # Tid-range pruning only ever drops terms.
            assert spec_counts[index] <= terms[index]
        assert max(terms.values()) == k
        assert len(specs) == sum(spec_counts.values())
        result = erp_db.query(PROFIT_SQL, **kwargs)
        assert result.report.delta_memo_mode == "incremental"
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)

    def test_terms_pairing_new_objects_with_old_rows_are_pruned(self, erp_db):
        """A new business object's header and items carry one fresh tid, so
        the term joining the new headers to the items below the watermark
        is empty by Equation 5 over those row sets, and is never run."""
        erp_db.cache.config.star_join_reduction = False
        kwargs = {"strategy": FULL}
        erp_db.query(PROFIT_SQL, **kwargs)
        (entry,) = erp_db.cache.entries()
        memo = entry.delta_memo
        _grow_header_and_item(erp_db)
        plan = erp_db.cache.plan_for(PROFIT_SQL, FULL)
        step = visibility_step(memo, entry, erp_db.transactions.global_snapshot())
        _specs, spec_counts = subjoin_step_specs(plan, step)
        both = next(
            index
            for index, sub in enumerate(plan.subjoins)
            if sub.action == "evaluate"
            and sub.partitions["h"].kind == sub.partitions["i"].kind == "delta"
            and sub.partitions["d"].kind == "main"
        )
        assert len(step.specs(plan.subjoins[both].partitions)) == 2
        assert spec_counts[both] == 1
        result = erp_db.query(PROFIT_SQL, **kwargs)
        assert result.report.delta_memo_mode == "incremental"
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)


    def test_terms_pinning_no_rows_never_reach_the_executor(self):
        """A memo taken with both deltas empty, then both grow: the
        (h:delta, i:delta) subjoin's term pinning h's new rows would read
        i's earlier state — no rows at all — so only its other term runs.
        Three executor calls; the two joining the new header to old items
        and the new items to old headers are empty."""
        db = make_erp_db()
        load_erp(db, n_headers=4, merge=True)
        no_pruning = ExecutionStrategy.CACHED_NO_PRUNING
        db.query(HEADER_ITEM_SQL, strategy=no_pruning)
        load_erp(db, n_headers=1, start_hid=300, merge=False)
        result = db.query(HEADER_ITEM_SQL, strategy=no_pruning)
        stats = result.report.executor_stats
        assert result.report.delta_memo_mode == "incremental"
        assert (stats.combos_evaluated, stats.combos_empty) == (3, 2)
        assert result.rows == _uncached_rows(db, HEADER_ITEM_SQL)


class TestInvalidationMatrix:
    @pytest.mark.parametrize("table,pk", [("header", 0), ("item", 1), ("category", 0)])
    def test_update_on_each_referenced_table_advances(self, erp_db, table, pk):
        # Star-join reduction off: a category update would otherwise end the
        # empty-delta exclusion of ``category``, which does rebuild the memo
        # (test_star_join_memo.py).
        erp_db.cache.config.star_join_reduction = False
        kwargs = {"strategy": FULL}
        erp_db.query(PROFIT_SQL, **kwargs)
        erp_db.query(PROFIT_SQL, **kwargs)
        changes = {
            "header": {"year": 2099},
            "item": {"price": 50.0},
            "category": {"name": "renamed"},
        }[table]
        erp_db.update(table, pk, changes)
        result = erp_db.query(PROFIT_SQL, **kwargs)
        # The update invalidated a stored row and appended the new version:
        # the memo steps over both.
        assert erp_db.last_report.delta_memo_mode == "incremental"
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)

    @pytest.mark.parametrize("table,pk", [("header", 2), ("item", 3), ("category", 1)])
    def test_delete_on_each_referenced_table_advances(self, erp_db, table, pk):
        erp_db.cache.config.star_join_reduction = False
        kwargs = {"strategy": FULL}
        erp_db.query(PROFIT_SQL, **kwargs)
        erp_db.query(PROFIT_SQL, **kwargs)
        erp_db.delete(table, pk)
        result = erp_db.query(PROFIT_SQL, **kwargs)
        assert erp_db.last_report.delta_memo_mode == "incremental"
        assert erp_db.last_report.invalidated_rows_compensated == 1
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)

    def test_delta_merge_resets_the_memo(self, erp_db):
        erp_db.query(PROFIT_SQL, strategy=FULL)
        erp_db.query(PROFIT_SQL, strategy=FULL)
        (entry,) = erp_db.cache.entries()
        assert entry.delta_memo is not None
        erp_db.merge()
        assert entry.delta_memo is None  # rebase re-anchored the entry
        result = erp_db.query(PROFIT_SQL, strategy=FULL)
        assert erp_db.last_report.delta_memo_mode == "full"
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)
        # And the freshly installed memo serves the next hit again.
        erp_db.query(PROFIT_SQL, strategy=FULL)
        assert erp_db.last_report.delta_memo_mode == "incremental"

    def test_future_cts_below_watermark_advances(self, erp_db):
        """Rows appended by writers *newer* than a pinned reader end up
        below the watermark when that reader advances the memo.  They
        become visible later without any version moving again: the step of
        the newer reader finds their ``cts`` inside ``(anchor, S]``."""
        erp_db.query(PROFIT_SQL, strategy=FULL)  # entry + memo installed
        txn = erp_db.begin()  # snapshot S
        load_erp(erp_db, n_headers=2, start_hid=300, merge=False)  # cts > S
        before = _uncached_rows(erp_db, PROFIT_SQL, txn=txn)
        result = erp_db.query(PROFIT_SQL, strategy=FULL, txn=txn)
        # The pinned reader steps over the suffix (finding nothing visible)
        # and advances the watermarks *over* the still-invisible rows.
        assert erp_db.last_report.delta_memo_mode == "incremental"
        assert result.rows == before
        (entry,) = erp_db.cache.entries()
        assert entry.delta_memo.anchor == txn.snapshot
        assert any(mark.ahead for mark in entry.delta_memo.watermarks.values())
        txn.commit()
        result = erp_db.query(PROFIT_SQL, strategy=FULL)
        assert erp_db.last_report.delta_memo_mode == "incremental"
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)
        assert result.rows != before

    def test_future_dts_below_watermark_advances(self, erp_db):
        """The deleter-side twin: a covered row whose delete committed after
        the pinned reader's snapshot.  The pinned reader's step leaves the
        row counted (its ``dts`` lies in that reader's future); the newer
        reader's step subtracts it."""
        erp_db.query(PROFIT_SQL, strategy=FULL)  # entry + memo installed
        txn = erp_db.begin()  # snapshot S sees hid=100's first item
        erp_db.delete("item", 100 * 100)  # dts > S, a delta row
        result = erp_db.query(PROFIT_SQL, strategy=FULL, txn=txn)
        assert erp_db.last_report.delta_memo_mode == "incremental"
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL, txn=txn)
        txn.commit()
        result = erp_db.query(PROFIT_SQL, strategy=FULL)
        assert erp_db.last_report.delta_memo_mode == "incremental"
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)
        assert result.rows != _uncached_rows(erp_db, PROFIT_SQL, as_of=txn.snapshot)

    def test_update_then_delete_of_a_revived_row_across_two_reads(self, erp_db):
        """A silent update revives the stored category row (no statement
        column changed); deleting its successor ends the revival, and the
        step subtracts the stored row only then."""
        erp_db.cache.config.star_join_reduction = False
        kwargs = {"strategy": FULL}
        erp_db.query(PROFIT_SQL, **kwargs)
        erp_db.update("category", 0, {"lang": "GER"})
        result = erp_db.query(PROFIT_SQL, **kwargs)
        report = result.report
        assert report.delta_memo_mode == "incremental"
        assert (report.silent_rows_cancelled, report.invalidated_rows_compensated) == (1, 0)
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)
        erp_db.delete("category", 0)
        result = erp_db.query(PROFIT_SQL, **kwargs)
        report = result.report
        assert report.delta_memo_mode == "incremental"
        assert (report.silent_rows_cancelled, report.invalidated_rows_compensated) == (0, 1)
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)

    def test_stamp_below_the_anchor_after_the_memo_rebuilds(self, erp_db):
        """An open transaction older than the memo's reader deletes a row
        the memo counted: the anchor's own state changed, which no step from
        it can express, so the read steps from the entry's birth."""
        erp_db.query(PROFIT_SQL, strategy=FULL)
        writer = erp_db.begin()  # older than the next read's anchor
        _grow_item(erp_db)
        erp_db.query(PROFIT_SQL, strategy=FULL)  # steps the memo past it
        (entry,) = erp_db.cache.entries()
        assert entry.delta_memo.anchor > writer.snapshot
        erp_db.delete("item", 2, txn=writer)  # dts below the anchor
        writer.commit()
        result = erp_db.query(PROFIT_SQL, strategy=FULL)
        assert (result.report.delta_memo_mode, result.report.delta_memo_reason) == (
            "full",
            "stale",
        )
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)


@pytest.fixture
def log_reads(monkeypatch):
    """Every answer the stamp log gave a step: (partition kind, the mark's
    epoch, its ``ahead``, the rows named — None sends it to the prefix pass)."""
    seen = []
    real = delta_memo._logged_since

    def spy(partition, mark, anchor):
        rows = real(partition, mark, anchor)
        seen.append((partition.kind, mark.epoch, mark.ahead, rows))
        return rows

    monkeypatch.setattr(delta_memo, "_logged_since", spy)
    return seen


class TestStampLog:
    """A stamped partition's step reads the rows its stamp log names past
    the mark's epoch; the prefix pass is left for an ``ahead`` mark, an
    unknown epoch and a logged stamp at or below the anchor."""

    def test_a_main_delete_after_the_memo_is_read_from_the_log(self, erp_db, log_reads):
        erp_db.query(PROFIT_SQL, strategy=FULL)
        erp_db.query(PROFIT_SQL, strategy=FULL)  # the memo is installed
        erp_db.delete("item", 3)
        erp_db.update("item", 4, {"price": 0.75})
        result = erp_db.query(PROFIT_SQL, strategy=FULL)
        assert result.report.delta_memo_mode == "incremental"
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)
        main = erp_db.table("item").partition("main")
        ((kind, epoch, ahead, rows),) = log_reads
        assert (kind, epoch, ahead) == ("main", 0, False)
        assert rows.tolist() == main.stamp_log.view().tolist() == sorted(rows.tolist())
        assert len(rows) == 2 and result.report.invalidated_rows_compensated == 2

    def test_a_stamp_below_the_anchor_takes_the_prefix_pass_and_steps_from_birth(
        self, erp_db, log_reads
    ):
        erp_db.query(PROFIT_SQL, strategy=FULL)
        writer = erp_db.begin()  # older than the next read's anchor
        _grow_item(erp_db)
        erp_db.query(PROFIT_SQL, strategy=FULL)  # steps the memo past it
        log_reads.clear()
        erp_db.delete("item", 2, txn=writer)  # a main row, dts below the anchor
        writer.commit()
        result = erp_db.query(PROFIT_SQL, strategy=FULL)
        assert (result.report.delta_memo_mode, result.report.delta_memo_reason) == (
            "full",
            "stale",
        )
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)
        # The memo's step found the stamp at or below its anchor in the log;
        # the step from birth, anchored below the writer, reads the log.
        (refused, from_birth) = log_reads
        assert refused[:3] == ("main", 0, False) and refused[3] is None
        assert from_birth[3] is not None and len(from_birth[3]) == 1

    def test_an_ahead_memo_takes_the_prefix_pass(self, erp_db, log_reads):
        erp_db.query(PROFIT_SQL, strategy=FULL)
        txn = erp_db.begin()
        erp_db.delete("item", 100 * 100)  # a delta row, dts above txn's snapshot
        result = erp_db.query(PROFIT_SQL, strategy=FULL, txn=txn)
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL, txn=txn)
        assert log_reads[-1][2:] != (False, None)  # read from the log
        txn.commit()
        log_reads.clear()
        result = erp_db.query(PROFIT_SQL, strategy=FULL)
        assert result.report.delta_memo_mode == "incremental"
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)
        assert [(kind, ahead, rows) for kind, _epoch, ahead, rows in log_reads] == [
            ("delta", True, None)
        ]

    def test_an_unknown_epoch_after_merge_maintenance_takes_the_prefix_pass(
        self, erp_db, log_reads
    ):
        erp_db.cache.config.star_join_reduction = False
        erp_db.query(PROFIT_SQL, strategy=FULL)
        erp_db.update("category", 0, {"lang": "GER"})  # silent: revives cat0
        erp_db.merge("item")
        (entry,) = erp_db.cache.entries()
        assert entry.invalidation_epochs["d"] == -1
        log_reads.clear()
        result = erp_db.query(PROFIT_SQL, strategy=FULL)
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)
        assert ("main", -1, False, None) in log_reads
        erp_db.delete("category", 1)
        result = erp_db.query(PROFIT_SQL, strategy=FULL)
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL)

    def test_a_merged_main_starts_with_an_empty_log(self, erp_db):
        erp_db.delete("item", 1)
        erp_db.update("item", 5, {"price": 2.0})
        main = erp_db.table("item").partition("main")
        assert main.invalidation_epoch == len(main.stamp_log) == 2
        erp_db.merge()
        main = erp_db.table("item").partition("main")
        assert main.invalidation_epoch == len(main.stamp_log) == 0
        assert erp_db.table("item").partition("delta").invalidation_epoch == 0

    def test_invalidations_leave_nbytes_unchanged(self, erp_db):
        item = erp_db.table("item")
        main, delta = item.partition("main"), item.partition("delta")
        before = main.nbytes(), delta.nbytes()
        erp_db.delete("item", 1)
        erp_db.delete("item", 100 * 100)
        assert (main.invalidation_epoch, delta.invalidation_epoch) == (1, 1)
        assert (main.nbytes(), delta.nbytes()) == before


class TestBypasses:
    def test_older_reader_bypasses_and_keeps_the_memo(self, erp_db):
        erp_db.query(PROFIT_SQL, strategy=FULL)  # entry at snapshot S0
        txn = erp_db.begin()  # reader R >= S0
        load_erp(erp_db, n_headers=1, start_hid=400, merge=False)
        erp_db.query(PROFIT_SQL, strategy=FULL)  # memo advances past R
        (entry,) = erp_db.cache.entries()
        memo = entry.delta_memo
        assert memo is not None and memo.anchor > txn.snapshot
        result = erp_db.query(PROFIT_SQL, strategy=FULL, txn=txn)
        report = erp_db.last_report
        assert report.delta_memo_mode == "full"  # stepped from birth
        assert report.delta_memo_reason == "older_reader"
        assert report.delta_memo_rows_saved == 0
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL, txn=txn)
        assert entry.delta_memo is memo  # kept for newer readers
        txn.commit()
        erp_db.query(PROFIT_SQL, strategy=FULL)
        assert erp_db.last_report.delta_memo_mode == "incremental"

    def test_older_reader_never_installs_a_memo(self, erp_db):
        """Not even under a plan whose exclusions differ from the memo's
        (for which a newer reader would install a step from birth): the
        older reader steps from birth and the newer memo stays."""
        erp_db.query(PROFIT_SQL, strategy=FULL)
        txn = erp_db.begin()
        erp_db.delete("item", 1)
        erp_db.query(PROFIT_SQL, strategy=FULL)  # steps the memo past ``txn``
        (entry,) = erp_db.cache.entries()
        memo = entry.delta_memo
        assert memo.anchor > txn.snapshot
        no_pruning = ExecutionStrategy.CACHED_NO_PRUNING  # no star-join exclusion
        result = erp_db.query(PROFIT_SQL, strategy=no_pruning, txn=txn)
        report = erp_db.last_report
        assert (report.delta_memo_mode, report.delta_memo_reason) == ("full", "older_reader")
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL, txn=txn)
        assert entry.delta_memo is memo
        txn.commit()

    def test_direct_scan_answers_bypass(self, erp_db):
        erp_db.query(PROFIT_SQL, strategy=FULL)
        # A time-travel reader older than the entry's anchor is answered by
        # a direct scan; no entry owns its compensation, so no memo engages.
        result = erp_db.query(PROFIT_SQL, strategy=FULL, as_of=1)
        report = erp_db.last_report
        assert report.delta_memo_mode == "bypass"
        assert report.delta_memo_reason == "no_entry"
        assert result.rows == _uncached_rows(erp_db, PROFIT_SQL, as_of=1)

    def test_plan_cache_disabled_still_reuses_the_memo(self):
        db = make_erp_db()
        load_erp(db, n_headers=4, merge=True)
        load_erp(db, n_headers=2, start_hid=100, merge=False)
        db.plan_cache.clear()
        db.query(PROFIT_SQL, strategy=FULL)
        load_erp(db, n_headers=1, start_hid=200, merge=False)
        db.plan_cache.clear()  # every read plans afresh
        result = db.query(PROFIT_SQL, strategy=FULL)
        # Validity is keyed on partition identity, not plan identity: a
        # freshly planned query reuses the memo all the same.
        assert db.last_report.delta_memo_mode == "incremental"
        assert result.rows == _uncached_rows(db, PROFIT_SQL)


def _randomized_run(db, rng_seed: int, queries=(PROFIT_SQL, HEADER_ITEM_SQL), forget=False):
    """One deterministic interleaving of DML, merges, and cached queries;
    ``forget`` drops the entries' memos before every query.

    Prices are multiples of 0.25 — exactly representable — so any result
    divergence between configurations is a logic bug, not float noise.
    """
    rng = random.Random(rng_seed)
    outputs = []
    next_hid, next_iid = 1000, 100000
    for step in range(40):
        action = rng.random()
        if action < 0.35:
            hid = next_hid
            next_hid += 1
            items = []
            for _ in range(rng.randint(1, 3)):
                items.append(
                    {
                        "iid": next_iid,
                        "hid": hid,
                        "cid": rng.randint(0, 1),
                        "price": rng.randint(1, 400) / 4.0,
                    }
                )
                next_iid += 1
            db.insert_business_object(
                "header", {"hid": hid, "year": 2013 + hid % 3}, "item", items
            )
        elif action < 0.45 and next_hid > 1000:
            victim = rng.randrange(1000, next_hid)
            if db.table("header").get_row(victim) is not None:
                db.update("header", victim, {"year": 2050})
        elif action < 0.55 and next_iid > 100000:
            victim = rng.randrange(100000, next_iid)
            if db.table("item").get_row(victim) is not None:
                db.delete("item", victim)
        elif action < 0.6:
            db.merge()
        sql = queries[rng.randrange(len(queries))]
        if forget:
            forget_memos(db)
        outputs.append((step, sql, db.query(sql, strategy=FULL).rows))
        if rng.random() < 0.2:
            # Cross-check against the uncached truth mid-stream.
            assert outputs[-1][2] == _uncached_rows(db, sql)
    return outputs


class TestParity:
    @pytest.mark.parametrize("seed", [7, 21])
    def test_memo_on_off_serial_parallel_identical(self, seed):
        """The same randomized history must produce bit-identical rows with
        the memos kept (reads step them) and dropped before every read
        (reads step from birth)."""
        reference = None
        for forget in (False, True):
            db = make_erp_db()
            load_erp(db, n_headers=5, merge=True)
            outputs = _randomized_run(db, seed, forget=forget)
            if reference is None:
                reference = outputs
                # The memo actually engaged in the reference run.
                assert db.cache.counters_snapshot()["memo_hits"] > 0
            else:
                assert outputs == reference, "steps from birth diverged"

    def test_concurrent_writer_snapshots(self, erp_db):
        """Readers pinned across writer commits never see memo'd rows from
        the future, whichever side of the anchor they land on."""
        erp_db.query(PROFIT_SQL, strategy=FULL)
        snapshots = []
        for round_no in range(4):
            txn = erp_db.begin()
            expect = _uncached_rows(erp_db, PROFIT_SQL, txn=txn)
            snapshots.append((txn, expect))
            load_erp(erp_db, n_headers=1, start_hid=600 + round_no, merge=False)
            erp_db.query(PROFIT_SQL, strategy=FULL)  # advances the memo
        for txn, expect in snapshots:
            assert erp_db.query(PROFIT_SQL, strategy=FULL, txn=txn).rows == expect
            txn.commit()
