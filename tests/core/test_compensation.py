"""Tests for main compensation (Section 2.2) including join entries.

Main compensation is the all-main terms of the visibility step from an
entry's birth memo (``repro.core.delta_memo.birth_memo``); :func:`amc`
takes them directly, the way a read without a memo does."""

import pytest

from repro import Database, ExecutionStrategy
from repro.core import StaleEntryError
from repro.core.delta_memo import birth_memo, visibility_step
from repro.core.effective_rows import execute_effective

from ..conftest import HEADER_ITEM_SQL, PROFIT_SQL, make_erp_db, load_erp

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED


def entry_for(db, sql):
    entries = db.cache.entries_for(db.parse(sql))
    assert len(entries) == 1
    return entries[0]


def amc(entry, executor, snapshot, into, stats=None):
    """Fold the all-main terms of ``entry``'s step from birth to
    ``snapshot`` into ``into``; returns the main rows that left."""
    step = visibility_step(birth_memo(entry), entry, snapshot)
    specs = step.specs(entry.main_partitions)
    if specs:
        execute_effective(
            executor, entry.query, snapshot, specs, step.effective, into, stats=stats
        )
    mains = {id(partition) for partition in entry.main_partitions.values()}
    return sum(
        shift.rows_left() for pid, shift in step.shifts.items() if pid in mains
    )


def as_stored(entry):
    """No alias of ``entry`` saw an invalidation since its snapshot: its
    step from birth has no main-side term."""
    return all(
        partition.invalidation_epoch == entry.invalidation_epochs[alias]
        for alias, partition in entry.main_partitions.items()
    )


class TestSingleTableCompensation:
    SQL = "SELECT cid, SUM(price) AS s, COUNT(*) AS n FROM item GROUP BY cid"

    def make(self):
        db = make_erp_db()
        load_erp(db, n_headers=4, merge=True)
        db.query(self.SQL, strategy=FULL)  # create the entry
        return db

    def test_update_subtracted_and_new_version_added(self):
        db = self.make()
        before = db.query(self.SQL, strategy=UNCACHED)
        db.update("item", 0, {"price": 999.0})
        cached = db.query(self.SQL, strategy=FULL)
        uncached = db.query(self.SQL, strategy=UNCACHED)
        assert cached == uncached
        assert cached != before
        assert db.last_report is not None

    def test_delete_compensated(self):
        db = self.make()
        db.delete("item", 1)
        cached = db.query(self.SQL, strategy=FULL)
        assert cached == db.query(self.SQL, strategy=UNCACHED)

    def test_group_disappears_when_all_rows_deleted(self):
        db = make_erp_db()
        db.insert("category", {"cid": 0, "name": "c", "lang": "ENG"})
        db.insert("header", {"hid": 1, "year": 2013})
        db.insert("item", {"iid": 1, "hid": 1, "cid": 0, "price": 5.0})
        db.merge()
        db.query(self.SQL, strategy=FULL)
        db.delete("item", 1)
        cached = db.query(self.SQL, strategy=FULL)
        assert len(cached) == 0

    def test_compensation_counts_rows(self):
        db = self.make()
        db.update("item", 0, {"price": 1.5})
        db.update("item", 2, {"price": 2.5})
        db.query(self.SQL, strategy=FULL)
        assert db.last_report.invalidated_rows_compensated == 2

    def test_clean_entry_no_compensation(self):
        db = self.make()
        db.query(self.SQL, strategy=FULL)
        assert db.last_report.invalidated_rows_compensated == 0
        assert db.last_report.cache_hits == 1


class TestJoinEntryCompensation:
    def make(self):
        db = make_erp_db()
        load_erp(db, n_headers=5, merge=True)
        db.query(HEADER_ITEM_SQL, strategy=FULL)
        return db

    def test_item_update(self):
        db = self.make()
        db.update("item", 0, {"price": 500.0})
        assert db.query(HEADER_ITEM_SQL, strategy=FULL) == db.query(
            HEADER_ITEM_SQL, strategy=UNCACHED
        )

    def test_header_delete_removes_joined_items(self):
        db = self.make()
        # Deleting a header invalidates its main row; its items no longer join.
        db.delete("header", 2)
        cached = db.query(HEADER_ITEM_SQL, strategy=FULL)
        assert cached == db.query(HEADER_ITEM_SQL, strategy=UNCACHED)

    def test_invalidations_in_both_tables_inclusion_exclusion(self):
        db = self.make()
        # One header and two items invalidated: the correction terms must not
        # double-subtract the (header x item) doubly-invalidated tuples.
        db.update("item", 1, {"price": 123.0})
        db.delete("item", 2)
        db.delete("header", 1)
        cached = db.query(HEADER_ITEM_SQL, strategy=FULL)
        assert cached == db.query(HEADER_ITEM_SQL, strategy=UNCACHED)

    def test_three_table_join_with_dimension_update(self):
        db = make_erp_db()
        load_erp(db, n_headers=5, merge=True)
        db.query(PROFIT_SQL, strategy=FULL)
        db.update("category", 0, {"name": "renamed"})
        cached = db.query(PROFIT_SQL, strategy=FULL)
        assert cached == db.query(PROFIT_SQL, strategy=UNCACHED)
        assert "renamed" in cached.column_values("category")

    def test_update_of_updated_row_in_delta_is_transparent(self):
        """Updates of rows living in the delta never touch main compensation
        (Section 2.2: handled transparently)."""
        db = self.make()
        db.insert("header", {"hid": 900, "year": 2013})
        db.insert("item", {"iid": 900, "hid": 900, "cid": 0, "price": 10.0})
        db.update("item", 900, {"price": 20.0})  # old version is in the delta
        db.query(HEADER_ITEM_SQL, strategy=FULL)
        assert db.last_report.invalidated_rows_compensated == 0
        assert db.query(HEADER_ITEM_SQL, strategy=FULL) == db.query(
            HEADER_ITEM_SQL, strategy=UNCACHED
        )


class TestStaleEntries:
    def test_direct_api_raises_on_stale_entry(self):
        db = make_erp_db()
        load_erp(db, n_headers=3, merge=True)
        db.query(HEADER_ITEM_SQL, strategy=FULL)
        entry = entry_for(db, HEADER_ITEM_SQL)
        # Merge WITHOUT the cache listener: the entry goes stale.
        from repro.storage import merge_table

        load_erp(db, n_headers=1, start_hid=300, merge=False)
        merge_table(db.table("item"), db.transactions.global_snapshot())
        with pytest.raises(StaleEntryError):
            birth_memo(entry)

    def test_manager_recovers_from_stale_entry(self):
        db = make_erp_db()
        load_erp(db, n_headers=3, merge=True)
        db.query(HEADER_ITEM_SQL, strategy=FULL)
        from repro.storage import merge_table

        load_erp(db, n_headers=1, start_hid=300, merge=False)
        merge_table(db.table("item"), db.transactions.global_snapshot())
        db.table("item").rebuild_pk_index()
        result = db.query(HEADER_ITEM_SQL, strategy=FULL)
        assert db.last_report.entries_recomputed == 1
        assert result == db.query(HEADER_ITEM_SQL, strategy=UNCACHED)


class TestTelescopedCompensation:
    """k dirty aliases cost k correction subjoins (not 2^k - 1) and subtract
    exactly what naive recomputation over the surviving main rows omits.

    Two of the updates below are *silent* for the statement — line 52 is
    written the amount it already has, order 6 changes a column the
    statement never reads — so their old versions are revived, not
    subtracted (repro.core.effective_rows)."""

    SQL = (
        "SELECT c.state AS state, SUM(l.amount) AS revenue, COUNT(*) AS n "
        "FROM cust c, ord o, nord n, line l "
        "WHERE o.ck = c.ck AND n.ok = o.ok AND l.ok = o.ok "
        "GROUP BY c.state"
    )
    #: Deletes/updates per table; order 3 loses its header, its new-order
    #: row *and* a line, so one joined tuple is invalidated in three
    #: joining aliases at once.
    DIRTY = [
        ("line", lambda db: (db.delete("line", 31), db.update("line", 52, {"amount": 7}))),
        ("ord", lambda db: (db.delete("ord", 3), db.update("ord", 6, {"year": 1999}))),
        ("nord", lambda db: db.delete("nord", 3)),
        ("cust", lambda db: db.update("cust", 1, {"state": "ZZ"})),
    ]

    def make(self):
        db = Database()
        db.create_table("cust", [("ck", "INT"), ("state", "TEXT")], primary_key="ck")
        db.create_table(
            "ord", [("ok", "INT"), ("ck", "INT"), ("year", "INT")], primary_key="ok"
        )
        db.create_table("nord", [("ok", "INT")], primary_key="ok")
        db.create_table(
            "line", [("lk", "INT"), ("ok", "INT"), ("amount", "INT")], primary_key="lk"
        )
        self.load(db, range(0, 4), range(0, 12))
        db.merge()
        return db

    @staticmethod
    def load(db, customers, orders):
        for ck in customers:
            db.insert("cust", {"ck": ck, "state": "ABC"[ck % 3]})
        for ok in orders:
            db.insert("ord", {"ok": ok, "ck": ok % 4, "year": 2012 + ok % 3})
            if ok % 4 != 2:
                db.insert("nord", {"ok": ok})
            for k in range(3):
                db.insert("line", {"lk": ok * 10 + k, "ok": ok, "amount": ok + k})

    #: alias -> (key column, keys) of the main rows DIRTY updates silently.
    SILENT = {"l": ("lk", [52]), "o": ("ok", [6])}

    @classmethod
    def naive(cls, db, entry, snapshot, silent=()):
        """The all-main subjoin recomputed from the base data: over the
        visible main rows, and the old versions of the silently updated
        keys of the ``silent`` aliases (they stand for their successors)."""
        import numpy as np

        from repro.query import ComboSpec

        fixed = {}
        for alias in silent:
            column, keys = cls.SILENT[alias]
            main = entry.main_partitions[alias]
            mask = main.visible_mask(snapshot)
            mask |= np.isin(main.column(column).decode_rows(np.arange(len(mask))), keys)
            fixed[alias] = np.flatnonzero(mask)
        spec = ComboSpec(dict(entry.main_partitions), fixed_rows=fixed)
        return db.executor.execute(entry.query, snapshot, combos=[spec])

    @staticmethod
    def rows(grouped):
        return sorted(grouped.finalize())

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_k_dirty_aliases_cost_k_terms_and_equal_naive(self, k):
        from repro.query import ExecutionStats

        db = self.make()
        db.query(self.SQL, strategy=FULL)
        entry = entry_for(db, self.SQL)
        for _table, dirty in self.DIRTY[:k]:
            dirty(db)
        snapshot = db.transactions.global_snapshot()
        corrected, stats = entry.value.copy(), ExecutionStats()
        compensated = amc(entry, db.executor, snapshot, corrected, stats=stats)
        assert stats.combos_evaluated == k
        assert compensated == [1, 2, 3, 4][k - 1]
        assert self.rows(corrected) == self.rows(
            self.naive(db, entry, snapshot, silent=["l", "o"][:k])
        )
        assert self.rows(corrected) != self.rows(entry.value)
        # ... and through the manager, new versions included.
        cached = db.query(self.SQL, strategy=FULL)
        assert db.last_report.invalidated_rows_compensated == compensated
        assert db.last_report.silent_rows_cancelled == min(k, 2)
        assert cached == db.query(self.SQL, strategy=UNCACHED)

    def test_span_reports_dirty_aliases_terms_and_rows(self):
        db = self.make()
        db.query(self.SQL, strategy=FULL)
        for _table, dirty in self.DIRTY[:3]:
            dirty(db)
        trace = db.explain_analyze(self.SQL)
        span = trace.span_named("main_compensation")
        assert span.attrs["dirty_aliases"] == ["l", "n", "o"]
        assert span.attrs["terms"] == 3
        assert span.attrs["invalidated_rows"] == span.attrs["rows_compensated"] == 3
        assert span.attrs["revived_rows"] == span.attrs["suppressed_rows"] == 2
        assert "dirty_aliases=['l', 'n', 'o']" in trace.render()

    def test_silent_updates_cost_zero_terms_and_zero_subjoins(self):
        from repro.query import ExecutionStats

        db = self.make()
        db.query(self.SQL, strategy=FULL)
        entry = entry_for(db, self.SQL)
        db.update("ord", 6, {"year": 1999})  # a column the statement never reads
        db.update("line", 52, {"amount": 7})  # the value it already had
        snapshot = db.transactions.global_snapshot()
        corrected, stats = entry.value.copy(), ExecutionStats()
        assert amc(entry, db.executor, snapshot, corrected, stats=stats) == 0
        assert stats.combos_evaluated == 0
        assert self.rows(corrected) == self.rows(entry.value)
        # Through the manager: the new versions are the deltas' only rows,
        # so every delta subjoin is cancelled before the executor — and
        # still leaves its one span.
        trace = db.explain_analyze(self.SQL)
        report = trace.report
        assert report.invalidated_rows_compensated == 0
        assert report.silent_rows_cancelled == 2
        assert report.executor_stats.combos_evaluated == 0
        subjoins = [s for s in trace.root.walk() if s.name == "subjoin"]
        assert len(subjoins) == report.prune.combos_total
        assert {s.attrs["status"] for s in subjoins} <= {"cancelled", "pruned"}
        assert sum(s.attrs["status"] == "cancelled" for s in subjoins) == report.prune.evaluated
        assert trace.result == db.query(self.SQL, strategy=UNCACHED)
        assert not as_stored(entry)
        db.merge()  # both pairs leave with the old partitions
        assert db.query(self.SQL, strategy=FULL) == db.query(self.SQL, strategy=UNCACHED)
        assert db.last_report.result_reused is False
        assert db.last_report.silent_rows_cancelled == 0
        assert as_stored(entry_for(db, self.SQL))

    def test_merge_time_maintenance_retires_the_debt(self):
        db = self.make()
        db.query(self.SQL, strategy=FULL)
        for _table, dirty in self.DIRTY:
            dirty(db)
        self.load(db, range(4, 6), range(12, 15))
        db.merge()  # plan_entry_maintenance: the step from birth
        cached = db.query(self.SQL, strategy=FULL)
        assert db.last_report.cache_hits == 1
        assert db.last_report.entries_recomputed == 0
        assert db.last_report.invalidated_rows_compensated == 0
        assert cached == db.query(self.SQL, strategy=UNCACHED)
