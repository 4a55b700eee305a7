"""Memory budgets: tracked bytes, shedding order, and budget enforcement.

Acceptance: with a budget of roughly half the unbudgeted footprint, the
shedder keeps tracked bytes under the budget across a query workload, and
query results remain correct throughout.
"""

import time

import pytest

from repro import Database, ExecutionStrategy, GovernorConfig

from ..conftest import HEADER_ITEM_SQL, PROFIT_SQL, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED

# Distinct statements so the workload populates several cache entries,
# delta memos, plans, and parse-cache slots.
WORKLOAD_SQL = [
    PROFIT_SQL,
    HEADER_ITEM_SQL,
    (
        "SELECT h.year AS year, SUM(i.price) AS profit "
        "FROM header h, item i WHERE h.hid = i.hid GROUP BY h.year"
    ),
    (
        "SELECT d.lang AS lang, COUNT(*) AS n "
        "FROM header h, item i, category d "
        "WHERE h.hid = i.hid AND i.cid = d.cid GROUP BY d.lang"
    ),
]


SHED_KINDS = {"cold", "memo", "entry", "plan"}


def _derived_bytes(entry) -> int:
    """Bytes of an entry's delta memo plus its remembered output order."""
    memo, order = entry.delta_memo, entry.result_order
    return (memo.folded.approximate_nbytes() if memo is not None else 0) + (
        order.nbytes() if order is not None else 0
    )


def _populated_db(**kwargs) -> Database:
    db = make_erp_db(**kwargs)
    load_erp(db, n_headers=8, merge=True)
    load_erp(db, n_headers=3, start_hid=100, merge=False)
    return db


def _run_workload(db: Database, repeats: int = 2):
    rows = {}
    for _ in range(repeats):
        for sql in WORKLOAD_SQL:
            rows[sql] = db.query(sql, strategy=FULL).rows
    return rows


class TestTrackedBytes:
    def test_accounts_entries_memos_and_caches(self):
        db = _populated_db()
        # The parse cache is process-global, so a fresh database may
        # already track a few KB from earlier tests: measure growth.
        baseline = db.cache.tracked_bytes()
        _run_workload(db)
        tracked = db.cache.tracked_bytes()
        assert tracked > baseline
        # Dropping everything brings the tracked footprint to (near) zero.
        shed = db.cache.shed_to_budget(0)
        assert sum(shed.values()) > 0
        assert db.cache.tracked_bytes() == 0


class TestSheddingOrder:
    def test_shed_reports_exactly_cold_memo_entry_plan(self):
        db = _populated_db()
        _run_workload(db)
        assert set(db.cache.shed_to_budget(db.cache.tracked_bytes())) == SHED_KINDS
        assert set(db.cache.shed_to_budget(0)) == SHED_KINDS

    def test_least_recently_used_memo_and_order_shed_first(self):
        db = _populated_db()
        _run_workload(db)
        by_lru = sorted(
            db.cache.entries(), key=lambda e: e.metrics.last_access_clock
        )
        derived = [e for e in by_lru if _derived_bytes(e)]
        assert derived, "workload should have built delta memos"
        entries_before = db.cache.entry_count()
        # A budget just below the full footprint (no cold tier here): the
        # least recently used entry's memo and order cover it alone.
        shed = db.cache.shed_to_budget(db.cache.tracked_bytes() - 1)
        assert shed == {"cold": 0, "memo": 1, "entry": 0, "plan": 0}
        assert db.cache.entry_count() == entries_before
        assert _derived_bytes(derived[0]) == 0
        assert all(_derived_bytes(e) for e in derived[1:])

    def test_memos_shed_before_entries(self):
        db = _populated_db()
        _run_workload(db)
        held = [_derived_bytes(e) for e in db.cache.entries()]
        entries_before = db.cache.entry_count()
        # A budget every memo and order together just meets: all of them
        # go, no entry and no plan does.
        shed = db.cache.shed_to_budget(db.cache.tracked_bytes() - sum(held))
        assert shed == {
            "cold": 0,
            "memo": sum(1 for nbytes in held if nbytes),
            "entry": 0,
            "plan": 0,
        }
        assert db.cache.entry_count() == entries_before
        assert not any(_derived_bytes(e) for e in db.cache.entries())

    def test_entries_shed_when_memos_are_not_enough(self):
        db = _populated_db()
        _run_workload(db)
        # Budget far below the memo savings: entries must go too.
        shed = db.cache.shed_to_budget(1)
        assert shed["entry"] >= 1
        assert shed["plan"] >= 1
        assert db.cache.tracked_bytes() <= 1

    def test_shedding_is_recorded_on_the_governor(self):
        db = _populated_db(governor=GovernorConfig())
        _run_workload(db)
        db.cache.shed_to_budget(0)
        health = db.health()
        assert sum(health.sheds.values()) > 0
        assert health.shed_bytes > 0


class TestBudgetEnforcement:
    def test_half_footprint_budget_is_kept_across_the_workload(self):
        # Measure the unbudgeted footprint of the workload first.
        free_db = _populated_db()
        expected = _run_workload(free_db)
        footprint = free_db.cache.tracked_bytes()
        assert footprint > 0

        budget_bytes = footprint // 2
        db = _populated_db(
            governor=GovernorConfig(
                memory_budget_mb=budget_bytes / (1024.0 * 1024.0)
            )
        )
        for _ in range(3):
            for sql in WORKLOAD_SQL:
                assert db.query(sql, strategy=FULL).rows == expected[sql]
                assert db.cache.tracked_bytes() <= budget_bytes
        health = db.health()
        assert health.memory_budget_bytes == budget_bytes
        assert sum(health.sheds.values()) > 0

    def test_budgeted_hit_latency_within_2x_of_unbudgeted(self):
        free_db = _populated_db()
        _run_workload(free_db)
        footprint = free_db.cache.tracked_bytes()
        db = _populated_db(
            governor=GovernorConfig(
                memory_budget_mb=(footprint // 2) / (1024.0 * 1024.0)
            )
        )
        _run_workload(db)

        def best_hit_seconds(target):
            best = float("inf")
            for _ in range(30):
                started = time.perf_counter()
                target.query(PROFIT_SQL, strategy=FULL)
                best = min(best, time.perf_counter() - started)
            return best

        base = best_hit_seconds(free_db)
        budgeted = best_hit_seconds(db)
        # Half-footprint shedding drops memos/plan slots, not the hot
        # entries, so a steady-state hit stays within 2x (small absolute
        # slack absorbs scheduler noise at sub-millisecond latencies).
        assert budgeted <= base * 2 + 0.002

    def test_no_budget_means_no_shedding(self):
        db = _populated_db(governor=GovernorConfig())
        _run_workload(db)
        assert db.health().sheds == {}

    def test_results_stay_correct_under_extreme_pressure(self):
        db = _populated_db(
            governor=GovernorConfig(memory_budget_mb=0.001)  # ~1 KB
        )
        for sql in WORKLOAD_SQL:
            budgeted = db.query(sql, strategy=FULL).rows
            assert budgeted == db.query(sql, strategy=UNCACHED).rows
