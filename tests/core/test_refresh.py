"""Idle refresh: ``Database.refresh_cache`` takes, for every entry that
alone answers its statement, the visibility step the entry's next read
would take — routed by the read's own ``_route_memo`` — and installs the
stepped memo, so that read finds nothing left to fold.  It counts an
``advance`` (stepped the entry's memo) or a ``rebuild`` (stepped from the
entry's birth memo) only for a memo it installed.
"""

from repro import ExecutionStrategy

from ..conftest import PROFIT_SQL, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED


def _typed(rows):
    return [tuple((type(v).__name__, v) for v in row) for row in rows]


def _refreshes(db):
    counters = db.cache.counters_snapshot()
    return counters["refresh_advances"], counters["refresh_rebuilds"]


def _grown_db(growth_headers):
    """A cached statement whose memo covers 66 rows (12 merged business
    objects, 4 in the deltas, 2 categories), then ``growth_headers`` more
    business objects (4 rows each) in the deltas."""
    db = make_erp_db()
    load_erp(db, n_headers=12, merge=True)
    load_erp(db, n_headers=4, start_hid=100, merge=False)
    db.query(PROFIT_SQL, strategy=FULL)  # installs the memo
    load_erp(db, n_headers=growth_headers, start_hid=300, merge=False)
    return db


def _assert_next_read_folds_nothing(db):
    truth = db.query(PROFIT_SQL, strategy=UNCACHED)
    result = db.query(PROFIT_SQL, strategy=FULL)
    report = db.last_report
    assert report.delta_memo_mode == "incremental"
    assert report.executor_stats.combos_evaluated == 0
    assert _typed(result.rows) == _typed(truth.rows)


class TestRouting:
    def test_clean_entry_skips(self):
        db = make_erp_db()
        load_erp(db, n_headers=6, merge=True)
        load_erp(db, n_headers=2, start_hid=100, merge=False)
        db.query(PROFIT_SQL, strategy=FULL)
        memos = {entry.key: entry.delta_memo for entry in db.cache.entries()}
        assert memos and all(memo is not None for memo in memos.values())
        assert db.refresh_cache() == {"advance": 0, "rebuild": 0}
        assert all(
            entry.delta_memo is memos[entry.key] for entry in db.cache.entries()
        )
        assert _refreshes(db) == (0, 0)

    def test_modest_growth_routes_to_advance(self):
        db = _grown_db(growth_headers=1)
        assert db.refresh_cache() == {"advance": 1, "rebuild": 0}
        assert _refreshes(db) == (1, 0)
        _assert_next_read_folds_nothing(db)

    def test_dominant_growth_advances(self):
        # 48 new rows against 66 covered: past half the covered prefix,
        # and still the read's step — from the memo, which reads only the
        # new rows.
        db = _grown_db(growth_headers=12)
        assert db.refresh_cache() == {"advance": 1, "rebuild": 0}
        assert _refreshes(db) == (1, 0)
        _assert_next_read_folds_nothing(db)


class TestApplication:
    def test_refresh_cache_advances_memos_off_the_query_path(self):
        db = _grown_db(growth_headers=2)
        entry = db.cache.entries()[0]
        before = entry.delta_memo
        db.refresh_cache()
        assert entry.delta_memo is not before
        assert entry.delta_memo.anchor == db.transactions.global_snapshot()
        _assert_next_read_folds_nothing(db)

    def test_refresh_is_idempotent(self):
        db = _grown_db(growth_headers=2)
        assert db.refresh_cache() == {"advance": 1, "rebuild": 0}
        memo = db.cache.entries()[0].delta_memo
        assert db.refresh_cache() == {"advance": 0, "rebuild": 0}
        assert db.cache.entries()[0].delta_memo is memo
        assert _refreshes(db) == (1, 0)

    def test_rebuild_route_applies_correctly(self):
        # The merge maintains the entry onto the rebuilt mains and leaves
        # it no memo (the one it held covered the pre-merge partitions):
        # the read's step, and so the refresh's, starts from its birth.
        db = _grown_db(growth_headers=2)
        (entry,) = db.cache.entries()
        db.merge()
        assert entry.delta_memo is None
        load_erp(db, n_headers=3, start_hid=500, merge=False)
        assert db.refresh_cache() == {"advance": 0, "rebuild": 1}
        assert _refreshes(db) == (0, 1)
        assert entry.delta_memo is not None
        _assert_next_read_folds_nothing(db)
