"""Query deadlines and cooperative cancellation.

The acceptance property: a query aborted by an expired deadline raises
``QueryTimeout`` and leaves the engine in a state where re-running the
same query without a deadline is *bit-identical* to never having timed
out — with and without the delta memo engaged, against randomized
writer histories.
"""

import random
import threading

import pytest

from repro import (
    CancelToken,
    Database,
    Deadline,
    ExecutionStrategy,
    GovernorConfig,
    QueryCancelled,
    QueryTimeout,
)

from ..conftest import HEADER_ITEM_SQL, PROFIT_SQL, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestDeadline:
    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Deadline.after_ms(-1.0)

    def test_expiry_on_a_fake_clock(self):
        clock = FakeClock()
        deadline = Deadline.after_ms(50.0, clock=clock)
        assert not deadline.expired(clock=clock)
        assert deadline.remaining_ms(clock=clock) == pytest.approx(50.0)
        clock.now += 0.049
        assert not deadline.expired(clock=clock)
        clock.now += 0.002
        assert deadline.expired(clock=clock)
        assert deadline.remaining_ms(clock=clock) == 0.0


class TestCancelToken:
    def test_check_is_a_noop_while_healthy(self):
        token = CancelToken(Deadline.after_ms(60_000.0))
        token.check()  # must not raise

    def test_cancel_raises_with_the_given_reason(self):
        token = CancelToken()
        token.cancel("user hit ctrl-c")
        with pytest.raises(QueryCancelled, match="user hit ctrl-c"):
            token.check()

    def test_expired_deadline_raises_typed_timeout(self):
        token = CancelToken(Deadline.after_ms(0.0))
        with pytest.raises(QueryTimeout) as excinfo:
            token.check()
        assert excinfo.value.timeout_ms == 0.0

    def test_cancel_wins_over_expiry(self):
        token = CancelToken(Deadline.after_ms(0.0))
        token.cancel()
        with pytest.raises(QueryCancelled):
            token.check()

    def test_cancel_from_another_thread(self):
        token = CancelToken()
        worker = threading.Thread(target=token.cancel, args=("remote",))
        worker.start()
        worker.join()
        assert token.cancelled


def _randomized_writer_history(db: Database, seed: int) -> None:
    """Apply a seeded random mix of inserts/updates/deletes/merges."""
    rng = random.Random(seed)
    next_hid = 1000 + seed * 100  # disjoint hid ranges per history
    for _ in range(rng.randint(3, 6)):
        action = rng.choice(["insert", "update", "delete", "merge"])
        if action == "insert":
            load_erp(
                db,
                n_headers=rng.randint(1, 3),
                start_hid=next_hid,
                merge=False,
            )
            next_hid += 10
        elif action == "update":
            iid = rng.choice([0, 1, 2, 100, 101])
            if db.table("item").get_row(iid) is not None:
                db.update("item", iid, {"price": float(rng.randint(1, 50))})
        elif action == "delete":
            iid = rng.choice([3, 4, 102])
            if db.table("item").get_row(iid) is not None:
                db.delete("item", iid)
        else:
            db.merge()


@pytest.mark.parametrize("mode", ["serial", "memo"])
@pytest.mark.parametrize("seed", [1, 7, 23])
def test_timeout_then_rerun_is_bit_identical(mode, seed):
    db = make_erp_db()
    load_erp(db, n_headers=6, merge=True)
    load_erp(db, n_headers=2, start_hid=100, merge=False)
    if mode == "memo":
        # Prime the entry and its delta memo so the timed-out run would
        # have gone down the incremental-compensation path.
        db.query(PROFIT_SQL, strategy=FULL)
        db.query(PROFIT_SQL, strategy=FULL)
        assert db.last_report.delta_memo_mode == "incremental"
    _randomized_writer_history(db, seed)

    expected = db.query(PROFIT_SQL, strategy=UNCACHED).rows
    with pytest.raises(QueryTimeout):
        # An already-expired deadline: the first cooperative check aborts.
        db.query(PROFIT_SQL, strategy=FULL, timeout_ms=0.0)
    rerun = db.query(PROFIT_SQL, strategy=FULL).rows
    assert rerun == expected
    # And the abort left the engine fully writable and re-queryable.
    _randomized_writer_history(db, seed + 1000)
    assert (
        db.query(PROFIT_SQL, strategy=FULL).rows
        == db.query(PROFIT_SQL, strategy=UNCACHED).rows
    )


def test_timeout_leaves_no_active_transaction_or_read_lock(erp_db):
    finished = []
    erp_db.transactions.finish_hooks.append(finished.append)
    with pytest.raises(QueryTimeout):
        erp_db.query(PROFIT_SQL, strategy=FULL, timeout_ms=0.0)
    # The auto-begun transaction was aborted (its finish hooks ran), not
    # leaked in the active state forever ...
    assert [txn.state for txn in finished] == ["aborted"]
    # ... and the read lock was released: a writer can proceed at once.
    erp_db.insert("category", {"cid": 77, "name": "late", "lang": "ENG"})


def test_timeout_installs_no_partial_memo(erp_db):
    erp_db.query(PROFIT_SQL, strategy=FULL)  # build the entry
    load_erp(erp_db, n_headers=2, start_hid=300, merge=False)
    entries_before = {
        e.key: e.delta_memo for e in erp_db.cache.entries()
    }
    with pytest.raises(QueryTimeout):
        erp_db.query(PROFIT_SQL, strategy=FULL, timeout_ms=0.0)
    for entry in erp_db.cache.entries():
        assert entries_before.get(entry.key) is entry.delta_memo


def test_pre_cancelled_token_aborts_with_query_cancelled(erp_db):
    token = CancelToken()
    token.cancel("shutting down")
    with pytest.raises(QueryCancelled, match="shutting down"):
        erp_db.query(PROFIT_SQL, cancel=token)


def test_config_default_timeout_applies_and_explicit_wins():
    db = make_erp_db(governor=GovernorConfig(query_timeout_ms=0.0001))
    load_erp(db, n_headers=4, merge=True)
    with pytest.raises(QueryTimeout):
        db.query(HEADER_ITEM_SQL)
    # An explicit generous timeout overrides the impossible default.
    result = db.query(HEADER_ITEM_SQL, timeout_ms=60_000.0)
    assert result.rows


def test_timeouts_are_counted_in_health(erp_db):
    with pytest.raises(QueryTimeout):
        erp_db.query(PROFIT_SQL, timeout_ms=0.0)
    report = erp_db.health()
    assert report.timeouts == 1
    assert report.state == "healthy"  # a timeout is not a degraded mode


def test_explain_analyze_honors_the_deadline(erp_db):
    with pytest.raises(QueryTimeout):
        erp_db.explain_analyze(PROFIT_SQL, timeout_ms=0.0)
