"""Transient I/O faults: retries absorb them, recovery loses nothing.

Property under test: a transient ``OSError`` raised mid-durability-write
is either absorbed by the retry/backoff machinery (bounded ``times``) or
escalated as a typed ``DurabilityError`` (unlimited ``times``) — and in
*both* cases the database directory remains re-openable with every
committed row intact.
"""

import random

import pytest

from repro import Database, DurabilityError, FaultInjector


def _commit_random_rows(db: Database, rng: random.Random, start: int, n: int):
    """Insert ``n`` committed rows with seeded random values; return them."""
    rows = {}
    for k in range(start, start + n):
        v = rng.randint(0, 10_000)
        db.insert("t", {"k": k, "v": v})
        rows[k] = v
    return rows


def _fresh_db(tmp_path, faults):
    db = Database(path=tmp_path / "db", fault_injector=faults)
    db.create_table("t", [("k", "INT"), ("v", "INT")], primary_key="k")
    return db


def _assert_recovers_with(tmp_path, committed):
    recovered = Database.open(tmp_path / "db")
    try:
        rows = recovered.query(
            "SELECT k AS k, SUM(v) AS v FROM t GROUP BY k"
        ).rows
        assert {k: int(v) for k, v in rows} == committed
    finally:
        recovered.close()


@pytest.mark.parametrize("seed", [2, 11, 29])
def test_single_transient_wal_error_is_absorbed_by_retry(tmp_path, seed):
    rng = random.Random(seed)
    faults = FaultInjector()
    db = _fresh_db(tmp_path, faults)
    committed = _commit_random_rows(db, rng, start=0, n=rng.randint(3, 8))

    # One transient kernel error on the next append: the retry loop must
    # absorb it without surfacing anything to the caller.
    faults.arm("wal.append", mode="io_error", times=1)
    committed.update(_commit_random_rows(db, rng, start=100, n=1))
    assert faults.hits["wal.append"] >= 2  # the failed try plus the retry

    committed.update(_commit_random_rows(db, rng, start=200, n=3))
    db.close()
    _assert_recovers_with(tmp_path, committed)


@pytest.mark.parametrize("seed", [5, 17])
def test_exhausted_wal_retries_lose_no_committed_data(tmp_path, seed):
    rng = random.Random(seed)
    faults = FaultInjector()
    db = _fresh_db(tmp_path, faults)
    committed = _commit_random_rows(db, rng, start=0, n=rng.randint(3, 8))

    # A persistent fault outlasts the whole retry budget: the write fails
    # with the typed durability error.  Row visibility is stamp-based and
    # the engine has no undo, so the row is already live in memory —
    # queries serve it despite the failed append.
    faults.arm("wal.append", mode="io_error", times=None)
    with pytest.raises(DurabilityError):
        db.insert("t", {"k": 500, "v": 1})
    committed[500] = 1
    live = db.query("SELECT k AS k, SUM(v) AS v FROM t GROUP BY k").rows
    assert {k: int(v) for k, v in live} == committed

    # Fault clears; the next write drains the queued record first, so
    # recovery reproduces exactly what the live database served — the
    # unlogged-but-visible row is not lost.
    faults.disarm("wal.append")
    committed.update(_commit_random_rows(db, rng, start=600, n=2))
    db.close()
    _assert_recovers_with(tmp_path, committed)


def test_unlogged_transaction_is_redelivered_at_close(tmp_path):
    rng = random.Random(7)
    faults = FaultInjector()
    db = _fresh_db(tmp_path, faults)
    committed = _commit_random_rows(db, rng, start=0, n=4)

    faults.arm("wal.append", mode="io_error", times=None)
    with pytest.raises(DurabilityError):
        db.insert("t", {"k": 500, "v": 1})
    committed[500] = 1

    # No further writes ride by; the clean close is the last chance to
    # flush the backlog, and it must take it.
    faults.disarm("wal.append")
    db.close()
    _assert_recovers_with(tmp_path, committed)


def test_transient_checkpoint_error_is_absorbed(tmp_path):
    rng = random.Random(3)
    faults = FaultInjector()
    db = _fresh_db(tmp_path, faults)
    committed = _commit_random_rows(db, rng, start=0, n=6)

    faults.arm("checkpoint.write", mode="io_error", times=1)
    db.checkpoint()  # retried internally; must not raise
    assert faults.hits["checkpoint.write"] >= 2

    committed.update(_commit_random_rows(db, rng, start=50, n=2))
    db.close()
    _assert_recovers_with(tmp_path, committed)


def test_failed_checkpoint_leaves_wal_recovery_intact(tmp_path):
    rng = random.Random(9)
    faults = FaultInjector()
    db = _fresh_db(tmp_path, faults)
    committed = _commit_random_rows(db, rng, start=0, n=6)

    faults.arm("checkpoint.write", mode="io_error", times=None)
    with pytest.raises(DurabilityError):
        db.checkpoint()
    faults.disarm("checkpoint.write")

    # The atomic tmp+rename discipline means a failed checkpoint leaves
    # no torn snapshot behind: replaying the WAL still rebuilds it all.
    db.close()
    _assert_recovers_with(tmp_path, committed)
