"""Chaos smoke: a fault matrix under a threaded mixed workload.

Each scenario arms one fault point with one failure shape (a small
injected delay, or seeded probabilistic transient I/O errors) and runs a
short concurrent read/write workload against it.  The contract:

* only *typed* errors surface (``DurabilityError`` once retries are
  exhausted, ``WriteRejectedError`` while a refused WAL record still
  waits in the backlog, ``FaultError`` from a raising cache path) —
  never a torn engine, a deadlock, or an anonymous crash;
* reads keep returning correct results throughout;
* after the fault is disarmed, the very next write heals the database,
  the final cached results match an uncached oracle, and a durable
  database reopens with no committed row lost.

``CHAOS_SECONDS`` scales the soak; CI's chaos job runs it longer than
the tier-1 default (see .github/workflows/ci.yml).
"""

import os
import threading

import pytest

from repro import Database, ExecutionStrategy, FaultInjector, WriteRejectedError
from repro.errors import DurabilityError, FaultError, ReproError

from ..conftest import HEADER_ITEM_SQL, PROFIT_SQL, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED

CHAOS_SECONDS = float(os.environ.get("CHAOS_SECONDS", "1.0"))

# (fault point, arm kwargs) — each entry is one chaos scenario.  Delays
# perturb schedules; probabilistic io_error exercises retry + backlog.
FAULT_MATRIX = [
    ("wal.append", dict(mode="delay", delay=0.002, times=None)),
    ("wal.append", dict(mode="io_error", probability=0.3, times=None)),
    ("checkpoint.write", dict(mode="io_error", probability=0.3, times=None)),
    ("cache.compensation", dict(mode="raise", probability=0.3, times=None)),
    ("merge.stage", dict(mode="delay", delay=0.002, times=None)),
]

# Errors a chaos run is allowed to surface.  Anything else is a bug.
TYPED_ERRORS = (DurabilityError, WriteRejectedError, FaultError)


def _writer(db, stop, errors, next_hid):
    hid = next_hid
    while not stop.is_set():
        try:
            load_erp(db, n_headers=1, start_hid=hid, merge=False)
        except TYPED_ERRORS:
            pass  # typed rejection/exhaustion is within contract
        except ReproError as exc:  # pragma: no cover - contract violation
            errors.append(exc)
        hid += 1


def _merger(db, stop, errors):
    while not stop.is_set():
        try:
            db.merge()
        except TYPED_ERRORS:
            pass
        except ReproError as exc:  # pragma: no cover - contract violation
            errors.append(exc)
        stop.wait(0.02)


def _reader(db, stop, errors):
    # Cached-vs-uncached equality is only checked in the quiescent phase:
    # under live writers two queries legitimately see different commits.
    while not stop.is_set():
        for sql in (PROFIT_SQL, HEADER_ITEM_SQL):
            for strategy in (FULL, UNCACHED):
                try:
                    db.query(sql, strategy=strategy)
                except TYPED_ERRORS:
                    pass
                except ReproError as exc:  # pragma: no cover
                    errors.append(exc)


def _run_chaos(db, faults, point, arm_kwargs):
    load_erp(db, n_headers=4, merge=True)
    faults.arm(point, **arm_kwargs)

    stop = threading.Event()
    errors = []
    threads = [
        threading.Thread(target=_writer, args=(db, stop, errors, 1000)),
        threading.Thread(target=_merger, args=(db, stop, errors)),
        threading.Thread(target=_reader, args=(db, stop, errors)),
        threading.Thread(target=_reader, args=(db, stop, errors)),
    ]
    for t in threads:
        t.start()
    stop.wait(CHAOS_SECONDS)
    stop.set()
    for t in threads:
        t.join(timeout=30.0)
    assert not any(t.is_alive() for t in threads), "workload thread hung"
    assert errors == [], f"untyped errors escaped: {errors!r}"

    # Fault clears; the very next write drains the backlog and heals.
    faults.disarm(point)
    db.insert("category", {"cid": 900, "name": "probe", "lang": "ENG"})
    for sql in (PROFIT_SQL, HEADER_ITEM_SQL):
        assert (
            db.query(sql, strategy=FULL).rows
            == db.query(sql, strategy=UNCACHED).rows
        )
    assert db.health().modes == []


@pytest.mark.parametrize(
    "point,arm_kwargs",
    FAULT_MATRIX,
    ids=[f"{p}-{k['mode']}" for p, k in FAULT_MATRIX],
)
def test_chaos_in_memory(point, arm_kwargs):
    faults = FaultInjector(seed=1234)
    db = make_erp_db(fault_injector=faults)
    _run_chaos(db, faults, point, arm_kwargs)


def test_chaos_durable_database_reopens_cleanly(tmp_path):
    """A WAL-fault soak on disk: whatever committed must survive reopen."""
    faults = FaultInjector(seed=99)
    db = make_erp_db(path=tmp_path / "db", fault_injector=faults)
    _run_chaos(
        db, faults, "wal.append", dict(mode="io_error", probability=0.3, times=None)
    )
    expected = db.query(PROFIT_SQL, strategy=UNCACHED).rows
    db.close()
    recovered = Database.open(tmp_path / "db")
    try:
        assert recovered.query(PROFIT_SQL, strategy=UNCACHED).rows == expected
    finally:
        recovered.close()
