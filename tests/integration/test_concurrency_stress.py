"""Multi-threaded stress test: concurrent queries, inserts, and merges.

Hammers one shared :class:`Database` with concurrent query threads while a
writer inserts business objects and a maintenance thread runs periodic
delta merges.  The run asserts three things:

* **liveness/safety** — no thread raises, no deadlock (the run completes);
* **monotonicity** — the workload is insert-only, so every query thread
  must observe non-decreasing COUNT(*) over time (a dip would mean a torn
  read of partially applied state);
* **no lost updates** — the final aggregates equal a serial reference
  computed from the recorded inserts, in cached and uncached mode alike.

``STRESS_SECONDS`` scales the duration: the default keeps the tier-1 suite
fast, CI runs the full 30-second soak (see .github/workflows/ci.yml).
"""

import os
import threading
import time
from collections import defaultdict

import pytest

from repro import Database, ExecutionStrategy

from ..conftest import HEADER_ITEM_SQL, PROFIT_SQL, make_erp_db

STRESS_SECONDS = float(os.environ.get("STRESS_SECONDS", "2.5"))
N_QUERY_THREADS = 4
N_CATEGORIES = 3
ITEMS_PER_OBJECT = 4


def _insert_object(db: Database, hid: int, log: list) -> None:
    items = [
        {
            "iid": hid * ITEMS_PER_OBJECT + k,
            "hid": hid,
            "cid": (hid + k) % N_CATEGORIES,
            "price": float((hid % 7) + k + 1),
        }
        for k in range(ITEMS_PER_OBJECT)
    ]
    db.insert_business_object(
        "header", {"hid": hid, "year": 2013 + hid % 3}, "item", items
    )
    log.extend(items)


def test_queries_inserts_merges_concurrently():
    db = make_erp_db()
    for cid in range(N_CATEGORIES):
        db.insert("category", {"cid": cid, "name": f"cat{cid}", "lang": "ENG"})
    inserted_items: list = []
    _insert_object(db, 0, inserted_items)  # never-empty starting point
    db.merge()

    stop = threading.Event()
    errors: list = []
    strategies = [
        ExecutionStrategy.UNCACHED,
        ExecutionStrategy.CACHED_NO_PRUNING,
        ExecutionStrategy.CACHED_EMPTY_DELTA,
        ExecutionStrategy.CACHED_FULL_PRUNING,
    ]

    def query_worker(index: int) -> None:
        sql = PROFIT_SQL if index % 2 == 0 else HEADER_ITEM_SQL
        strategy = strategies[index % len(strategies)]
        last_count = 0
        try:
            while not stop.is_set():
                result = db.query(sql, strategy=strategy)
                total = sum(row[2] for row in result.rows)
                # Insert-only workload: COUNT(*) can never go backwards.
                if total < last_count:
                    raise AssertionError(
                        f"query thread {index} saw count drop "
                        f"{last_count} -> {total}"
                    )
                last_count = total
        except BaseException as exc:  # noqa: BLE001 - surfaced in main thread
            errors.append(exc)
            stop.set()

    def writer_worker() -> None:
        hid = 1
        try:
            while not stop.is_set():
                _insert_object(db, hid, inserted_items)
                hid += 1
                if hid % 50 == 0:
                    time.sleep(0)  # yield so query threads interleave
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)
            stop.set()

    def merge_worker() -> None:
        try:
            while not stop.wait(timeout=max(STRESS_SECONDS / 15, 0.1)):
                db.merge()
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)
            stop.set()

    threads = [
        threading.Thread(target=query_worker, args=(i,), name=f"query-{i}")
        for i in range(N_QUERY_THREADS)
    ]
    threads.append(threading.Thread(target=writer_worker, name="writer"))
    threads.append(threading.Thread(target=merge_worker, name="merger"))
    for t in threads:
        t.start()
    time.sleep(STRESS_SECONDS)
    stop.set()
    for t in threads:
        t.join(timeout=30)
    hung = [t.name for t in threads if t.is_alive()]
    assert not hung, f"threads did not finish: {hung}"
    if errors:
        raise errors[0]

    # ------------------------------------------------------------------
    # Serial reference: ground-truth aggregates from the recorded inserts.
    # ------------------------------------------------------------------
    expected = defaultdict(lambda: [0.0, 0])
    for item in inserted_items:
        bucket = expected[item["cid"]]
        bucket[0] += item["price"]
        bucket[1] += 1
    total_items = len(inserted_items)
    assert total_items >= ITEMS_PER_OBJECT  # writer made progress

    db.merge()  # drain the deltas one last time
    for strategy in strategies:
        result = db.query(HEADER_ITEM_SQL, strategy=strategy)
        observed = {row[0]: (row[1], row[2]) for row in result.rows}
        assert observed == {
            cid: (pytest.approx(v[0]), v[1]) for cid, v in expected.items()
        }, f"strategy {strategy} diverged from the serial reference"
        assert sum(row[2] for row in result.rows) == total_items  # no lost updates

    # A second, freshly built database replaying the same rows serially
    # must agree with the concurrently grown one — full-system check that
    # locking preserved every write, not just the aggregate invariants.
    reference = make_erp_db()
    for cid in range(N_CATEGORIES):
        reference.insert("category", {"cid": cid, "name": f"cat{cid}", "lang": "ENG"})
    headers_seen = set()
    for item in inserted_items:
        if item["hid"] not in headers_seen:
            headers_seen.add(item["hid"])
            reference.insert(
                "header", {"hid": item["hid"], "year": 2013 + item["hid"] % 3}
            )
        reference.insert("item", dict(item))
    reference.merge()
    ref_result = reference.query(HEADER_ITEM_SQL)
    live_result = db.query(HEADER_ITEM_SQL)
    assert sorted(live_result.rows) == sorted(ref_result.rows)
    db.close()
