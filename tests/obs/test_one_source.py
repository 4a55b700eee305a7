"""Every lifetime count has one source: the metrics registry.

One scripted history moves each cache and governor counter; afterwards
``counters_snapshot()``, ``statistics().cache`` and ``health()`` must equal
the matching ``metrics_snapshot()`` samples.
"""

import pytest

from repro import (
    CacheConfig,
    CancelToken,
    DurabilityError,
    ExecutionStrategy,
    FaultInjector,
    QueryCancelled,
    QueryTimeout,
    WriteRejectedError,
)

from ..conftest import HEADER_ITEM_SQL, PROFIT_SQL, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING

YEAR_SQL = (
    "SELECT h.year AS year, SUM(i.price) AS profit, COUNT(*) AS n "
    "FROM header h, item i WHERE h.hid = i.hid GROUP BY h.year"
)


def _labelled(metrics, name):
    """``{label value: sample}`` of a one-label counter family."""
    prefix = name + "{"
    return {
        key[len(prefix):].split('"')[1]: value
        for key, value in metrics.items()
        if key.startswith(prefix)
    }


@pytest.fixture
def history(tmp_path):
    """A durable database after a history that moves every counter."""
    faults = FaultInjector()
    db = make_erp_db(
        path=tmp_path / "db",
        fault_injector=faults,
        cache_config=CacheConfig(max_entries=2),
    )
    load_erp(db, n_headers=6, merge=True)
    db.query(PROFIT_SQL, strategy=FULL)  # miss; its first read steps from birth
    db.query(PROFIT_SQL, strategy=FULL)  # pure hit: empty deltas, same answer
    assert db.last_report.result_reused
    load_erp(db, n_headers=2, start_hid=100, merge=False)
    db.query(PROFIT_SQL, strategy=FULL)  # hit; new deltas: memo from birth
    load_erp(db, n_headers=1, start_hid=150, merge=False)
    db.query(PROFIT_SQL, strategy=FULL)  # hit, incremental memo step
    assert db.last_report.delta_memo_mode == "incremental"
    load_erp(db, n_headers=1, start_hid=200, merge=False)
    assert db.refresh_cache() == {"advance": 1, "rebuild": 0}
    db.merge()  # maintains the entry; it keeps no memo past the merge
    load_erp(db, n_headers=2, start_hid=300, merge=False)
    assert db.refresh_cache() == {"advance": 0, "rebuild": 1}
    db.query(PROFIT_SQL, strategy=FULL, as_of=1)  # direct scan: memo bypass
    assert db.last_report.delta_memo_mode == "bypass"
    (entry,) = db.cache.entries()
    entry.matches_current_partitions = lambda: False  # as if merged unmaintained
    db.query(PROFIT_SQL, strategy=FULL)  # recomputed
    assert db.last_report.entries_recomputed == 1
    db.query(HEADER_ITEM_SQL, strategy=FULL)
    db.query(YEAR_SQL, strategy=FULL)  # a third entry: max_entries evicts
    assert db.cache.entry_count() == 2

    with pytest.raises(QueryTimeout):
        db.query(PROFIT_SQL, strategy=FULL, timeout_ms=0.0)
    token = CancelToken()
    token.cancel("stop")
    with pytest.raises(QueryCancelled):
        db.query(PROFIT_SQL, strategy=FULL, cancel=token)
    faults.arm("cache.compensation", mode="raise", times=1)
    assert db.query(HEADER_ITEM_SQL, strategy=FULL).report.fallback_uncached
    faults.arm("wal.append", mode="io_error", times=1)
    db.insert("category", {"cid": 7, "name": "retried", "lang": "ENG"})
    faults.arm("wal.append", mode="io_error", times=None)
    with pytest.raises(DurabilityError):
        db.insert("category", {"cid": 8, "name": "queued", "lang": "ENG"})
    with pytest.raises(WriteRejectedError):
        db.insert("category", {"cid": 9, "name": "rejected", "lang": "ENG"})
    faults.disarm("wal.append")
    db.insert("category", {"cid": 9, "name": "drains", "lang": "ENG"})
    assert db.cache.shed_to_budget(0)["entry"] > 0
    yield db
    db.close()


def test_cache_counters_are_the_registry(history):
    counters = history.cache.counters_snapshot()
    cache = history.statistics().cache
    metrics = history.metrics_snapshot()
    lookups = _labelled(metrics, "repro_cache_lookups_total")
    memo = _labelled(metrics, "repro_delta_memo_lookups_total")
    refresh = _labelled(metrics, "repro_cache_refresh_total")
    expected = {
        "hits": lookups["hit"],
        "misses": lookups["miss"] + lookups["recomputed"],
        "evictions": metrics["repro_cache_evictions_total"],
        "maintenance_runs": metrics["repro_cache_maintenance_runs_total"],
        "memo_hits": memo["hit"],
        "memo_misses": memo["miss"],
        "memo_bypass": memo["bypass"],
        "refresh_advances": refresh["advance"],
        "refresh_rebuilds": refresh["rebuild"],
        "result_reuses": metrics["repro_cache_result_reuse_total"],
    }
    assert all(value > 0 for value in expected.values()), expected
    assert {name: counters[name] for name in expected} == expected
    assert {name: getattr(cache, name) for name in expected} == expected
    assert lookups["recomputed"] > 0


def test_health_is_the_registry(history):
    health = history.health()
    metrics = history.metrics_snapshot()
    expected = {
        "timeouts": metrics["repro_governor_timeouts_total"],
        "cancellations": metrics["repro_governor_cancellations_total"],
        "writes_rejected": metrics["repro_governor_writes_rejected_total"],
        "degraded_queries": metrics[
            'repro_governor_degraded_queries_total{reason="fallback"}'
        ],
        "shed_bytes": metrics["repro_governor_shed_bytes_total"],
    }
    assert all(value > 0 for value in expected.values()), expected
    assert {name: getattr(health, name) for name in expected} == expected
    assert health.retries == _labelled(metrics, "repro_governor_retries_total")
    assert health.retries["wal.append"] > 0
    assert health.sheds == _labelled(metrics, "repro_governor_sheds_total")
    assert health.sheds["entry"] > 0
    assert health.modes == []
