"""The kill-point property: crash anywhere, reopen, observe a consistent state.

For every registered fault point a crash is injected into a mixed workload
(inserts, an update, a delete, merges, a cached query).  Reopening the
database directory must yield query results identical to an uncrashed
reference run of the workload prefix — either up to and including the step
that crashed, or up to the step before it (a crash may legitimately lose
the in-flight step, never more, never a torn half-step).  Delta merges
never change query results, so the two references coincide whenever the
ambiguity actually matters.
"""

import pytest

from repro import Database, ExecutionStrategy
from repro.reliability.faults import KNOWN_FAULT_POINTS, SimulatedCrash

from ..conftest import PROFIT_SQL, make_erp_db


def _categories(db):
    db.insert_many(
        "category",
        [
            {"cid": 0, "name": "cat0", "lang": "ENG"},
            {"cid": 1, "name": "cat1", "lang": "ENG"},
        ],
    )


STEPS = [
    _categories,
    lambda db: db.insert_business_object(
        "header",
        {"hid": 1, "year": 2013},
        "item",
        [
            {"iid": 10, "hid": 1, "cid": 0, "price": 5.0},
            {"iid": 11, "hid": 1, "cid": 1, "price": 7.5},
        ],
    ),
    lambda db: db.insert_business_object(
        "header",
        {"hid": 2, "year": 2014},
        "item",
        [{"iid": 20, "hid": 2, "cid": 1, "price": 2.0}],
    ),
    lambda db: db.query(PROFIT_SQL, strategy=ExecutionStrategy.CACHED_FULL_PRUNING),
    lambda db: db.update("item", 10, {"price": 6.0}),
    lambda db: db.merge(),
    lambda db: db.insert_business_object(
        "header",
        {"hid": 3, "year": 2013},
        "item",
        [{"iid": 30, "hid": 3, "cid": 0, "price": 9.0}],
    ),
    lambda db: db.delete("item", 11),
    lambda db: db.merge(),
]


def reference(n_steps: int):
    """Query result of an uncrashed in-memory run of the first ``n_steps``."""
    db = make_erp_db()
    for step in STEPS[:n_steps]:
        step(db)
    return db.query(PROFIT_SQL)


def run_until_crash(db) -> int:
    """Run the workload; returns the 1-based step the crash hit (0 = none)."""
    for index, step in enumerate(STEPS):
        try:
            step(db)
        except SimulatedCrash:
            return index + 1
    return 0


def crashable_points():
    return sorted(KNOWN_FAULT_POINTS)


@pytest.mark.parametrize("point", crashable_points())
def test_crash_at_every_fault_point_recovers_consistently(tmp_path, point):
    db = make_erp_db(path=tmp_path / "db")
    db.faults.arm(point, mode="crash")
    crashed_at = run_until_crash(db)
    assert crashed_at > 0, f"fault point {point!r} never fired during the workload"
    db.close()  # abandon the killed instance

    recovered = Database.open(tmp_path / "db")
    result = recovered.query(PROFIT_SQL)
    acceptable = [reference(crashed_at - 1), reference(crashed_at)]
    assert result in acceptable, (
        f"state recovered after a crash at {point!r} (step {crashed_at}) "
        f"matches neither the pre-step nor the post-step reference"
    )
    if point == "wal.append":
        # The crash emulated a torn write: half a record reached the file.
        assert recovered.recovery_stats.torn_records_dropped == 1

    # The recovered database is fully operational.
    recovered.insert("header", {"hid": 99, "year": 2015})
    assert recovered.table("header").get_row(99) is not None
    cached = recovered.query(
        PROFIT_SQL, strategy=ExecutionStrategy.CACHED_FULL_PRUNING
    )
    assert cached in acceptable  # the extra header has no items

    stats = recovered.statistics()
    assert stats.durability is not None
    assert stats.durability.recovered
    assert "durability:" in stats.render()


@pytest.mark.parametrize("after", [3, 5, 8])
def test_late_torn_writes_recover_consistently(tmp_path, after):
    """Crash deeper into the workload: the Nth WAL append tears instead of
    the first (``after=5`` lands between two tables of one merge call)."""
    db = make_erp_db(path=tmp_path / "db")
    db.faults.arm("wal.append", mode="crash", after=after)
    crashed_at = run_until_crash(db)
    assert crashed_at > 0
    db.close()

    recovered = Database.open(tmp_path / "db")
    assert recovered.recovery_stats.torn_records_dropped == 1
    result = recovered.query(PROFIT_SQL)
    assert result in [reference(crashed_at - 1), reference(crashed_at)]


def test_uncrashed_workload_counts_every_fault_point(tmp_path):
    """Every registered fault point is actually exercised by the workload —
    otherwise the kill-point sweep silently proves nothing for it."""
    db = make_erp_db(path=tmp_path / "db")
    assert run_until_crash(db) == 0
    for point in crashable_points():
        assert db.faults.hits.get(point, 0) > 0, f"{point!r} never fired"
    assert db.query(PROFIT_SQL) == reference(len(STEPS))
