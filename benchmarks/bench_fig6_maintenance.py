"""Fig. 6 — mixed-workload performance: aggregate cache vs classical
eager/lazy incremental view maintenance, across insert ratios.

Paper result: with growing insert percentage the maintenance overhead of
eager and lazy materialized views grows steeply, while the aggregate cache
(maintained only at merge time, compensated at read time) stays nearly
constant; above roughly 15 % inserts the aggregate cache wins.

Setup mirrors Section 6.1: single-table aggregate statements, a mixed
stream of inserts and reads, no delta merge during the run.
"""

import time

import pytest

from repro import Database
from repro.workloads import (
    AggregateCacheSystem,
    EagerViewSystem,
    LazyViewSystem,
    run_mixed_workload,
)

SQL = (
    "SELECT CategoryID, SUM(Price) AS Revenue, COUNT(*) AS N "
    "FROM Item GROUP BY CategoryID"
)
INITIAL_ROWS = 3000
OPERATIONS = 200
N_CATEGORIES = 20
INSERT_RATIOS = [0.0, 0.25, 0.50, 0.75, 1.0]
SYSTEMS = ["eager_view", "lazy_view", "aggregate_cache"]


def make_database() -> Database:
    db = Database()
    db.create_table(
        "Item",
        [("ItemID", "INT"), ("CategoryID", "INT"), ("Price", "FLOAT")],
        primary_key="ItemID",
    )
    for item_id in range(INITIAL_ROWS):
        db.insert(
            "Item",
            {
                "ItemID": item_id,
                "CategoryID": item_id % N_CATEGORIES,
                "Price": float(item_id % 50) + 0.5,
            },
        )
    db.merge()
    return db


ROWS_PER_INSERT_OP = 10  # one enterprise insert transaction = one business object


def row_stream(start: int):
    """Yields one business object's worth of rows per insert operation."""
    item_id = start
    while True:
        batch = []
        for _ in range(ROWS_PER_INSERT_OP):
            batch.append(
                {
                    "ItemID": item_id,
                    "CategoryID": item_id % N_CATEGORIES,
                    "Price": float(item_id % 50) + 0.5,
                }
            )
            item_id += 1
        yield ("Item", batch)


def make_system(name: str, db: Database):
    if name == "eager_view":
        return EagerViewSystem(db, SQL)
    if name == "lazy_view":
        return LazyViewSystem(db, SQL)
    return AggregateCacheSystem(db, SQL)


def run_workload(system, ratio: float) -> None:
    """One full mixed-workload run on a prepared system."""
    run_mixed_workload(
        system, row_stream(INITIAL_ROWS), OPERATIONS, insert_ratio=ratio, seed=13
    )
    # Every system must serve one final consistent read, so lazy maintenance
    # cannot hide its deferred bill behind a write-only run.
    system.read()


@pytest.mark.parametrize("ratio", INSERT_RATIOS, ids=lambda r: f"ins{int(r * 100):03d}")
@pytest.mark.parametrize("system", SYSTEMS)
def test_fig6_mixed_workload(fastest_round, figures, system, ratio):
    def setup():
        db = make_database()
        # The cache/view is warmed before the measured run, matching the
        # paper's steady-state methodology.
        prepared = make_system(system, db)
        prepared.read()
        return (prepared, ratio), {}

    elapsed = fastest_round(run_workload, setup=setup)
    report = figures.report(
        "Fig. 6",
        "mixed workload: view maintenance vs aggregate cache",
        "eager/lazy grow with insert ratio; aggregate cache ~constant, "
        "superior above ~15% inserts",
        ["system", "insert_ratio", "seconds"],
    )
    report.add_row(system, ratio, elapsed)
