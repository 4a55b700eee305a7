"""Fig. 11 — join strategies with and without hot/cold multi-partitioning.

Paper setup: Header and Item partitioned by age into hot and cold groups at
a 1:3 ratio, with consistent aging declared; aggregate join queries of
varying selectivity (number of aggregated records).  Paper results: the
uncached query is slightly faster when partitioned (reduced scan effort);
the cached query *without* pruning is slower when partitioned (more
compensation subjoins: every combination of hot/cold main/delta); full
pruning — logical across temperatures plus dynamic tid ranges — is superior
in both layouts, up to an order of magnitude.
"""

import pytest

from repro import Database, ExecutionStrategy
from repro.bench import STRATEGY_LABELS
from repro.storage import threshold_aging
from repro.workloads import ErpConfig, ErpWorkload

MAIN_OBJECTS = 1200
DELTA_OBJECTS = 30
# Vary aggregated records through an Amount predicate (Amount ~ U[1, 20]).
SELECTIVITIES = [2, 8, 20]
STRATEGIES = [
    ExecutionStrategy.UNCACHED,
    ExecutionStrategy.CACHED_NO_PRUNING,
    ExecutionStrategy.CACHED_FULL_PRUNING,
]

_STATE = {}


def build(partitioned: bool) -> Database:
    db = Database()
    config = ErpConfig(seed=42, n_categories=20, years=(2012, 2013, 2013, 2014))
    if partitioned:
        workload = ErpWorkload(
            db,
            config,
            header_aging=threshold_aging("FiscalYear", 2014),
            item_aging=threshold_aging("FiscalYear", 2014),
        )
    else:
        workload = ErpWorkload(db, config)
    workload.insert_objects(MAIN_OBJECTS, merge_after=True)
    workload.insert_objects(DELTA_OBJECTS, year=2014)
    # A few corrections of old (cold) items: their new versions land in the
    # cold delta ("the cold delta contains only the updated tuples from the
    # cold main"), so cross-temperature compensation subjoins are non-empty.
    for item_id in range(1, 400, 8):
        db.update("Item", item_id, {"Price": 1.23})
    return db


def get_db(partitioned: bool) -> Database:
    key = "aged" if partitioned else "plain"
    if key not in _STATE:
        _STATE[key] = build(partitioned)
    return _STATE[key]


def query_sql(max_amount: int) -> str:
    return (
        "SELECT I.CategoryID AS Category, SUM(I.Price) AS Profit, COUNT(*) AS N "
        "FROM Header AS H, Item AS I "
        f"WHERE I.HeaderID = H.HeaderID AND I.Amount <= {max_amount} "
        "GROUP BY I.CategoryID"
    )


CELLS = [
    (partitioned, k, strategy)
    for partitioned in (False, True)
    for k in SELECTIVITIES
    for strategy in STRATEGIES
]


@pytest.mark.parametrize(
    "partitioned,max_amount,strategy",
    CELLS,
    ids=[
        f"{'hotcold' if p else 'plain'}-amount{k}-{s.value}" for p, k, s in CELLS
    ],
)
def test_fig11_hot_cold(fastest_round, figures, partitioned, max_amount, strategy):
    db = get_db(partitioned)
    query = db.parse(query_sql(max_amount))
    db.query(query, strategy=strategy)  # warm entries
    elapsed = fastest_round(lambda: db.query(query, strategy=strategy))
    aggregated = sum(
        db.query(query, strategy=ExecutionStrategy.UNCACHED).column_values("N")
    )
    report = figures.report(
        "Fig. 11",
        "strategies with vs without hot/cold partitioning",
        "uncached slightly faster partitioned; cached-without-pruning slower "
        "partitioned (extra subjoins); full pruning superior in both, up to "
        "an order of magnitude",
        ["layout", "aggregated_records", "strategy", "seconds"],
    )
    report.add_row(
        "hot/cold" if partitioned else "flat",
        aggregated,
        STRATEGY_LABELS[strategy],
        elapsed,
    )
