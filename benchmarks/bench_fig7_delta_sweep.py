"""Fig. 7 — join performance of the four execution strategies as the Item
delta grows (three-table join: Header x Item x ProductCategory).

Paper setup: Item main 330 M rows (here scaled to 10 K), Item delta swept
3 K - 3 M (here 100 - 3000), Header delta one tenth of the Item delta, the
ProductCategory delta empty.  Paper results: for small deltas the cached
aggregate answers an order of magnitude faster than the uncached query;
empty-delta pruning gains ~10 %; full dynamic pruning is on average 4x
faster than the cached query without pruning; all strategies degrade as the
delta grows (the new records must be aggregated regardless).
"""

import pytest

from repro import ExecutionStrategy
from repro.bench import STRATEGY_LABELS
from repro.database import Database
from repro.workloads import ErpConfig, ErpWorkload

MAIN_OBJECTS = 1000  # x10 items/object -> 10 K item rows in the main
DELTA_ITEM_SIZES = [100, 300, 1000, 3000]
STRATEGIES = [
    ExecutionStrategy.UNCACHED,
    ExecutionStrategy.CACHED_NO_PRUNING,
    ExecutionStrategy.CACHED_EMPTY_DELTA,
    ExecutionStrategy.CACHED_FULL_PRUNING,
]

_STATE = {}


def get_environment():
    """Build the scaled ERP dataset once; the delta grows across cells."""
    if "db" not in _STATE:
        db = Database()
        workload = ErpWorkload(db, ErpConfig(seed=21, n_categories=25))
        workload.insert_objects(MAIN_OBJECTS, merge_after=True)
        _STATE["db"] = db
        _STATE["workload"] = workload
        _STATE["query"] = db.parse(workload.profit_and_loss_sql(year=None))
    return _STATE["db"], _STATE["workload"], _STATE["query"]


def ensure_delta_items(db, workload, target: int) -> None:
    delta_rows = db.table("Item").partition("delta").row_count
    while delta_rows < target:
        workload.insert_objects(
            max(1, (target - delta_rows) // workload.config.items_per_header)
        )
        delta_rows = db.table("Item").partition("delta").row_count


CELLS = [
    (size, strategy) for size in DELTA_ITEM_SIZES for strategy in STRATEGIES
]


@pytest.mark.parametrize(
    "delta_size,strategy",
    CELLS,
    ids=[f"delta{size}-{s.value}" for size, s in CELLS],
)
def test_fig7_join_strategies(fastest_round, figures, delta_size, strategy):
    db, workload, query = get_environment()
    ensure_delta_items(db, workload, delta_size)
    db.query(query, strategy=strategy)  # warm the cache entry
    elapsed = fastest_round(lambda: db.query(query, strategy=strategy))
    report = figures.report(
        "Fig. 7",
        "3-way join vs Item-delta size, four strategies",
        "cache ~10x faster than uncached at small deltas; full pruning ~4x "
        "faster than cached-without-pruning; empty-delta pruning ~10% gain",
        ["delta_items", "strategy", "seconds"],
    )
    report.add_row(delta_size, STRATEGY_LABELS[strategy], elapsed)
