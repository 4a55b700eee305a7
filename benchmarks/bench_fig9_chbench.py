"""Fig. 9 — the four CH-benCHmark queries (Q3, Q5, Q9, Q10) under the four
execution strategies.

Paper setup: CH-benCHmark at scale factor 200 (60 M orderline rows; here a
laptop-scale generator with the same shape), with 5 % of the rows of
orders / neworder / orderline / stock placed in the delta partitions.
Paper results: for aggregate queries joining more than three tables the
cache without pruning is only marginally better than no cache at all
(2^t - 1 compensation subjoins); empty-delta pruning helps a little; full
dynamic pruning accelerates execution by up to an order of magnitude.
"""

import pytest

from repro import Database, ExecutionStrategy
from repro.bench import STRATEGY_LABELS
from repro.workloads import CH_QUERIES, ChBenchmark, ChConfig

STRATEGIES = [
    ExecutionStrategy.UNCACHED,
    ExecutionStrategy.CACHED_NO_PRUNING,
    ExecutionStrategy.CACHED_EMPTY_DELTA,
    ExecutionStrategy.CACHED_FULL_PRUNING,
]

_STATE = {}


def get_ch_database() -> Database:
    if "db" not in _STATE:
        db = Database()
        ChBenchmark(
            db,
            ChConfig(
                warehouses=2,
                districts_per_warehouse=4,
                customers_per_district=25,
                orders_per_district=60,
                orderlines_per_order=8,
                items=300,
                suppliers=20,
                delta_fraction=0.05,
                seed=77,
            ),
        ).load()
        _STATE["db"] = db
        _STATE["queries"] = {name: db.parse(sql) for name, sql in CH_QUERIES.items()}
    return _STATE["db"]


CELLS = [(name, strategy) for name in CH_QUERIES for strategy in STRATEGIES]


@pytest.mark.parametrize(
    "query_name,strategy",
    CELLS,
    ids=[f"{name}-{s.value}" for name, s in CELLS],
)
def test_fig9_chbench_queries(fastest_round, figures, query_name, strategy):
    db = get_ch_database()
    query = _STATE["queries"][query_name]
    db.query(query, strategy=strategy)  # warm cache entries
    elapsed = fastest_round(lambda: db.query(query, strategy=strategy))
    report = figures.report(
        "Fig. 9",
        "CH-benCHmark Q3/Q5/Q9/Q10 under the four strategies",
        "for joins of >3 tables the unpruned cache is only marginally "
        "better than uncached; full pruning up to an order of magnitude "
        "faster",
        ["query", "strategy", "seconds"],
    )
    report.add_row(query_name, STRATEGY_LABELS[strategy], elapsed)
