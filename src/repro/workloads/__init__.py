"""Workload generators and drivers for the paper's experiments."""

from .chbench import ChBenchmark, ChConfig
from .chbench_transactions import ChTransactionDriver, TransactionCounts
from .chbench_queries import CH_QUERIES, CH_QUERY_TABLES, Q3, Q5, Q9, Q10
from .erp import ErpConfig, ErpWorkload
from .mixed import (
    AggregateCacheSystem,
    EagerViewSystem,
    LazyViewSystem,
    MixedWorkloadResult,
    UncachedSystem,
    run_mixed_workload,
)
from .rng import iso_date, make_rng, tpcc_last_name

__all__ = [
    "AggregateCacheSystem",
    "CH_QUERIES",
    "CH_QUERY_TABLES",
    "ChBenchmark",
    "ChConfig",
    "ChTransactionDriver",
    "TransactionCounts",
    "EagerViewSystem",
    "ErpConfig",
    "ErpWorkload",
    "LazyViewSystem",
    "MixedWorkloadResult",
    "Q10",
    "Q3",
    "Q5",
    "Q9",
    "UncachedSystem",
    "iso_date",
    "make_rng",
    "run_mixed_workload",
    "tpcc_last_name",
]
