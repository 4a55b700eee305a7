"""repro — reproduction of "Using Object-Awareness to Optimize Join
Processing in the SAP HANA Aggregate Cache" (EDBT 2015).

The package implements, from scratch, a columnar in-memory database with the
delta-main architecture, an aggregate cache with main/delta compensation,
and the paper's object-aware join optimizations (matching dependencies,
dynamic join pruning, join predicate pushdown, hot/cold multi-partition
pruning), plus the workloads and benchmark harnesses that regenerate every
figure of the paper's evaluation.

Most applications only need :class:`Database` and
:class:`ExecutionStrategy`; see the README quickstart.
"""

from .core import (
    AlwaysAdmit,
    CacheConfig,
    ExecutionStrategy,
    LruEviction,
    MaintenanceMode,
    MatchingDependency,
    ProfitAdmission,
    ProfitEviction,
)
from .database import Database
from .errors import (
    CacheError,
    CatalogError,
    DurabilityError,
    FaultError,
    IntegrityError,
    QueryAborted,
    QueryCancelled,
    QueryError,
    QueryTimeout,
    ReproError,
    SchemaError,
    SqlSyntaxError,
    StorageError,
    TransactionError,
    UnsupportedQueryError,
    WriteRejectedError,
)
from .concurrency import ReadWriteLock
from .governor import (
    CancelToken,
    Deadline,
    GovernorConfig,
    HealthReport,
    ResourceGovernor,
)
from .obs import EngineMetrics, MetricsRegistry, QueryTrace, Span, parse_prometheus
from .query import AggregateQuery, QueryResult, parse_sql
from .reliability import FaultInjector, SimulatedCrash
from .storage import ColumnDef, Schema, SqlType, ratio_aging, threshold_aging, tid_column

__version__ = "1.0.0"

__all__ = [
    "AggregateQuery",
    "AlwaysAdmit",
    "CacheConfig",
    "CacheError",
    "CancelToken",
    "CatalogError",
    "ColumnDef",
    "Database",
    "Deadline",
    "DurabilityError",
    "EngineMetrics",
    "ExecutionStrategy",
    "FaultError",
    "FaultInjector",
    "GovernorConfig",
    "HealthReport",
    "IntegrityError",
    "LruEviction",
    "MaintenanceMode",
    "MatchingDependency",
    "MetricsRegistry",
    "ProfitAdmission",
    "ProfitEviction",
    "QueryAborted",
    "QueryCancelled",
    "QueryError",
    "QueryResult",
    "QueryTimeout",
    "QueryTrace",
    "ReadWriteLock",
    "ReproError",
    "ResourceGovernor",
    "Schema",
    "SchemaError",
    "SimulatedCrash",
    "Span",
    "SqlSyntaxError",
    "SqlType",
    "StorageError",
    "TransactionError",
    "UnsupportedQueryError",
    "WriteRejectedError",
    "parse_prometheus",
    "parse_sql",
    "ratio_aging",
    "threshold_aging",
    "tid_column",
]
