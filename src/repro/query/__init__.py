"""Query model, SQL parser, and partition-aware execution."""

from .aggregates import AggFunc, AggregateSpec, GroupedAggregates
from .executor import (
    ComboSpec,
    ExecutionStats,
    QueryExecutor,
    all_partition_combos,
    main_only_combos,
)
from .expr import (
    And,
    Arith,
    Cmp,
    Col,
    Expr,
    InList,
    IsNull,
    Lit,
    Not,
    Or,
    conjuncts_of,
    single_alias_of,
)
from .query import AggregateQuery, JoinEdge, OrderItem, TableRef
from .result import QueryResult
from .sql import clear_parse_cache, parse_cache_stats, parse_sql

__all__ = [
    "AggFunc",
    "AggregateQuery",
    "AggregateSpec",
    "And",
    "Arith",
    "Cmp",
    "Col",
    "ComboSpec",
    "ExecutionStats",
    "Expr",
    "GroupedAggregates",
    "InList",
    "IsNull",
    "JoinEdge",
    "Lit",
    "Not",
    "Or",
    "OrderItem",
    "QueryExecutor",
    "QueryResult",
    "TableRef",
    "all_partition_combos",
    "clear_parse_cache",
    "conjuncts_of",
    "main_only_combos",
    "parse_cache_stats",
    "parse_sql",
    "single_alias_of",
]
