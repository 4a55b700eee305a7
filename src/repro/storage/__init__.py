"""Columnar delta-main storage substrate.

Implements the storage model the aggregate cache relies on (Section 2 of
the paper): dictionary-encoded column fragments, main/delta partitions with
MVCC visibility stamps, packed visibility bit vectors, the delta-merge
operation, hot/cold aging, and the table catalog.
"""

from .aging import (
    COLD,
    HOT,
    ConsistentAging,
    ThresholdAging,
    aging_rule_from_spec,
    aging_rule_spec,
    ratio_aging,
    threshold_aging,
)
from .bitvector import BitVector
from .catalog import Catalog
from .column import ColumnFragment
from .dictionary import NULL_CODE, DeltaDictionary, MainDictionary
from .merge import MergeEvent, MergeListener, MergeStats, merge_table
from .partition import LIVE, ColumnStats, Partition
from .schema import ColumnDef, Schema, SqlType, tid_column
from .csvio import export_csv, import_csv
from .snapshot import load_database, save_database
from .table import PartitionGroup, RowLocator, Table
from .vector import IntVector, ObjectVector

__all__ = [
    "BitVector",
    "Catalog",
    "COLD",
    "ColumnDef",
    "ColumnFragment",
    "ColumnStats",
    "ConsistentAging",
    "DeltaDictionary",
    "HOT",
    "IntVector",
    "LIVE",
    "MainDictionary",
    "MergeEvent",
    "MergeListener",
    "MergeStats",
    "NULL_CODE",
    "ObjectVector",
    "Partition",
    "PartitionGroup",
    "RowLocator",
    "Schema",
    "SqlType",
    "Table",
    "ThresholdAging",
    "aging_rule_from_spec",
    "aging_rule_spec",
    "export_csv",
    "import_csv",
    "load_database",
    "merge_table",
    "save_database",
    "ratio_aging",
    "threshold_aging",
    "tid_column",
]
