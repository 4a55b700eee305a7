"""Row-at-a-time delta merge: the parity oracle of the code-space merge.

This is the merge as it ran before it moved into code space — every
surviving row decoded into a Python dict, the main rebuilt from those dicts
one value at a time, the primary-key index entered one row at a time.  It
is slow and obviously right, and it lives here so that
``repro.storage.merge._build_group`` and ``Table.rebuild_pk_index`` can be
compared against it on random histories (``test_merge_parity.py``).
Nothing under ``src/`` may import it.
"""

from typing import Dict, List, Tuple

import numpy as np

from repro.errors import StorageError
from repro.storage import ColumnFragment, Partition, RowLocator, Table
from repro.storage.dictionary import NULL_CODE, MainDictionary
from repro.storage.partition import LIVE
from repro.storage.table import PartitionGroup


def build_group_by_rows(
    table: Table, group: PartitionGroup, snapshot: int, keep_history: bool
) -> Tuple[Partition, int, int]:
    """``(new main, rows moved, rows dropped)`` of one group, off to the side."""
    rows: List[Dict[str, object]] = []
    cts: List[int] = []
    dts: List[int] = []
    moved = 0
    dropped = 0
    for partition in group.partitions():
        cts_arr = partition.cts_array()
        dts_arr = partition.dts_array()
        for row in range(partition.row_count):
            if cts_arr[row] > snapshot:
                raise StorageError(
                    f"row created by future transaction {int(cts_arr[row])} "
                    f"found during merge at snapshot {snapshot}"
                )
            invalidated = dts_arr[row] != LIVE and dts_arr[row] <= snapshot
            if invalidated and not keep_history:
                dropped += 1
                continue
            rows.append(partition.get_row(row))
            cts.append(int(cts_arr[row]))
            dts.append(int(dts_arr[row]))
            if partition.kind == "delta":
                moved += 1
    new_main = Partition(group.main.name, "main", table.schema)
    for col in table.schema:
        values = [row[col.name] for row in rows]
        dictionary = MainDictionary(values)
        fragment = ColumnFragment(col.name, dictionary)
        fragment._codes.extend(
            np.fromiter(
                (NULL_CODE if v is None else dictionary.lookup(v) for v in values),
                dtype=np.int64,
                count=len(values),
            )
        )
        new_main._columns[col.name] = fragment
    new_main._cts.extend(cts)
    new_main._dts.extend(dts)
    return new_main, moved, dropped


def pk_index_by_rows(table: Table) -> Dict[object, RowLocator]:
    """The primary-key index of ``table`` as one assignment per live row."""
    index: Dict[object, RowLocator] = {}
    pk_col = table.schema.primary_key
    if pk_col is None:
        return index
    for partition in table.partitions():
        dts = partition.dts_array()
        fragment = partition.column(pk_col)
        for row in range(partition.row_count):
            if dts[row] == LIVE:
                index[fragment.value_at(row)] = RowLocator(partition.name, row)
    return index
