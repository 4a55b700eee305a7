"""CSV import/export for tables.

Loading real data into the engine (and getting results back out) is the
first thing a downstream user needs.  Export writes the *visible* rows at
the current snapshot; import parses values according to the table schema
and routes every row through the normal insert path, so matching-dependency
tid columns are stamped and referential integrity is checked exactly as for
programmatic inserts.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import List, Optional

from ..errors import SchemaError
from .schema import SqlType


def export_csv(db, table_name: str, path, include_tid_columns: bool = False) -> int:
    """Write the table's visible rows to ``path``; returns the row count.

    NULL is written as the empty string.  MD tid columns are internal
    bookkeeping and are excluded unless explicitly requested.
    """
    table = db.table(table_name)
    snapshot = db.transactions.global_snapshot()
    if include_tid_columns:
        columns = table.schema.column_names
    else:
        columns = table.schema.business_column_names()
    written = 0
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for partition in table.partitions():
            fragments = [partition.column(name) for name in columns]
            for row_idx in partition.visible_rows(snapshot):
                values = [fragment.value_at(int(row_idx)) for fragment in fragments]
                writer.writerow(["" if v is None else v for v in values])
                written += 1
    return written


def import_csv(db, table_name: str, path, batch_size: int = 1000) -> int:
    """Load rows from a CSV file (header row required); returns the count.

    Values are parsed by the schema's column types; the empty string is
    NULL.  Every ``batch_size`` rows are one :meth:`Database.insert_many`
    batch and transaction, so a large import does not create one
    transaction per row, and a refused batch inserts none of its rows.
    Unknown header columns raise ``SchemaError`` before anything is
    inserted.
    """
    table = db.table(table_name)
    schema = table.schema
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"CSV file {path} is empty (missing header)") from None
        unknown = [name for name in header if not schema.has_column(name)]
        if unknown:
            raise SchemaError(f"CSV header has unknown columns: {unknown}")
        parsers = [_parser_for(schema.column(name).sql_type) for name in header]
        count = 0
        chunk = []
        for record in reader:
            if len(record) != len(header):
                raise SchemaError(
                    f"CSV row {count + len(chunk) + 2} has {len(record)} fields, "
                    f"expected {len(header)}"
                )
            fields = zip(header, parsers, record)
            chunk.append({name: parser(value) for name, parser, value in fields})
            if len(chunk) == batch_size:
                count += db.insert_many(table_name, chunk)
                chunk = []
        count += db.insert_many(table_name, chunk)
    return count


def _parser_for(sql_type: SqlType):
    if sql_type is SqlType.INT:
        return lambda text: int(text) if text != "" else None
    if sql_type is SqlType.FLOAT:
        return lambda text: float(text) if text != "" else None
    # TEXT and DATE stay strings; empty string means NULL.
    return lambda text: text if text != "" else None
