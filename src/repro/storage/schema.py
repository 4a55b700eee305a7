"""Table schemas: column definitions, SQL-ish types, and key declarations.

A schema describes the logical shape of a table independently of its
physical partitioning.  The object-aware extensions of the paper add plain
``tid`` columns to schemas (Section 5); they are declared here like any other
column and flagged with ``is_tid`` so memory-overhead experiments (Section
6.2) can report their cost separately.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SchemaError

#: Columns past this position share the last usable bit of a signed 64-bit
#: change mask (see :meth:`Schema.change_bit`).
_CHANGE_BITS = 62


class SqlType(enum.Enum):
    """Supported column types.

    ``DATE`` values are stored as ISO ``YYYY-MM-DD`` strings, which compare
    correctly lexicographically, keeping the dictionary code paths uniform.
    """

    INT = "INT"
    FLOAT = "FLOAT"
    TEXT = "TEXT"
    DATE = "DATE"

    def validate(self, value) -> None:
        """Raise ``SchemaError`` if ``value`` is not acceptable for this type."""
        if value is None:
            return
        if self is SqlType.INT and not isinstance(value, (int,)) or isinstance(value, bool):
            if not (isinstance(value, int) and not isinstance(value, bool)):
                raise SchemaError(f"expected INT, got {value!r}")
        elif self is SqlType.FLOAT and not isinstance(value, (int, float)):
            raise SchemaError(f"expected FLOAT, got {value!r}")
        elif self is SqlType.TEXT and not isinstance(value, str):
            raise SchemaError(f"expected TEXT, got {value!r}")
        elif self is SqlType.DATE and not isinstance(value, str):
            raise SchemaError(f"expected DATE (ISO string), got {value!r}")

    def coerce(self, value):
        """Normalize a validated value to its canonical Python representation."""
        if value is None:
            return None
        if self is SqlType.FLOAT:
            return float(value)
        return value


@dataclass(frozen=True)
class ColumnDef:
    """Definition of one table column.

    ``is_tid`` marks temporal transaction-id columns added for matching
    dependencies; they carry no business meaning and are excluded from
    ``SELECT *``-style introspection helpers that ask for business columns.
    """

    name: str
    sql_type: SqlType
    nullable: bool = True
    is_tid: bool = False

    def __post_init__(self):
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid column name: {self.name!r}")


class Schema:
    """Ordered collection of column definitions plus key metadata.

    Parameters
    ----------
    columns:
        The ordered column definitions.
    primary_key:
        Optional name of the single-column primary key.  The engine keeps a
        primary-key index per table for referential-integrity checks and for
        the matching-dependency ``tid`` lookup at insert time (Section 6.3).
    """

    def __init__(self, columns: Sequence[ColumnDef], primary_key: Optional[str] = None):
        self._columns: List[ColumnDef] = list(columns)
        names = [c.name for c in self._columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        self._by_name: Dict[str, ColumnDef] = {c.name: c for c in self._columns}
        self._change_bits: Dict[str, int] = {
            name: 1 << min(position, _CHANGE_BITS)
            for position, name in enumerate(names)
        }
        if primary_key is not None and primary_key not in self._by_name:
            raise SchemaError(f"primary key column {primary_key!r} not in schema")
        self.primary_key = primary_key

    # ------------------------------------------------------------------
    @property
    def columns(self) -> Tuple[ColumnDef, ...]:
        """The ordered column definitions."""
        return tuple(self._columns)

    @property
    def column_names(self) -> List[str]:
        """Column names in schema order."""
        return [c.name for c in self._columns]

    def business_column_names(self) -> List[str]:
        """Column names excluding matching-dependency ``tid`` columns."""
        return [c.name for c in self._columns if not c.is_tid]

    def tid_column_names(self) -> List[str]:
        """Names of the matching-dependency ``tid`` columns."""
        return [c.name for c in self._columns if c.is_tid]

    def has_column(self, name: str) -> bool:
        """True if the schema defines the column."""
        return name in self._by_name

    def column(self, name: str) -> ColumnDef:
        """Definition of one column (SchemaError if unknown)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    def change_bit(self, name: str) -> int:
        """The bit standing for ``name`` in an update's change mask (the
        lineage log of :class:`~repro.storage.partition.Partition`): one bit
        per column by schema position, and one shared, saturating bit for
        every column past the 62nd — set, it reads "anything may have
        changed" (:meth:`wide_change_bit`)."""
        try:
            return self._change_bits[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}") from None

    def wide_change_bit(self) -> int:
        """The saturating bit if this schema has columns sharing it, else 0;
        every read mask includes it, so a change to a column that has no bit
        of its own is never taken for silent."""
        return 1 << _CHANGE_BITS if len(self._columns) > _CHANGE_BITS else 0

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self):
        return iter(self._columns)

    # ------------------------------------------------------------------
    def validate_row(self, values: Dict[str, object]) -> Dict[str, object]:
        """Validate and normalize a row dict; missing columns become NULL.

        Returns a new dict containing every schema column.  Unknown keys and
        NOT NULL violations raise ``SchemaError``.
        """
        unknown = set(values) - set(self._by_name)
        if unknown:
            raise SchemaError(f"unknown columns in row: {sorted(unknown)}")
        row: Dict[str, object] = {}
        for col in self._columns:
            value = values.get(col.name)
            if value is None:
                if not col.nullable:
                    raise SchemaError(f"column {col.name!r} is NOT NULL")
                row[col.name] = None
                continue
            col.sql_type.validate(value)
            row[col.name] = col.sql_type.coerce(value)
        return row

    def extended_with(self, extra: Sequence[ColumnDef]) -> "Schema":
        """Return a new schema with ``extra`` columns appended."""
        return Schema(list(self._columns) + list(extra), primary_key=self.primary_key)

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.sql_type.value}" for c in self._columns)
        pk = f", pk={self.primary_key}" if self.primary_key else ""
        return f"Schema({cols}{pk})"


def tid_column(name: str) -> ColumnDef:
    """Convenience constructor for a matching-dependency transaction-id column."""
    return ColumnDef(name, SqlType.INT, nullable=True, is_tid=True)
