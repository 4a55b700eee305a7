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
        """Raise ``SchemaError`` if ``value`` is not acceptable for this type.

        A ``bool`` is refused by every type, although Python counts it as
        an ``int``."""
        if value is None:
            return
        if isinstance(value, bool) or not isinstance(value, _ACCEPTED[self]):
            raise SchemaError(f"expected {_EXPECTED[self]}, got {value!r}")

    def coerce(self, value):
        """Normalize a validated value to its canonical Python representation."""
        if value is None:
            return None
        if self is SqlType.FLOAT:
            return float(value)
        return value


#: The Python classes :meth:`SqlType.validate` accepts, and how its error
#: names the type.
_ACCEPTED = {
    SqlType.INT: int, SqlType.FLOAT: (int, float), SqlType.TEXT: str, SqlType.DATE: str
}
_EXPECTED = {
    SqlType.INT: "INT",
    SqlType.FLOAT: "FLOAT",
    SqlType.TEXT: "TEXT",
    SqlType.DATE: "DATE (ISO string)",
}

#: The Python class every non-NULL value of a type has after coercion; a
#: column whose values all have exactly it needs no per-value check.
_EXACT_TYPES = {
    SqlType.INT: int, SqlType.FLOAT: float, SqlType.TEXT: str, SqlType.DATE: str
}


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

    def checked(self, value):
        """``value`` validated and coerced for this column (SchemaError for
        a wrong type or a NULL in a NOT NULL column)."""
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is NOT NULL")
            return None
        self.sql_type.validate(value)
        return self.sql_type.coerce(value)


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
        self._names = names
        self._exact = [(_EXACT_TYPES[c.sql_type], c) for c in self._columns]
        self._change_bits: Dict[str, int] = {
            name: 1 << min(position, _CHANGE_BITS)
            for position, name in enumerate(names)
        }
        if primary_key is not None and primary_key not in self._by_name:
            raise SchemaError(f"primary key column {primary_key!r} not in schema")
        self.primary_key = primary_key
        #: Position of the key among the columns (None without a key).
        self.pk_position = None if primary_key is None else names.index(primary_key)

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
    def validate_columns(self, rows: Sequence[Dict[str, object]]) -> List[Sequence]:
        """Validate and normalize a batch of row dicts, column by column.

        Returns one sequence of values per schema column, in schema order;
        missing columns become NULL.  Unknown keys, NOT NULL violations
        and wrong types raise ``SchemaError``.  Each column takes one
        type-identity pass; only a column holding a NULL or a value whose
        class is not exactly its type's is checked (and coerced) value by
        value, with :meth:`ColumnDef.checked`.
        """
        for values in rows:
            if not values.keys() <= self._by_name.keys():
                unknown = set(values) - set(self._by_name)
                raise SchemaError(f"unknown columns in row: {sorted(unknown)}")
        columns = list(zip(*[list(map(row.get, self._names)) for row in rows]))
        if not columns:
            return [[] for _ in self._names]
        for position, (exact, col) in enumerate(self._exact):
            for value in columns[position]:
                if type(value) is not exact:
                    columns[position] = [col.checked(v) for v in columns[position]]
                    break
        return columns

    def extended_with(self, extra: Sequence[ColumnDef]) -> "Schema":
        """Return a new schema with ``extra`` columns appended."""
        return Schema(list(self._columns) + list(extra), primary_key=self.primary_key)

    def describe(self) -> str:
        """One line per column: name, type, and its PRIMARY KEY / NOT NULL /
        MD tid flags."""
        lines = []
        for c in self._columns:
            flags = [("PRIMARY KEY", c.name == self.primary_key),
                     ("NOT NULL", not c.nullable), ("MD tid", c.is_tid)]
            shown = ", ".join(name for name, on in flags if on)
            suffix = f"  ({shown})" if shown else ""
            lines.append(f"{c.name}  {c.sql_type.value}{suffix}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.sql_type.value}" for c in self._columns)
        pk = f", pk={self.primary_key}" if self.primary_key else ""
        return f"Schema({cols}{pk})"


def tid_column(name: str) -> ColumnDef:
    """Convenience constructor for a matching-dependency transaction-id column."""
    return ColumnDef(name, SqlType.INT, nullable=True, is_tid=True)
