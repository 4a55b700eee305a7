"""Query results: ordered rows with named columns.

Wraps a finalized :class:`GroupedAggregates` into something applications can
consume — stable ordering, dict access, text rendering — and that tests can
compare across execution strategies.
"""

from __future__ import annotations

import math
import numbers
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import QueryError
from .aggregates import AggFunc, GroupedAggregates
from .query import AggregateQuery, OrderItem


def _sort_key_for(value):
    """Total order with NULLs first and mixed types grouped by type name.

    All real numbers share one group regardless of machine type: execution
    paths that fold partials differently may yield a Python ``float`` where
    another yields a NumPy ``float64`` for the same quantity, and ORDER BY
    must not split equal-valued rows into per-type blocks.
    """
    # Exact built-in numbers first: the ABC check below costs a cache probe
    # per call and is only needed for NumPy scalars (and to keep bool out).
    if type(value) in (int, float) or (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
    ):
        return (True, "number", value)
    return (value is not None, type(value).__name__, value)


class QueryResult:
    """Immutable tabular result of an aggregate query."""

    def __init__(self, columns: Sequence[str], rows: Sequence[Tuple]):
        rows = list(rows)
        for row in rows:
            if len(row) != len(columns):
                raise QueryError(
                    f"row width {len(row)} != column count {len(columns)}"
                )
        self._adopt(columns, rows)

    def _adopt(self, columns: Sequence[str], rows: List[Tuple]) -> None:
        self.columns: List[str] = list(columns)
        self.rows: List[Tuple] = rows
        #: The CacheQueryReport of the query that produced this result.
        #: Attached by ``Database.query`` so concurrent callers each get
        #: their own report with their own result (``db.last_report`` is
        #: only a convenience view of the calling thread's last query).
        self.report = None
        #: The QueryTrace when the result came from ``explain_analyze``.
        self.trace = None

    @classmethod
    def trusted(cls, columns: Sequence[str], rows: List[Tuple]) -> "QueryResult":
        """Wrap rows the engine rendered itself (every row as wide as
        ``columns`` by construction): no per-row width check, and ``rows``
        is taken over, not copied."""
        result = cls.__new__(cls)
        result._adopt(columns, rows)
        return result

    # ------------------------------------------------------------------
    @classmethod
    def from_grouped(
        cls,
        query: AggregateQuery,
        grouped: GroupedAggregates,
    ) -> "QueryResult":
        """Finalize grouped state and apply the query's HAVING / ORDER BY /
        LIMIT (see :meth:`from_rows`)."""
        return cls.from_rows(query, grouped.finalize())

    @classmethod
    def from_rows(
        cls,
        query: AggregateQuery,
        rows: Sequence[Tuple],
    ) -> "QueryResult":
        """Wrap pre-finalized rows, applying HAVING / ORDER BY / LIMIT.
        Without GROUP BY and with no row, SQL still answers one row: COUNT
        (DISTINCT too) 0, every other aggregate NULL."""
        if not rows and not query.group_by:
            rows = [tuple(0 if s.func is AggFunc.COUNT else None for s in query.aggregates)]
        columns = query.output_columns()
        if query.having is not None:
            rows = _apply_having(query.having, columns, rows)
        result = cls(columns, rows)
        if query.order_by:
            result = result.sorted_by(query.order_by)
        else:
            # Deterministic default order (by group key) so repeated runs and
            # different execution strategies compare equal.
            result = result.sorted_by(
                [OrderItem(c) for c in columns[: len(query.group_by)]]
            )
        if query.limit is not None:
            result = cls.trusted(result.columns, result.rows[: query.limit])
        return result

    # ------------------------------------------------------------------
    def column_index(self, name: str) -> int:
        """Position of an output column (QueryError if absent)."""
        try:
            return self.columns.index(name)
        except ValueError:
            raise QueryError(f"result has no column {name!r}") from None

    def column_values(self, name: str) -> List[object]:
        """All values of one output column, row order."""
        idx = self.column_index(name)
        return [row[idx] for row in self.rows]

    def to_dicts(self) -> List[Dict[str, object]]:
        """Rows as dicts keyed by output column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def sorted_by(self, order: Sequence[OrderItem]) -> "QueryResult":
        """Copy sorted by the given ORDER BY items (NULLs first)."""
        rows = list(self.rows)
        for item in reversed(order):
            idx = self.column_index(item.column)
            rows.sort(key=lambda row: _sort_key_for(row[idx]), reverse=item.descending)
        return QueryResult.trusted(self.columns, rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        """Order-insensitive comparison with float tolerance.

        Incremental maintenance adds and subtracts float contributions, so
        SUM/AVG values may drift by a few ULPs relative to a from-scratch
        computation; ``==`` treats such values as equal.
        """
        if not isinstance(other, QueryResult):
            return NotImplemented
        if self.columns != other.columns or len(self.rows) != len(other.rows):
            return False
        mine = sorted(self.rows, key=lambda r: tuple(_sort_key_for(v) for v in r))
        theirs = sorted(other.rows, key=lambda r: tuple(_sort_key_for(v) for v in r))
        return all(
            _values_close(a, b) for row_a, row_b in zip(mine, theirs)
            for a, b in zip(row_a, row_b)
        )

    def __hash__(self):  # pragma: no cover
        raise TypeError("QueryResult is unhashable")

    # ------------------------------------------------------------------
    def to_text(self, max_rows: Optional[int] = 25) -> str:
        """Plain-text table rendering for examples and debugging."""
        shown = self.rows if max_rows is None else self.rows[:max_rows]
        cells = [[_fmt(v) for v in row] for row in shown]
        widths = [len(c) for c in self.columns]
        for row in cells:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = " | ".join(c.ljust(widths[i]) for i, c in enumerate(self.columns))
        rule = "-+-".join("-" * w for w in widths)
        body = [
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            for row in cells
        ]
        footer = []
        if max_rows is not None and len(self.rows) > max_rows:
            footer.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join([header, rule] + body + footer)

    def __repr__(self) -> str:
        return f"QueryResult(columns={self.columns}, rows={len(self.rows)})"


class _RowsProvider:
    """Column provider over finalized result rows, keyed by output name."""

    def __init__(self, columns, rows):
        self._index = {name: i for i, name in enumerate(columns)}
        self._rows = rows

    def get(self, alias, name):
        """Values of one output column (QueryError for unknown names)."""
        try:
            idx = self._index[name]
        except KeyError:
            raise QueryError(f"HAVING references unknown output column {name!r}")
        import numpy as np

        out = np.empty(len(self._rows), dtype=object)
        for pos, row in enumerate(self._rows):
            out[pos] = row[idx]
        return out

    def row_count(self):
        """Number of result rows."""
        return len(self._rows)


def _apply_having(having, columns, rows) -> List[Tuple]:
    rows = list(rows)
    if not rows:
        return rows
    mask = having.evaluate(_RowsProvider(columns, rows))
    return [row for row, keep in zip(rows, mask) if keep]


def _values_close(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    if isinstance(b, float) and isinstance(a, (int, float)):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


def _fmt(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
