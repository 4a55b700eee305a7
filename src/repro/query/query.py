"""The aggregate-query model.

An :class:`AggregateQuery` is the normalized form every entry point (SQL
text or programmatic builder) reduces to: a set of table references, equi-
join edges, filter conjuncts, group-by columns, and aggregate specs.  It is
the unit the aggregate cache keys on and the executor evaluates per
partition combination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import QueryError
from .aggregates import AggregateSpec
from .expr import Col, Expr, single_alias_of


@dataclass(frozen=True)
class TableRef:
    """A table in the FROM clause with its alias."""

    table: str
    alias: str

    def canonical(self) -> str:
        """Stable textual form used in cache keys."""
        return f"{self.table} AS {self.alias}"


@dataclass(frozen=True)
class JoinEdge:
    """An equi-join condition ``left_alias.left_col = right_alias.right_col``."""

    left_alias: str
    left_col: str
    right_alias: str
    right_col: str

    def canonical(self) -> str:
        """Order-normalized textual form of the join condition."""
        left = f"{self.left_alias}.{self.left_col}"
        right = f"{self.right_alias}.{self.right_col}"
        return f"{left} = {right}" if left <= right else f"{right} = {left}"

    def aliases(self) -> Tuple[str, str]:
        """The two alias names this edge connects."""
        return (self.left_alias, self.right_alias)

    def side_for(self, alias: str) -> str:
        """Column name of this edge on the given alias' side."""
        if alias == self.left_alias:
            return self.left_col
        if alias == self.right_alias:
            return self.right_col
        raise QueryError(f"alias {alias!r} not part of edge {self.canonical()}")

    def other(self, alias: str) -> Tuple[str, str]:
        """The (alias, column) of the opposite side."""
        if alias == self.left_alias:
            return (self.right_alias, self.right_col)
        if alias == self.right_alias:
            return (self.left_alias, self.left_col)
        raise QueryError(f"alias {alias!r} not part of edge {self.canonical()}")


@dataclass(frozen=True)
class OrderItem:
    """ORDER BY element over an output column name."""

    column: str
    descending: bool = False


class AggregateQuery:
    """Normalized aggregate query over one or more joined tables."""

    def __init__(
        self,
        tables: Sequence[TableRef],
        aggregates: Sequence[AggregateSpec],
        group_by: Sequence[Col] = (),
        join_edges: Sequence[JoinEdge] = (),
        filters: Sequence[Expr] = (),
        order_by: Sequence[OrderItem] = (),
        limit: Optional[int] = None,
        group_labels: Optional[Sequence[str]] = None,
        having: Optional[Expr] = None,
    ):
        self.tables: List[TableRef] = list(tables)
        self.aggregates: List[AggregateSpec] = list(aggregates)
        self.group_by: List[Col] = list(group_by)
        self.join_edges: List[JoinEdge] = list(join_edges)
        self.filters: List[Expr] = list(filters)
        self.order_by: List[OrderItem] = list(order_by)
        self.limit = limit
        # HAVING references *output* column names (group labels / aggregate
        # outputs); like ORDER BY it does not change the cached extent.
        self.having = having
        if group_labels is None:
            self.group_labels: List[str] = [c.name for c in self.group_by]
        else:
            self.group_labels = list(group_labels)
        if len(self.group_labels) != len(self.group_by):
            raise QueryError("group_labels must match group_by in length")
        self._canonical_key: Optional[str] = None
        self._presentation_key: Optional[Tuple] = None
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if not self.tables:
            raise QueryError("query needs at least one table")
        if not self.aggregates:
            raise QueryError("aggregate query needs at least one aggregate")
        aliases = [t.alias for t in self.tables]
        if len(set(aliases)) != len(aliases):
            raise QueryError(f"duplicate table aliases: {aliases}")
        alias_set = set(aliases)
        for edge in self.join_edges:
            for alias in edge.aliases():
                if alias not in alias_set:
                    raise QueryError(f"join edge references unknown alias {alias!r}")
        for expr in self.filters:
            for alias, _col in expr.column_refs():
                if alias is not None and alias not in alias_set:
                    raise QueryError(f"filter references unknown alias {alias!r}")
        for col in self.group_by:
            if col.alias is not None and col.alias not in alias_set:
                raise QueryError(f"group-by references unknown alias {col.alias!r}")
        if len(self.tables) > 1:
            self._require_connected()
        outputs = [spec.output for spec in self.aggregates]
        if len(set(outputs)) != len(outputs):
            raise QueryError(f"duplicate aggregate output names: {outputs}")

    def _require_connected(self) -> None:
        """The join graph must connect every table (no cross products)."""
        adjacency: Dict[str, Set[str]] = {t.alias: set() for t in self.tables}
        for edge in self.join_edges:
            left, right = edge.aliases()
            adjacency[left].add(right)
            adjacency[right].add(left)
        start = self.tables[0].alias
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbor in adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        missing = {t.alias for t in self.tables} - seen
        if missing:
            raise QueryError(
                f"join graph is disconnected; unreachable aliases: {sorted(missing)}"
            )

    # ------------------------------------------------------------------
    @property
    def aliases(self) -> List[str]:
        """The table aliases in FROM order."""
        return [t.alias for t in self.tables]

    def table_of(self, alias: str) -> str:
        """Table name behind an alias (QueryError if unknown)."""
        for ref in self.tables:
            if ref.alias == alias:
                return ref.table
        raise QueryError(f"unknown alias {alias!r}")

    def edges_of(self, alias: str) -> List[JoinEdge]:
        """The join edges touching an alias."""
        return [e for e in self.join_edges if alias in e.aliases()]

    def local_filters(self, alias: str) -> List[Expr]:
        """Filter conjuncts that only touch the given alias."""
        return [f for f in self.filters if single_alias_of(f) == alias]

    def residual_filters(self) -> List[Expr]:
        """Filter conjuncts touching several (or zero) aliases — evaluated post-join."""
        return [f for f in self.filters if single_alias_of(f) is None]

    def output_columns(self) -> List[str]:
        """Result column names: group-by labels then aggregate outputs."""
        return list(self.group_labels) + [s.output for s in self.aggregates]

    def is_self_maintainable(self) -> bool:
        """True if every aggregate qualifies for the aggregate cache."""
        return all(spec.self_maintainable for spec in self.aggregates)

    # ------------------------------------------------------------------
    def clone(self) -> "AggregateQuery":
        """An independent shallow copy sharing only immutable parts.

        The constructor list-copies every sequence, so mutating the clone's
        ``tables``/``filters``/... lists cannot reach the original — which
        is what lets the SQL parse cache hand out clones of one cached
        template without risking poisoning.  Element objects (TableRef,
        JoinEdge, Col, Expr trees) are immutable by convention and shared.
        Binding markers are *not* copied: a clone is always unbound.
        """
        dup = AggregateQuery(
            tables=self.tables,
            aggregates=self.aggregates,
            group_by=self.group_by,
            join_edges=self.join_edges,
            filters=self.filters,
            order_by=self.order_by,
            limit=self.limit,
            group_labels=self.group_labels,
            having=self.having,
        )
        dup._canonical_key = self._canonical_key
        return dup

    def canonical_key(self) -> str:
        """Stable canonical form (without ORDER BY / LIMIT, which do not
        change the cached extent).  Memoized — queries are treated as
        immutable once constructed."""
        if self._canonical_key is not None:
            return self._canonical_key
        tables = ", ".join(sorted(t.canonical() for t in self.tables))
        edges = " AND ".join(sorted(e.canonical() for e in self.join_edges))
        filters = " AND ".join(sorted(f.canonical() for f in self.filters))
        groups = ", ".join(c.canonical() for c in self.group_by)
        aggs = ", ".join(s.canonical() for s in self.aggregates)
        self._canonical_key = (
            f"TABLES[{tables}] JOIN[{edges}] WHERE[{filters}] "
            f"GROUP[{groups}] AGG[{aggs}]"
        )
        return self._canonical_key

    def presentation_key(self) -> Tuple:
        """Everything :meth:`canonical_key` leaves out because it does not
        change the cached extent, but that decides which groups are shown
        and in what order: output names (HAVING and ORDER BY refer to
        them), HAVING, ORDER BY, LIMIT.  Two statements sharing a cache
        entry produce the same row sequence from it iff this key is equal.
        Memoized like the canonical key."""
        if self._presentation_key is None:
            self._presentation_key = (
                tuple(self.output_columns()),
                None if self.having is None else self.having.canonical(),
                tuple(self.order_by),
                self.limit,
            )
        return self._presentation_key

    def __repr__(self) -> str:
        return f"AggregateQuery({self.canonical_key()})"
