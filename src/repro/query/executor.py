"""Partition-aware query execution (Section 2.3.1).

A query over partitioned tables is the union of its *subjoins*: one join per
combination of partitions, one partition per referenced table.  The executor
takes an explicit list of :class:`ComboSpec` combinations — the plain path
evaluates all ``k1 × ... × kt`` of them, the aggregate cache passes the
compensation subset (everything except the cached all-main combination),
and the object-aware layer passes a pruned subset plus per-combination
pushdown filters (Section 5.3).

A compensation subjoin pins some inputs to given rows (``fixed_rows``).
A main such a pinned input reaches along a join edge that ends in the
main's single-column primary key is not scanned: its rows are gathered
through the main's pk array (``Table.pk_rows``), then visibility and the
alias' filters are applied to those rows only (``_probe``).  So a subjoin
pinned to a handful of changed rows costs in proportion to those rows, not
to the mains it joins them with.  The other inputs are scanned — visible-row
scans with local filters, memoized per ``execute`` call with the join-side
hash tables, as a real engine shares scans across union branches.  One walk
over the inputs, smallest first (``_reduce``), gathers the pinned terms'
mains and semi-join-reduces the rest by their smaller neighbours before
anything is joined.

Subjoins run one after another on the calling thread, **in combination
order**.  Each reduces its joined rows per group and folds the reductions
straight into the result, so a query's float additions happen in one fixed
order: a group's partial sum first, then one add into the target.

What the subjoins of a statement share — its filters split by alias, its
join edges per alias and the edges ending in a primary key, and the join
orders already chosen — is derived once per plan (:class:`CompiledTerms`,
carried by the physical plan).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import QueryError
from ..obs.trace import Span
from ..plan.cost import JoinStep, choose_join_order
from ..plan.logical import Binder
from ..storage.catalog import Catalog
from ..storage.partition import Partition
from ..storage.table import Table
from .aggregates import GroupedAggregates
from .expr import Expr, single_alias_of
from .operators import (
    JoinedProvider,
    aggregate_into,
    build_hash_table,
    filter_rows,
    join_kernel,
    pk_probe,
    probe_hash_join,
    scan_partition,
    semi_join_reduce,
)
from .query import AggregateQuery, JoinEdge


@dataclass(frozen=True)
class RowRange:
    """A contiguous physical row interval ``[start, stop)`` of one partition.

    Used as a ``ComboSpec.fixed_rows`` value: unlike an explicit index
    array (which bypasses visibility entirely), a range restricts the
    normal *snapshot-visibility* scan to the interval, and the stamp
    vectors are sliced before the visibility compare — the scan never
    materializes rows outside the range.  Delta-memo compensation uses
    this to touch only the rows appended since a watermark.
    """

    start: int
    stop: int

    def __len__(self) -> int:
        return max(0, self.stop - self.start)


@dataclass
class ComboSpec:
    """One subjoin: a partition per alias, plus per-alias pushdown filters.

    ``extra_filters`` carries combination-specific local predicates — the
    join-predicate-pushdown ranges derived from matching dependencies — that
    must be applied to that alias' scan *for this subjoin only*.

    ``fixed_rows`` pins an alias to an explicit row-index set *instead of*
    the snapshot-visibility scan.  The aggregate cache uses this for main
    compensation: the "invalidated rows" side and the "rows visible at entry
    creation" sides of the subtraction are both fixed sets that no current
    snapshot describes.  Local and extra filters still apply on top.
    A :class:`RowRange` value instead *keeps* the snapshot-visibility scan
    but restricts it to the contiguous interval (delta-memo compensation).

    ``sign`` multiplies the ``execute`` call's own: compensation folds the
    rows that entered (+1) and left (-1) a subjoin's inputs in one call.
    """

    partitions: Dict[str, Partition]
    extra_filters: Dict[str, List[Expr]] = field(default_factory=dict)
    fixed_rows: Dict[str, Union[np.ndarray, RowRange]] = field(default_factory=dict)
    sign: int = 1

    def describe(self) -> str:
        """Compact '(alias:partition, ...)' rendering for stats/plans."""
        return describe_partitions(self.partitions)


def describe_partitions(partitions: Dict[str, Partition]) -> str:
    """Canonical '(alias:partition, ...)' label of a partition assignment —
    shared by stats, plans, and trace spans so they compare textually."""
    inner = ", ".join(
        f"{alias}:{part.name}" for alias, part in sorted(partitions.items())
    )
    return f"({inner})"


@dataclass
class ExecutionStats:
    """Counters filled during one ``execute`` call; ``subjoins`` and
    ``probe_sides`` list the subjoins in combination order."""

    combos_evaluated: int = 0
    combos_empty: int = 0
    rows_aggregated: int = 0
    subjoins: List[str] = field(default_factory=list)
    #: Per subjoin, the alias chosen as the probe (non-hashed) side.
    probe_sides: List[str] = field(default_factory=list)


def all_partition_combos(
    query: AggregateQuery, catalog: Catalog
) -> List[Dict[str, Partition]]:
    """The full cartesian product of partitions per referenced table."""
    per_alias: List[List[Tuple[str, Partition]]] = []
    for ref in query.tables:
        table = catalog.table(ref.table)
        per_alias.append([(ref.alias, p) for p in table.partitions()])
    return [dict(chosen) for chosen in itertools.product(*per_alias)]


def main_only_combos(
    query: AggregateQuery, catalog: Catalog
) -> List[Dict[str, Partition]]:
    """Combinations in which every alias reads a main partition.

    A plain table contributes its one main; an aged table contributes its
    hot and cold mains, so a query over aged tables has several all-main
    combinations (one aggregate cache entry each, Section 5.4).
    """
    return [
        combo
        for combo in all_partition_combos(query, catalog)
        if all(p.kind == "main" for p in combo.values())
    ]


def _fixed_rows_key(fixed) -> object:
    """Memo-key component for a ``fixed_rows`` value.

    Ranges key by value — two subjoins pinning the same interval share one
    scan — while index arrays key by identity (their contents are not
    hashable and callers reuse the same array object across subjoins).
    ``None`` (plain snapshot scan) stays None so it cannot collide with an
    array id.
    """
    if fixed is None:
        return None
    if isinstance(fixed, RowRange):
        return (fixed.start, fixed.stop)
    return id(fixed)


def _scan_key(alias: str, combo: ComboSpec) -> tuple:
    """Memo key of an alias' read in one subjoin: its partition, pushdown
    filters and pinned rows (the local filters are the query's own)."""
    return (
        alias,
        id(combo.partitions[alias]),
        tuple(sorted(e.canonical() for e in combo.extra_filters.get(alias, []))),
        _fixed_rows_key(combo.fixed_rows.get(alias)),
    )


class _PkEdge(NamedTuple):
    """A join edge direction ending in the target table's primary key."""

    source: str
    column: str  # the source's join column
    target: str
    pk_column: str
    table: Table  # the target's


#: Distinct row-count patterns whose join order one :class:`CompiledTerms`
#: remembers; a statement meets a handful (two to four inputs).
_JOIN_ORDER_PATTERNS = 64


class CompiledTerms:
    """What every subjoin of one bound statement shares, derived from the
    statement and the catalog's tables alone: its filters split into
    residual and per-alias local ones, its join edges per alias, the edges
    that end in a primary key, and the join orders chosen so far.

    The physical plan builds it once (``PhysicalPlan.compiled``) and keeps it
    while its structure holds; callers without a plan have ``execute``
    build one per call.  Shared by concurrent readers: only the join-order
    memo changes, by single dict stores of equal values.
    """

    __slots__ = (
        "query", "aliases", "residuals", "local_filters", "neighbours", "pk_edges",
        "_from_order", "_orders",
    )

    def __init__(self, query: AggregateQuery, catalog: Catalog):
        local: Dict[Optional[str], List[Expr]] = {ref.alias: [] for ref in query.tables}
        local[None] = []
        for expr in query.filters:
            local[single_alias_of(expr)].append(expr)
        neighbours: Dict[str, List[JoinEdge]] = {ref.alias: [] for ref in query.tables}
        pk_edges: List[_PkEdge] = []
        tables = {ref.alias: catalog.table(ref.table) for ref in query.tables}
        for edge in query.join_edges:
            for source in edge.aliases():
                neighbours[source].append(edge)
                target, column = edge.other(source)
                if tables[target].schema.primary_key == column:
                    pk_edges.append(
                        _PkEdge(source, edge.side_for(source), target, column, tables[target])
                    )
        self.query = query
        self.aliases = frozenset(neighbours)
        self.residuals: List[Expr] = local.pop(None)
        self.local_filters: Dict[str, List[Expr]] = local
        self.neighbours = neighbours
        self.pk_edges = pk_edges
        self._from_order = tuple(ref.alias for ref in query.tables)
        self._orders: Dict[tuple, Tuple[str, List[JoinStep]]] = {}

    def join_order(self, counts: Dict[str, int]) -> Tuple[str, List[JoinStep]]:
        """:func:`~repro.plan.cost.choose_join_order` over ``counts``,
        memoized by their dense rank pattern in FROM order (ties kept):
        the function only compares counts, so one pattern has one order.
        At most ``_JOIN_ORDER_PATTERNS`` patterns are kept."""
        row = [counts[alias] for alias in self._from_order]
        rank = {count: i for i, count in enumerate(sorted(set(row)))}
        key = tuple(map(rank.__getitem__, row))
        order = self._orders.get(key)
        if order is None:
            order = choose_join_order(self.query, counts)
            if len(self._orders) < _JOIN_ORDER_PATTERNS:
                self._orders[key] = order
        return order


@dataclass
class _Call:
    """One ``execute`` call: the statement's compiled terms, the snapshot,
    and the call's memos — scans and join-side hash tables repeat across
    subjoins that share a partition, and live for this call only."""

    terms: CompiledTerms
    snapshot: int
    scan_memo: Dict[tuple, np.ndarray] = field(default_factory=dict)
    hash_memo: Dict[tuple, object] = field(default_factory=dict)


class QueryExecutor:
    """Evaluates aggregate queries over explicit partition combinations."""

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        self._binder = Binder(catalog)

    # ------------------------------------------------------------------
    # binding
    # ------------------------------------------------------------------
    def bind(self, query: AggregateQuery) -> AggregateQuery:
        """Resolve and validate column references; see
        :meth:`repro.plan.logical.Binder.bind` (the executor delegates to
        the planner layer's binder, which owns the binding rules)."""
        return self._binder.bind(query)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self,
        query: AggregateQuery,
        snapshot: int,
        combos: Optional[Sequence[ComboSpec]] = None,
        into: Optional[GroupedAggregates] = None,
        sign: int = 1,
        stats: Optional[ExecutionStats] = None,
        span_sink: Optional[List[Span]] = None,
        cancel=None,
        compiled: Optional[CompiledTerms] = None,
    ) -> GroupedAggregates:
        """Evaluate the union of the given subjoins into a grouped state.

        ``combos`` defaults to the full partition product.  ``into`` lets
        the aggregate cache fold compensation contributions into (a copy of)
        a cached value; ``sign=-1`` subtracts, for main compensation.
        ``compiled`` is the statement's :class:`CompiledTerms` (a plan's
        ``compiled``); without it, or for another statement, the call
        derives its own.

        The subjoins fold into the result **in combination order**, each
        straight into it with its sign: a subjoin reduces its rows per group
        from zero before it writes to the result, then adds each group's
        reduction once — the float additions of a partial merged into the
        result, in the same order (``t + (-s)`` is ``t - s`` exactly).

        ``stats`` receives the counters and ``span_sink`` one trace
        :class:`Span` per evaluated subjoin (partition assignment, rows
        scanned, probe side, pushdown filter counts), both in combination
        order.

        ``cancel`` is an optional
        :class:`~repro.governor.deadline.CancelToken`: it is checked
        before every subjoin, so a cancelled or timed-out query aborts at
        the next subjoin boundary with a typed
        :class:`~repro.errors.QueryAborted` instead of running to
        completion.  An abort folds nothing further into ``into``.
        """
        if compiled is None or compiled.query is not query:
            compiled = self.compile(query)
        bound = compiled.query
        if combos is None:
            combos = [
                ComboSpec(partitions)
                for partitions in all_partition_combos(bound, self._catalog)
            ]
        grouped = into if into is not None else GroupedAggregates(bound.aggregates)
        call = _Call(compiled, snapshot)
        for combo in combos:
            if cancel is not None:
                cancel.check()
            self._execute_combo(call, combo, sign, grouped, stats, span_sink)
        return grouped

    def compile(self, query: AggregateQuery) -> CompiledTerms:
        """The :class:`CompiledTerms` of ``query``, bound first."""
        return CompiledTerms(self.bind(query), self._catalog)

    def _gatherable(
        self, call: _Call, combo: ComboSpec, scans: Dict[str, np.ndarray]
    ) -> Dict[str, Tuple[_PkEdge, np.ndarray]]:
        """The unpinned mains this subjoin gathers by primary key instead of
        scanning: alias -> (the edge from its pinned partner, the main's pk
        array).

        A main qualifies when a pinned input (``scans``) reaches it along an
        edge ending in its primary key, the pinned side has fewer rows than
        the main, and the main's pk array maps every one of its rows
        (:meth:`~repro.storage.table.Table.pk_rows`).  A main whose full
        scan this ``execute`` call already holds is reduced from that scan
        instead.  Of several pinned partners the smallest gathers.
        """
        found: Dict[str, Tuple[_PkEdge, np.ndarray]] = {}
        for edge in call.terms.pk_edges:
            if edge.source not in scans or edge.target in combo.fixed_rows:
                continue
            main = combo.partitions[edge.target]
            size = len(scans[edge.source])
            if main.kind != "main" or size >= main.row_count:
                continue
            chosen = found.get(edge.target)
            if chosen is not None and (len(scans[chosen[0].source]), chosen[0].source) <= (
                size, edge.source
            ):
                continue
            if _scan_key(edge.target, combo) in call.scan_memo:
                continue
            pk_rows = edge.table.pk_rows(main)
            if pk_rows is not None:
                found[edge.target] = (edge, pk_rows)
        return found

    def _probe(
        self,
        call: _Call,
        combo: ComboSpec,
        edge: _PkEdge,
        source_rows: np.ndarray,
        pk_rows: np.ndarray,
    ) -> np.ndarray:
        """The rows of ``edge.target``'s main whose primary key occurs among
        ``source_rows``' keys, visible at the call's snapshot and passing
        the alias' local and pushdown filters, ascending: the rows its full
        scan semi-joined with the source would keep, found through the pk
        array without touching the others."""
        target = edge.target
        main = combo.partitions[target]
        rows = pk_probe(
            combo.partitions[edge.source], source_rows, edge.column, main, edge.pk_column, pk_rows
        )
        rows = rows[main.visible_at(call.snapshot, rows)]
        filters = call.terms.local_filters[target] + combo.extra_filters.get(target, [])
        return filter_rows(target, main, rows, filters)

    def _scan(
        self, call: _Call, combo: ComboSpec, alias: str, keys: Dict[str, tuple]
    ) -> np.ndarray:
        """The alias' visible rows passing its local and pushdown filters
        (its pinned ones, if pinned), memoized across the call under its
        :func:`_scan_key`, which goes into ``keys``."""
        key = keys[alias] = _scan_key(alias, combo)
        rows = call.scan_memo.get(key)
        if rows is None:
            partition = combo.partitions[alias]
            fixed = combo.fixed_rows.get(alias)
            filters = call.terms.local_filters[alias] + combo.extra_filters.get(alias, [])
            if isinstance(fixed, RowRange):
                visible = partition.visible_rows_in(call.snapshot, fixed.start, fixed.stop)
                rows = filter_rows(alias, partition, visible, filters)
            elif fixed is not None:
                rows = filter_rows(alias, partition, fixed, filters)
            else:
                rows = scan_partition(alias, partition, call.snapshot, filters)
            call.scan_memo[key] = rows
        return rows

    def _reduce(
        self,
        call: _Call,
        combo: ComboSpec,
        scans: Dict[str, np.ndarray],
        gather: Dict[str, Tuple[_PkEdge, np.ndarray]],
    ) -> Dict[str, np.ndarray]:
        """Sideways information passing: the rows of every input that can
        join, read smallest input first.

        Each input taken restricts every not yet taken join neighbour to
        the rows whose key occurs among its own (possibly already reduced)
        rows — :func:`~repro.query.operators.semi_join_reduce`, which
        declines unless the two sides are skewed enough to pay — and reads
        the mains it gathers by primary key (``gather``, see
        :meth:`_gatherable`; the gathered rows go into ``scans`` too).  A
        small input thus thins the whole chain of joins hanging off it.
        Every join edge is a conjunctive inner equi-join whose NULL keys
        never match, a reduction or a gather only drops rows that join
        nothing on that edge, and survivors keep their order, so the subjoin
        yields the identical tuple multiset from inputs sized by its
        smallest side.  Returns a new mapping; an alias that was scanned and
        not reduced keeps its (memoized) scan array *object*, which is how
        callers tell the two apart.  Ties break on the alias name, never on
        FROM order.  An empty input ends the walk: a gathered main not
        reached by then is not read at all.
        """
        reduced = dict(scans)
        pending = set(reduced)
        taken = set()
        while pending:
            source = min(pending, key=lambda alias: (len(reduced[alias]), alias))
            pending.discard(source)
            taken.add(source)
            if not len(reduced[source]):
                break  # the subjoin is empty; nothing left worth reading
            for edge in call.terms.neighbours[source]:
                target, target_column = edge.other(source)
                if target in taken:
                    continue
                if target not in reduced:
                    via, pk_rows = gather[target]
                    if via.source == source and via.pk_column == target_column:
                        rows = self._probe(call, combo, via, reduced[source], pk_rows)
                        scans[target] = reduced[target] = rows
                        pending.add(target)
                    continue
                reduced[target] = semi_join_reduce(
                    combo.partitions[source], reduced[source], edge.side_for(source),
                    combo.partitions[target], reduced[target], target_column,
                )
        return reduced

    def _execute_combo(
        self,
        call: _Call,
        combo: ComboSpec,
        sign: int,
        into: GroupedAggregates,
        stats: Optional[ExecutionStats],
        span_sink: Optional[List[Span]],
    ) -> None:
        """Evaluate one subjoin and fold it into ``into``; counts go to
        ``stats`` and one span to ``span_sink`` (each when given)."""
        sign *= combo.sign
        if span_sink is None:
            self._execute_combo_inner(call, combo, sign, into, stats, None)
            return
        attrs: Dict[str, object] = {
            "combo": combo.describe(),
            "status": "evaluated",
        }
        if combo.extra_filters:
            attrs["pushdown_filters"] = {
                alias: len(filters)
                for alias, filters in sorted(combo.extra_filters.items())
                if filters
            }
        if combo.fixed_rows:
            attrs["fixed_rows"] = sorted(combo.fixed_rows)
        if sign != 1:
            attrs["sign"] = sign
        started = time.perf_counter()
        self._execute_combo_inner(call, combo, sign, into, stats, attrs)
        span_sink.append(Span(
            name="subjoin",
            start=started,
            duration=time.perf_counter() - started,
            attrs=attrs,
        ))

    def _execute_combo_inner(
        self,
        call: _Call,
        combo: ComboSpec,
        sign: int,
        into: GroupedAggregates,
        stats: Optional[ExecutionStats],
        attrs: Optional[Dict[str, object]],
    ) -> None:
        terms = call.terms
        query = terms.query
        missing = terms.aliases - combo.partitions.keys()
        if missing:
            raise QueryError(f"combo misses partitions for aliases {sorted(missing)}")
        if stats is not None:
            stats.combos_evaluated += 1
            stats.subjoins.append(combo.describe())

        def empty():
            if stats is not None:
                stats.combos_empty += 1
            if attrs is not None:
                attrs["status"] = "empty"

        # Read every input up front: the counts drive build-side selection,
        # and any empty input empties the join.  Inputs restricted to given
        # rows (compensation terms) are read first; an empty one ends the
        # subjoin before the full scans run, and stands as its probe side.
        # The mains they gather by primary key are read during the
        # reduction (``_reduce``); the rest are scanned (memoized across
        # subjoins).
        keys: Dict[str, tuple] = {}
        scans: Dict[str, np.ndarray] = {}
        for ref in query.tables:
            if ref.alias not in combo.fixed_rows:
                continue
            rows = self._scan(call, combo, ref.alias, keys)
            scans[ref.alias] = rows
            if not len(rows):
                if stats is not None:
                    stats.probe_sides.append(ref.alias)
                if attrs is not None:
                    attrs["rows_scanned"] = {a: len(r) for a, r in sorted(scans.items())}
                    attrs["probe_side"] = ref.alias
                return empty()
        gather = self._gatherable(call, combo, scans) if scans else {}
        for ref in query.tables:
            if ref.alias not in scans and ref.alias not in gather:
                scans[ref.alias] = self._scan(call, combo, ref.alias, keys)
        reduced = self._reduce(call, combo, scans, gather)
        gathered = sorted(alias for alias in gather if alias in scans)
        if gathered and attrs is not None:
            attrs["probed"] = gathered
        row_counts = {alias: len(rows) for alias, rows in scans.items()}
        reduced_counts = {alias: len(rows) for alias, rows in reduced.items()}
        # Runtime ordering ranks the *scanned* counts, so the semi-join
        # reduction above never changes the plan — the joined tuples come
        # out in the same sequence with or without it, which keeps group
        # order and float summation order bit-identical.  A gathered main
        # has no scan count: it ranks by its row count, which bounds that
        # count from above.  The plan is the scan path's unless another
        # input's count falls between the two; then the gathered main moves
        # towards the probe side and the same tuples come out in another
        # sequence, so group order and float summation order can differ
        # from the scan path's (quantum-valued sums, as in every workload,
        # stay exact).  A gather an empty input cut short leaves its main
        # unread; the subjoin is empty and is not joined.
        ranks = dict(row_counts)
        ranks.update((alias, combo.partitions[alias].row_count) for alias in gather)
        first, steps = terms.join_order(ranks)
        if stats is not None:
            stats.probe_sides.append(first)
        if attrs is not None:
            attrs["rows_scanned"] = dict(sorted(row_counts.items()))
            if reduced_counts != row_counts:
                attrs["rows_after_reduction"] = dict(sorted(reduced_counts.items()))
            attrs["probe_side"] = first
        if not all(reduced_counts.values()):
            return empty()
        provider = JoinedProvider(
            {first: combo.partitions[first]}, {first: reduced[first]}
        )
        for step in steps:
            partition = combo.partitions[step.alias]
            key_columns = tuple(edge.side_for(step.alias) for edge in step.edges)
            rows = reduced[step.alias]
            kernel = join_kernel(len(rows), provider.row_count())
            if attrs is not None:
                attrs.setdefault("kernels", {})[step.alias] = kernel
            if rows is not scans[step.alias] or step.alias in gather:
                # The memo key describes the partition's full scan; a table
                # over this subjoin's reduced or gathered rows must never be
                # shared.
                table = build_hash_table(partition, rows, key_columns, kernel)
            else:
                # A table built for a small step never serves a large one.
                hash_key = (keys[step.alias], key_columns, kernel)
                table = call.hash_memo.get(hash_key)
                if table is None:
                    table = build_hash_table(partition, rows, key_columns, kernel)
                    call.hash_memo[hash_key] = table
            if not table:
                return empty()
            probe_columns = [edge.other(step.alias) for edge in step.edges]
            provider = probe_hash_join(
                provider, probe_columns, step.alias, partition, table
            )
            if provider.row_count() == 0:
                return empty()
        for residual in terms.residuals:
            mask = residual.evaluate(provider).astype(bool)
            provider = provider.select(mask)
            if provider.row_count() == 0:
                return empty()
        n = aggregate_into(into, provider, query.group_by, query.aggregates, sign)
        if stats is not None:
            stats.rows_aggregated += n
        if attrs is not None:
            attrs["rows_aggregated"] = n

