"""Partition-aware query execution (Section 2.3.1).

A query over partitioned tables is the union of its *subjoins*: one join per
combination of partitions, one partition per referenced table.  The executor
takes an explicit list of :class:`ComboSpec` combinations — the plain path
evaluates all ``k1 × ... × kt`` of them, the aggregate cache passes the
compensation subset (everything except the cached all-main combination),
and the object-aware layer passes a pruned subset plus per-combination
pushdown filters (Section 5.3).

Work that repeats across combinations referencing the same partition —
visible-row scans with local filters and join-side hash tables — is memoized
per ``execute`` call, which mirrors how a real engine would share scans
across union branches.  Before a subjoin joins anything its inputs are
semi-join-reduced by their smaller neighbours (``_reduce_scans``), so a
compensation subjoin pinned to a handful of changed rows costs in
proportion to those rows, not to the mains it joins them with.

Subjoins run one after another on the calling thread.  Each is evaluated
into a fresh grouped partial that is merged into the result **in
combination order**, so a query's float additions happen in one fixed
order.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import QueryError
from ..obs.trace import Span
from ..plan.cost import choose_join_order, tier_weighted_costs
from ..plan.logical import Binder
from ..storage.catalog import Catalog
from ..storage.partition import Partition
from .aggregates import GroupedAggregates
from .expr import Expr
from .operators import (
    JoinedProvider,
    aggregate_into,
    build_hash_table,
    filter_rows,
    join_kernel,
    probe_hash_join,
    scan_partition,
    semi_join_reduce,
)
from .query import AggregateQuery


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
    ) -> GroupedAggregates:
        """Evaluate the union of the given subjoins into a grouped state.

        ``combos`` defaults to the full partition product.  ``into`` lets
        the aggregate cache fold compensation contributions into (a copy of)
        a cached value; ``sign=-1`` subtracts, for main compensation.

        Every subjoin is evaluated into a fresh partial which is merged into
        the result **in combination order**; folding subjoins straight into
        ``into`` would change the order of the float additions.

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
        bound = self.bind(query)
        if combos is None:
            combos = [
                ComboSpec(partitions)
                for partitions in all_partition_combos(bound, self._catalog)
            ]
        grouped = into if into is not None else GroupedAggregates(bound.aggregates)
        residuals = bound.residual_filters()
        local_filters = {ref.alias: bound.local_filters(ref.alias) for ref in bound.tables}
        # Scans and join-side hash tables repeat across subjoins that share
        # a partition; both memos live for this call only.
        scan_memo: Dict[tuple, np.ndarray] = {}
        hash_memo: Dict[tuple, object] = {}
        for combo in combos:
            if cancel is not None:
                cancel.check()
            partial = self._execute_combo(
                bound, residuals, local_filters, snapshot, combo, sign,
                scan_memo, hash_memo, grouped.new_like, stats, span_sink,
            )
            if partial is not None:
                grouped.merge(partial)
        return grouped

    def _scan(
        self,
        alias: str,
        combo: ComboSpec,
        local_filters: Dict[str, List[Expr]],
        snapshot: int,
        scan_memo: Dict[tuple, np.ndarray],
    ) -> np.ndarray:
        partition = combo.partitions[alias]
        extra = combo.extra_filters.get(alias, [])
        fixed = combo.fixed_rows.get(alias)
        key = (
            alias,
            id(partition),
            tuple(sorted(e.canonical() for e in extra)),
            _fixed_rows_key(fixed),
        )
        rows = scan_memo.get(key)
        if rows is None:
            filters = local_filters[alias] + extra
            if isinstance(fixed, RowRange):
                visible = partition.visible_rows_in(snapshot, fixed.start, fixed.stop)
                rows = filter_rows(alias, partition, visible, filters)
            elif fixed is not None:
                rows = filter_rows(alias, partition, fixed, filters)
            else:
                rows = scan_partition(alias, partition, snapshot, filters)
            scan_memo[key] = rows
        return rows

    def _execute_combo(
        self,
        query: AggregateQuery,
        residuals: List[Expr],
        local_filters: Dict[str, List[Expr]],
        snapshot: int,
        combo: ComboSpec,
        sign: int,
        scan_memo: Dict[tuple, np.ndarray],
        hash_memo: Dict[tuple, object],
        partial_factory,
        stats: Optional[ExecutionStats],
        span_sink: Optional[List[Span]],
    ) -> Optional[GroupedAggregates]:
        """Evaluate one subjoin into a fresh partial grouped state.

        Returns the partial, or None when the subjoin is empty; counts go
        to ``stats`` and one span to ``span_sink`` (each when given).
        """
        sign *= combo.sign
        if span_sink is None:
            return self._execute_combo_inner(
                query, residuals, local_filters, snapshot, combo, sign,
                scan_memo, hash_memo, partial_factory, stats, None,
            )
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
        partial = self._execute_combo_inner(
            query, residuals, local_filters, snapshot, combo, sign,
            scan_memo, hash_memo, partial_factory, stats, attrs,
        )
        span_sink.append(Span(
            name="subjoin",
            start=started,
            duration=time.perf_counter() - started,
            attrs=attrs,
        ))
        return partial

    def _execute_combo_inner(
        self,
        query: AggregateQuery,
        residuals: List[Expr],
        local_filters: Dict[str, List[Expr]],
        snapshot: int,
        combo: ComboSpec,
        sign: int,
        scan_memo: Dict[tuple, np.ndarray],
        hash_memo: Dict[tuple, object],
        partial_factory,
        stats: Optional[ExecutionStats],
        attrs: Optional[Dict[str, object]],
    ) -> Optional[GroupedAggregates]:
        missing = {ref.alias for ref in query.tables} - set(combo.partitions)
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
            return None

        # Scan every alias up front (memoized across subjoins): the counts
        # drive build-side selection, and any empty input empties the join.
        # Inputs restricted to given rows (compensation terms) are scanned
        # first; an empty one ends the subjoin before the full scans run,
        # and stands as its probe side.
        scans: Dict[str, np.ndarray] = {}
        for ref in sorted(query.tables, key=lambda ref: ref.alias not in combo.fixed_rows):
            rows = self._scan(ref.alias, combo, local_filters, snapshot, scan_memo)
            scans[ref.alias] = rows
            if not len(rows) and ref.alias in combo.fixed_rows:
                if stats is not None:
                    stats.probe_sides.append(ref.alias)
                if attrs is not None:
                    attrs["rows_scanned"] = {a: len(r) for a, r in sorted(scans.items())}
                    attrs["probe_side"] = ref.alias
                return empty()
        row_counts = {alias: len(rows) for alias, rows in scans.items()}
        reduced = _reduce_scans(query, combo, scans)
        reduced_counts = {alias: len(rows) for alias, rows in reduced.items()}
        # Runtime ordering ranks tier-weighted costs: identical to raw
        # counts while every partition is resident, biased toward probing
        # the memory-mapped side (hash tables built on hot inputs) once
        # cold mains participate.  It ranks the *scanned* counts, so the
        # semi-join reduction above never changes the plan — the joined
        # tuples come out in the same sequence with or without it, which
        # keeps group order and float summation order bit-identical.
        first, steps = choose_join_order(
            query, tier_weighted_costs(row_counts, combo.partitions)
        )
        if stats is not None:
            stats.probe_sides.append(first)
        if attrs is not None:
            attrs["rows_scanned"] = dict(sorted(row_counts.items()))
            if reduced_counts != row_counts:
                attrs["rows_after_reduction"] = dict(sorted(reduced_counts.items()))
            attrs["probe_side"] = first
            mapped = sorted(
                alias
                for alias, partition in combo.partitions.items()
                if getattr(partition, "storage_tier", "resident") == "mapped"
            )
            if mapped:
                attrs["tier"] = {alias: "mapped" for alias in mapped}
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
            if rows is not scans[step.alias]:
                # The memo key describes the partition's full scan; a table
                # over this subjoin's reduced rows must never be shared.
                table = build_hash_table(partition, rows, key_columns, kernel)
            else:
                extra = combo.extra_filters.get(step.alias, [])
                fixed = combo.fixed_rows.get(step.alias)
                hash_key = (
                    step.alias,
                    id(partition),
                    key_columns,
                    tuple(sorted(e.canonical() for e in extra)),
                    _fixed_rows_key(fixed),
                    kernel,  # a table built for a small step never serves a large one
                )
                table = hash_memo.get(hash_key)
                if table is None:
                    table = build_hash_table(partition, rows, key_columns, kernel)
                    hash_memo[hash_key] = table
            if not table:
                return empty()
            probe_columns = [edge.other(step.alias) for edge in step.edges]
            provider = probe_hash_join(
                provider, probe_columns, step.alias, partition, table
            )
            if provider.row_count() == 0:
                return empty()
        for residual in residuals:
            mask = residual.evaluate(provider).astype(bool)
            provider = provider.select(mask)
            if provider.row_count() == 0:
                return empty()
        partial = partial_factory()
        n = aggregate_into(partial, provider, query.group_by, query.aggregates, sign)
        if stats is not None:
            stats.rows_aggregated += n
        if attrs is not None:
            attrs["rows_aggregated"] = n
        return partial


def _reduce_scans(
    query: AggregateQuery, combo: ComboSpec, scans: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Sideways information passing: semi-join-reduce skewed inputs.

    Aliases are taken smallest-first; each one restricts every not yet taken
    join neighbour to the rows whose key occurs among its own (possibly
    already reduced) rows — :func:`~repro.query.operators.semi_join_reduce`,
    which declines unless the two sides are skewed enough to pay.  A small
    input thus thins the whole chain of joins hanging off it.  Every join
    edge is a conjunctive inner equi-join whose NULL keys never match, a
    reduction only drops rows that join nothing on that edge, and survivors
    keep their order, so the subjoin yields the identical tuple multiset
    from inputs sized by its smallest side.  Returns a new mapping; an alias
    that was not reduced keeps its (memoized) scan array *object*, which is
    how callers tell the two apart.  Ties break on the alias name, never on
    FROM order.
    """
    reduced = dict(scans)
    neighbours: Dict[str, List] = {alias: [] for alias in reduced}
    for edge in query.join_edges:
        for alias in edge.aliases():
            neighbours[alias].append(edge)
    pending = set(reduced)
    while pending:
        source = min(pending, key=lambda alias: (len(reduced[alias]), alias))
        pending.discard(source)
        if not len(reduced[source]):
            break  # the subjoin is empty; nothing left worth reducing
        for edge in neighbours[source]:
            target, target_column = edge.other(source)
            if target in pending:
                reduced[target] = semi_join_reduce(
                    combo.partitions[source], reduced[source], edge.side_for(source),
                    combo.partitions[target], reduced[target], target_column,
                )
    return reduced

