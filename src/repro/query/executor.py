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

Subjoins are mutually independent, so the executor can shard the
combination list across a thread pool (:class:`ParallelConfig`): each
worker folds its subjoins into a private grouped partial and the partials
are merged back **in combination order**, making parallel results
bit-identical to serial ones.  Workers either share one lock-striped memo
or keep per-worker memos, per configuration.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..concurrency import DictMemo, StripedMemo
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
from .parallel import MEMO_PRIVATE, ParallelConfig
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
    """Counters filled during one ``execute`` call.

    In parallel executions every subjoin fills a private instance which is
    folded back via :meth:`merge` in combination order, so serial and
    parallel runs of the same query produce *identical* stats — including
    the order of ``subjoins`` and ``probe_sides``.
    """

    combos_evaluated: int = 0
    combos_empty: int = 0
    rows_aggregated: int = 0
    subjoins: List[str] = field(default_factory=list)
    #: Per subjoin, the alias chosen as the probe (non-hashed) side.
    probe_sides: List[str] = field(default_factory=list)

    def merge(self, other: "ExecutionStats") -> None:
        """Fold another stats object into this one (order-preserving)."""
        self.combos_evaluated += other.combos_evaluated
        self.combos_empty += other.combos_empty
        self.rows_aggregated += other.rows_aggregated
        self.subjoins.extend(other.subjoins)
        self.probe_sides.extend(other.probe_sides)


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

    def __init__(self, catalog: Catalog, parallel: Optional[ParallelConfig] = None):
        self._catalog = catalog
        self._binder = Binder(catalog)
        self._parallel = parallel
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_size = 0
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # worker pool
    # ------------------------------------------------------------------
    @property
    def parallel_config(self) -> Optional[ParallelConfig]:
        """The default parallel configuration (None = always serial)."""
        return self._parallel

    def _ensure_pool(self, n_workers: int) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None or self._pool_size != n_workers:
                if self._pool is not None:
                    self._pool.shutdown(wait=False)
                self._pool = ThreadPoolExecutor(
                    max_workers=n_workers, thread_name_prefix="repro-subjoin"
                )
                self._pool_size = n_workers
            return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent; executor stays usable —
        a later parallel execute recreates the pool)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
                self._pool_size = 0

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
        parallel: Optional[ParallelConfig] = None,
        span_sink: Optional[List[Span]] = None,
        cancel=None,
    ) -> GroupedAggregates:
        """Evaluate the union of the given subjoins into a grouped state.

        ``combos`` defaults to the full partition product.  ``into`` lets
        the aggregate cache fold compensation contributions into (a copy of)
        a cached value; ``sign=-1`` subtracts, for main compensation.

        ``parallel`` overrides the executor's default
        :class:`ParallelConfig` for this call.  Every subjoin is evaluated
        into a private partial which is merged into the result **in
        combination order**, for serial and parallel runs alike — the two
        modes perform the same floating-point operations in the same order
        and return bit-identical results and stats.

        ``span_sink`` collects one trace :class:`Span` per evaluated
        subjoin (partition assignment, rows scanned, probe side, pushdown
        filter counts, worker id).  Spans are appended in combination
        order, so serial and parallel runs produce the same span sequence
        up to timings and worker names.

        ``cancel`` is an optional
        :class:`~repro.governor.deadline.CancelToken`: it is checked
        before every subjoin — in the serial fold loop and inside every
        parallel worker task — so a cancelled or timed-out query aborts
        at the next subjoin boundary with a typed
        :class:`~repro.errors.QueryAborted` instead of running to
        completion.  An abort folds nothing further into ``into``.
        """
        if cancel is not None:
            cancel.check()
        bound = self.bind(query)
        if combos is None:
            combos = [
                ComboSpec(partitions)
                for partitions in all_partition_combos(bound, self._catalog)
            ]
        else:
            combos = list(combos)
        grouped = into if into is not None else GroupedAggregates(bound.aggregates)
        residuals = bound.residual_filters()
        local_filters = {ref.alias: bound.local_filters(ref.alias) for ref in bound.tables}
        want_stats = stats is not None
        want_spans = span_sink is not None
        config = parallel if parallel is not None else self._parallel
        partial_factory = grouped.new_like
        if config is not None and config.should_parallelize(
            len(combos), _physical_rows(combos)
        ):
            partials = self._run_parallel(
                bound, residuals, local_filters, snapshot, combos, sign,
                want_stats, config, partial_factory, want_spans, cancel,
            )
        else:
            scan_memo, hash_memo = DictMemo(), DictMemo()
            partials = (
                self._execute_combo(
                    bound, residuals, local_filters, snapshot, combo, sign,
                    scan_memo, hash_memo, want_stats, partial_factory,
                    want_spans,
                )
                for combo in combos
            )
        for partial, combo_stats, span in partials:
            if cancel is not None:
                cancel.check()  # serial subjoin boundary (parallel workers check in-task)
            if want_stats:
                stats.merge(combo_stats)
            if want_spans and span is not None:
                span_sink.append(span)
            if partial is not None:
                grouped.merge(partial)
        return grouped

    def _run_parallel(
        self,
        query: AggregateQuery,
        residuals: List[Expr],
        local_filters: Dict[str, List[Expr]],
        snapshot: int,
        combos: Sequence[ComboSpec],
        sign: int,
        want_stats: bool,
        config: ParallelConfig,
        partial_factory,
        want_spans: bool = False,
        cancel=None,
    ):
        """Submit one task per subjoin; yield results in combination order."""
        if config.memo == MEMO_PRIVATE:
            per_thread: Dict[int, Tuple[DictMemo, DictMemo]] = {}

            def memos() -> Tuple[DictMemo, DictMemo]:
                ident = threading.get_ident()
                pair = per_thread.get(ident)
                if pair is None:
                    # setdefault keeps the first pair if two tasks on a new
                    # thread race (they cannot: one thread, one task at a
                    # time — but stay defensive).
                    pair = per_thread.setdefault(ident, (DictMemo(), DictMemo()))
                return pair

        else:
            shared = (StripedMemo(), StripedMemo())

            def memos() -> Tuple[StripedMemo, StripedMemo]:
                return shared

        def task(combo: ComboSpec):
            if cancel is not None:
                cancel.check()  # parallel subjoin boundary, on the worker
            scan_memo, hash_memo = memos()
            return self._execute_combo(
                query, residuals, local_filters, snapshot, combo, sign,
                scan_memo, hash_memo, want_stats, partial_factory, want_spans,
            )

        pool = self._ensure_pool(config.n_workers)
        futures = [pool.submit(task, combo) for combo in combos]
        for future in futures:
            yield future.result()

    def _scan(
        self,
        alias: str,
        combo: ComboSpec,
        local_filters: Dict[str, List[Expr]],
        snapshot: int,
        scan_memo,
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

        def compute() -> np.ndarray:
            if isinstance(fixed, RowRange):
                rows = partition.visible_rows_in(snapshot, fixed.start, fixed.stop)
                return filter_rows(
                    alias, partition, rows, local_filters[alias] + extra
                )
            if fixed is not None:
                return filter_rows(
                    alias, partition, fixed, local_filters[alias] + extra
                )
            return scan_partition(
                alias, partition, snapshot, local_filters[alias] + extra
            )

        return scan_memo.get_or_compute(key, compute)

    def _execute_combo(
        self,
        query: AggregateQuery,
        residuals: List[Expr],
        local_filters: Dict[str, List[Expr]],
        snapshot: int,
        combo: ComboSpec,
        sign: int,
        scan_memo,
        hash_memo,
        want_stats: bool,
        partial_factory,
        want_spans: bool = False,
    ) -> Tuple[Optional[GroupedAggregates], Optional[ExecutionStats], Optional[Span]]:
        """Evaluate one subjoin into a fresh partial grouped state.

        Returns ``(partial, stats, span)``; the partial is None when the
        subjoin is empty and the span is None unless requested.  The
        caller folds everything back in combination order.
        """
        sign *= combo.sign
        if not want_spans:
            return (*self._execute_combo_inner(
                query, residuals, local_filters, snapshot, combo, sign,
                scan_memo, hash_memo, want_stats, partial_factory, None,
            ), None)
        attrs: Dict[str, object] = {
            "combo": combo.describe(),
            "status": "evaluated",
            "worker": threading.current_thread().name,
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
        partial, stats = self._execute_combo_inner(
            query, residuals, local_filters, snapshot, combo, sign,
            scan_memo, hash_memo, want_stats, partial_factory, attrs,
        )
        span = Span(
            name="subjoin",
            start=started,
            duration=time.perf_counter() - started,
            attrs=attrs,
        )
        return partial, stats, span

    def _execute_combo_inner(
        self,
        query: AggregateQuery,
        residuals: List[Expr],
        local_filters: Dict[str, List[Expr]],
        snapshot: int,
        combo: ComboSpec,
        sign: int,
        scan_memo,
        hash_memo,
        want_stats: bool,
        partial_factory,
        attrs: Optional[Dict[str, object]],
    ) -> Tuple[Optional[GroupedAggregates], Optional[ExecutionStats]]:
        missing = {ref.alias for ref in query.tables} - set(combo.partitions)
        if missing:
            raise QueryError(f"combo misses partitions for aliases {sorted(missing)}")
        stats = ExecutionStats() if want_stats else None
        if stats is not None:
            stats.combos_evaluated += 1
            stats.subjoins.append(combo.describe())

        def empty():
            if stats is not None:
                stats.combos_empty += 1
            if attrs is not None:
                attrs["status"] = "empty"
            return None, stats

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
                table = hash_memo.get_or_compute(
                    hash_key,
                    lambda: build_hash_table(partition, rows, key_columns, kernel),
                )
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
        return partial, stats


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


def _physical_rows(combos: Sequence[ComboSpec]) -> int:
    """Summed physical row count over the distinct partitions referenced —
    a cheap upper bound on the scan work a combination list implies."""
    seen: Dict[int, int] = {}
    for combo in combos:
        for partition in combo.partitions.values():
            seen[id(partition)] = partition.row_count
    return sum(seen.values())
