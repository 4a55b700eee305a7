"""The aggregate cache manager (Fig. 1 / Fig. 3).

Orchestrates the full query path of the paper:

1. the query executor delegates qualifying aggregate query blocks here;
2. the cache matching process looks up an entry per all-main partition
   combination (one for plain tables, one per temperature under hot/cold
   partitioning);
3. on a miss the aggregate is computed on the main partitions with the
   global record visibility and, if the admission policy agrees, an entry
   is created;
4. hit or freshly created, **main compensation** then **delta compensation**
   are applied to produce the transaction-consistent result;
5. at delta-merge time the manager acts as a merge listener and maintains
   its entries incrementally (or drops them, per configuration).

Matching dependencies and consistent-aging declarations registered here
power the dynamic join pruning and predicate pushdown of delta compensation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from ..errors import QueryAborted
from ..obs.instruments import EngineMetrics
from ..obs.trace import QueryTrace, Span
from ..plan.cache import PlanCache
from ..plan.logical import Binder
from ..plan.physical import PhysicalPlan, Planner, plan_validity
from ..plan.star_join import normalize_star_join_override
from ..query.aggregates import GroupedAggregates
from ..query.executor import (
    ComboSpec,
    ExecutionStats,
    QueryExecutor,
    describe_partitions,
)
from ..query.query import AggregateQuery
from ..query.result import QueryResult
from ..query.sql import clear_parse_cache, parse_cache_stats, parse_sql
from ..storage.aging import ConsistentAging
from ..storage.catalog import Catalog
from ..storage.merge import MergeEvent
from ..txn.consistent_view import ConsistentViewManager
from ..txn.manager import Transaction
from .admission import AdmissionPolicy, AdmissionRequest, AlwaysAdmit
from .cache_entry import AggregateCacheEntry, ResultOrder
from .cache_key import CacheKey
from .effective_rows import execute_effective
from .delta_memo import (
    DeltaMemo,
    VisibilityStep,
    advance_memo,
    birth_memo,
    classify_memo,
    mains_as_stored,
    rows_saved,
    subjoin_step_specs,
    visibility_step,
)
from .eviction import EvictionPolicy, ProfitEviction
from .main_compensation import StaleEntryError
from .maintenance import (
    RefreshDecision,
    _PendingMaintenance,
    finish_entry_maintenance,
    plan_cache_refresh,
    plan_entry_maintenance,
)
from .matching_dependency import MatchingDependency
from .metrics import CacheMetrics
from .pruning import PruneReport
from .strategies import CacheConfig, ExecutionStrategy, MaintenanceMode


@dataclass
class CacheQueryReport:
    """Everything that happened while answering one query."""

    strategy: ExecutionStrategy
    fallback_uncached: bool = False  # query did not qualify for the cache
    cache_hits: int = 0
    entries_created: int = 0
    admission_rejected: int = 0
    entries_recomputed: int = 0  # stale/invalidated entries replaced
    #: Main rows this read subtracted: those that left since the anchor of
    #: the memo it stepped — the entry's snapshot for a step from birth.
    invalidated_rows_compensated: int = 0
    #: Invalidated main rows that were *not* subtracted because their
    #: visible successor changed no column this query reads (and that
    #: successor was hidden from delta compensation in exchange).
    silent_rows_cancelled: int = 0
    prune: PruneReport = field(default_factory=PruneReport)
    executor_stats: ExecutionStats = field(default_factory=ExecutionStats)
    time_total: float = 0.0
    time_cache_lookup_or_build: float = 0.0
    time_main_compensation: float = 0.0
    time_delta_compensation: float = 0.0
    #: How compensation ran: "incremental" (stepped the entry's memo over
    #: the rows that changed since its anchor), "full" (stepped from the
    #: entry's birth memo, i.e. recomputed everything; delta_memo_reason ""
    #: = no memo, "stale", or one that installs nothing: "older_reader", or
    #: "not_cached" for a miss whose fresh entry the cache did not keep),
    #: "bypass" (no single entry owns the compensation: "multi_entry" for
    #: hot/cold plans, "no_entry" for a direct scan — an entry newer than
    #: the reader), or "" for queries that never reach delta compensation.
    delta_memo_mode: str = ""
    delta_memo_reason: str = ""
    #: Covered prefix rows an incremental run did not rescan (0 otherwise).
    delta_memo_rows_saved: int = 0
    #: The read was a pure hit answered from the entry's remembered output
    #: order (see :class:`~repro.core.cache_entry.ResultOrder`): no state
    #: copy, no compensation, no HAVING / sort.
    result_reused: bool = False
    #: Always 0.  Kept because the end-to-end benchmark harness
    #: (benchmarks/e2e/driver.py) reads these two fields and
    #: ``counters_snapshot()["recycler_bytes"]``.
    recycler_hits: int = 0
    recycler_misses: int = 0
    #: Why the query bypassed the cache while degraded: "breaker_open"
    #: (cache breaker open, cached path skipped upfront) or "fallback"
    #: (the cached path failed mid-query and the answer was recomputed
    #: from the base tables).  Empty for healthy execution.
    degraded_reason: str = ""
    #: The physical plan the query ran (carries the bound statement).
    plan: Optional[PhysicalPlan] = None


@dataclass
class _MemoRoute:
    """The visibility step one read (or refresh) takes for an entry."""

    mode: str  # "incremental" | "full" (CacheQueryReport)
    reason: str
    entry: AggregateCacheEntry
    #: The memo object read under the lock: installs compare-and-swap
    #: against exactly it, so a concurrent reader that raced past this one
    #: cannot have its newer memo clobbered.
    memo: Optional[DeltaMemo]
    #: The memo stepped from: ``memo`` (incremental) or the birth memo.
    base: DeltaMemo
    #: ``base``'s visibility step to the snapshot.
    step: VisibilityStep


#: Flat per-entry estimates for the auxiliary caches under the memory
#: budget.  Plans and parsed statements are small object graphs whose true
#: size is not worth measuring precisely; the budget only needs them to
#: count as nonzero pressure so a pathological plan/parse cache cannot
#: hide from the shedder.
_PLAN_CACHE_BYTES_PER_ENTRY = 8 * 1024
_PARSE_CACHE_BYTES_PER_ENTRY = 2 * 1024


def _memo_nbytes(memo: DeltaMemo) -> int:
    """Approximate bytes held by a delta memo's folded aggregate (cached
    on the memo — it is never mutated after install)."""
    nbytes = getattr(memo, "_nbytes_cache", None)
    if nbytes is None:
        nbytes = memo.folded.approximate_nbytes()
        memo._nbytes_cache = nbytes
    return nbytes


def _subjoin_touches_mapped(sub) -> bool:
    """True when the subjoin involves a memory-mapped cold partition *now*
    (checked live: demotion keeps cached plans valid, so the plan-time
    flag can be stale)."""
    return any(
        getattr(p, "storage_tier", "resident") == "mapped"
        for p in sub.partitions.values()
    )


def _count_synopsis_skips(plan) -> int:
    """Pruned subjoins whose verdict spared a cold disk scan, per the
    partitions' current storage tier."""
    return sum(
        1
        for sub in plan.subjoins
        if sub.action == "pruned" and _subjoin_touches_mapped(sub)
    )


def _pruned_span(sub) -> Span:
    """The zero-cost trace span of one pruned compensation subjoin."""
    attrs = {
        "combo": describe_partitions(sub.partitions),
        "status": "pruned",
        "prune_reason": sub.reason,
    }
    if _subjoin_touches_mapped(sub):
        attrs["synopsis_pruned"] = True
    return Span(name="subjoin", attrs=attrs)


class AggregateCacheManager:
    """Manages aggregate cache entries and answers queries through them.

    Queries run concurrently under the database's shared lock, so the
    manager's own mutable state — the entry map, the access clock, and the
    lifetime counters — is guarded by an internal reentrant lock.  The lock
    is scoped to bookkeeping only: aggregate computation (entry builds,
    compensation) always happens outside it, so a cache miss never blocks
    concurrent hits.  Merge maintenance runs under the database's exclusive
    lock and takes the internal lock as well, purely for uniformity.
    """

    def __init__(
        self,
        catalog: Catalog,
        executor: QueryExecutor,
        view_manager: ConsistentViewManager,
        config: Optional[CacheConfig] = None,
        admission: Optional[AdmissionPolicy] = None,
        eviction: Optional[EvictionPolicy] = None,
        obs: Optional[EngineMetrics] = None,
        governor=None,
    ):
        self._catalog = catalog
        self._executor = executor
        self._views = view_manager
        self.obs = obs if obs is not None else EngineMetrics.disabled()
        self.config = config if config is not None else CacheConfig()
        self._admission = admission if admission is not None else AlwaysAdmit()
        self._eviction = eviction if eviction is not None else ProfitEviction()
        self._binder = Binder(catalog)
        self._planner = Planner(catalog, self.config)
        self.plan_cache = PlanCache(self.config.plan_cache_size)
        self._lock = threading.RLock()
        self._entries: Dict[CacheKey, AggregateCacheEntry] = {}
        self._mds: List[MatchingDependency] = []
        self._agings: List[ConsistentAging] = []
        self._clock = 0
        self._pending_maintenance: List[_PendingMaintenance] = []
        self._pending_drops: set = set()
        # Optional FaultInjector; the owning Database wires its own in so
        # the ``cache.maintenance`` fault point covers merge maintenance.
        self.fault_injector = None
        # Optional ResourceGovernor: its cache breaker gates the cached
        # path (degraded mode answers from the base tables) and its
        # memory budget drives shedding after each query.
        self.governor = governor
        # Lifetime counters (the monitor's system view).
        self.total_hits = 0
        self.total_misses = 0
        self.total_evictions = 0
        self.total_maintenance_runs = 0
        self.total_memo_hits = 0  # incremental delta-compensation reuses
        self.total_memo_misses = 0  # full recomputes that (re)built a memo
        self.total_memo_bypass = 0  # queries the memo layer stepped aside for
        # Proactive refreshes by action: "advance" stepped the entry's
        # memo, "rebuild" stepped from its birth.
        self.total_refreshes = {"advance": 0, "rebuild": 0}
        self.total_result_reuses = 0  # pure hits served from a remembered order

    # ------------------------------------------------------------------
    # object-awareness registration
    # ------------------------------------------------------------------
    def register_matching_dependency(self, md: MatchingDependency) -> None:
        """Activate an MD for pruning/pushdown decisions."""
        with self._lock:
            self._mds.append(md)
        self._bump_plan_epochs((md.parent_table, md.child_table))

    def register_consistent_aging(self, declaration: ConsistentAging) -> None:
        """Activate a consistent-aging declaration for logical pruning."""
        with self._lock:
            self._agings.append(declaration)
        self._bump_plan_epochs(
            (declaration.left_table, declaration.right_table)
        )

    def _bump_plan_epochs(self, table_names) -> None:
        """Invalidate cached plans over the given tables.

        Object-awareness registrations change the pruner of exactly the
        plans referencing these tables; bumping the table epochs fails
        their structure compare while unrelated plans stay hot.
        """
        for name in table_names:
            if self._catalog.has_table(name):
                self._catalog.table(name).bump_epoch()

    @property
    def matching_dependencies(self) -> List[MatchingDependency]:
        """The registered matching dependencies (copy)."""
        with self._lock:
            return list(self._mds)

    # ------------------------------------------------------------------
    # entry inspection (tests / metrics)
    # ------------------------------------------------------------------
    def entry_count(self) -> int:
        """Number of live cache entries."""
        with self._lock:
            return len(self._entries)

    def entries(self) -> List[AggregateCacheEntry]:
        """All live cache entries (copy of the list)."""
        with self._lock:
            return list(self._entries.values())

    def entries_for(self, query: AggregateQuery) -> List[AggregateCacheEntry]:
        """Entries caching the given query (any all-main combination)."""
        bound = self._executor.bind(query)
        text = bound.canonical_key()
        with self._lock:
            return [e for e in self._entries.values() if e.key.query_text == text]

    def clear(self) -> None:
        """Drop every cache entry."""
        with self._lock:
            self._entries.clear()

    def counters_snapshot(self) -> Dict[str, int]:
        """A consistent view of the lifetime counters (for the monitor).

        ``value_bytes`` is folded in here, under the same lock acquisition
        as the other counters: computing it separately from ``entries()``
        would tear — entries created/evicted between the two lock takes
        would make the byte total disagree with the entry count.
        ``tracked_bytes`` is included for the same reason: the governor's
        health view must describe the same instant as the entry count, not
        a second lock take during which a shed or insert may have run.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "value_bytes": sum(
                    e.metrics.size_bytes for e in self._entries.values()
                ),
                "tracked_bytes": self._tracked_bytes_locked(),
                "hits": self.total_hits,
                "misses": self.total_misses,
                "evictions": self.total_evictions,
                "maintenance_runs": self.total_maintenance_runs,
                "memo_hits": self.total_memo_hits,
                "memo_misses": self.total_memo_misses,
                "memo_bypass": self.total_memo_bypass,
                "recycler_bytes": 0,  # see CacheQueryReport.recycler_hits
                "refresh_advances": self.total_refreshes["advance"],
                "refresh_rebuilds": self.total_refreshes["rebuild"],
                "result_reuses": self.total_result_reuses,
            }

    def refresh_obs_gauges(self) -> None:
        """Push the current entry-map state into the metrics gauges.

        Called on scrape (``Database.export_metrics``) rather than per
        query: gauge freshness is a scrape-time concern and this walk
        takes the manager lock.
        """
        with self._lock:
            entries = list(self._entries.values())
            self.obs.cache_entries.set(len(entries))
            self.obs.cache_value_bytes.set(
                sum(e.metrics.size_bytes for e in entries)
            )
            self.obs.cache_profit_per_byte.set(
                sum(e.metrics.profit() for e in entries)
            )
            self.obs.governor_tracked_bytes.set(self._tracked_bytes_locked())
        self.obs.plan_cache_entries.set(len(self.plan_cache))
        tiers = {"hot": 0, "cold_resident": 0, "cold_mapped": 0}
        for name in self._catalog.table_names():
            for tier, value in self._catalog.table(name).tier_bytes().items():
                tiers[tier] += value
        for tier, value in tiers.items():
            self.obs.storage_tier_bytes.labels(tier).set(value)

    def evict_for_table(self, table_name: str) -> int:
        """Drop only the entries whose key references ``table_name``.

        Used by ``Database.drop_table``: entries over unrelated tables are
        unaffected by the drop and keep serving hits.  Returns the number of
        evicted entries.
        """
        with self._lock:
            victims = [
                key
                for key in self._entries
                if any(name == table_name for name, _ in key.table_ids)
            ]
            for key in victims:
                del self._entries[key]
                self.total_evictions += 1
            if victims:
                self.obs.cache_evictions.inc(len(victims))
        dropped_plans = self.plan_cache.evict_for_table(table_name)
        if dropped_plans:
            self.obs.plan_cache_evictions.inc(dropped_plans)
        return len(victims)

    def explain(self, query, strategy=None, star_join_tables=None):
        """Dry-run plan: see :func:`repro.core.explain.explain_query`."""
        from .explain import explain_query

        return explain_query(self, query, strategy, star_join_tables)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan_for(
        self,
        query: Union[str, AggregateQuery],
        strategy: Optional[ExecutionStrategy] = None,
        trace: Optional[QueryTrace] = None,
        star_join_tables=None,
    ) -> PhysicalPlan:
        """The :class:`PhysicalPlan` answering ``query`` under ``strategy``.

        Accepts raw SQL text or a query object.  The plan cache is probed
        first — for SQL text by the raw statement (a hit skips parse *and*
        bind), then by the bound statement's canonical + presentation keys
        (a hit covers re-spellings of the same statement).  A cached plan
        whose tables only saw DML since gets its verdicts re-derived
        (:meth:`_rederive`); otherwise the statement is bound and lowered,
        and the fresh plan is admitted under both slots.

        ``star_join_tables`` is the per-statement star-join override
        (None = config override, then automatic detection).  It is part
        of both cache-slot keys: the same statement planned under two
        overrides yields two distinct plans with distinct combo sets.

        EXPLAIN, EXPLAIN ANALYZE, and :meth:`execute` all call this — they
        consume the same plan object, so they cannot drift.
        """
        strategy = strategy if strategy is not None else self.config.default_strategy
        override = normalize_star_join_override(star_join_tables)
        sql = query if isinstance(query, str) else None
        sql_key = ("sql", sql, strategy.value, override) if sql is not None else None
        bind_span = trace.child("bind") if trace is not None else None
        plan = None
        outcome: Optional[str] = None
        if sql_key is not None:
            plan, outcome = self.plan_cache.get(sql_key, self._validity_of)
        bound = None
        if plan is None:
            parsed = parse_sql(sql) if sql is not None else query
            bound = self._binder.bind(parsed)
        if bind_span is not None:
            bind_span.finish()
        plan_span = trace.child("plan") if trace is not None else None
        if outcome == "stale":
            plan, outcome = self._rederive(sql_key, plan)
        elif plan is None:
            # The canonical key leaves out what does not change the cached
            # extent; the plan carries the whole statement, so its slot must
            # also tell HAVING / ORDER BY / LIMIT / output names apart.
            canon_key = (
                "canon",
                bound.canonical_key(),
                bound.presentation_key(),
                strategy.value,
                override,
            )
            plan, canon_outcome = self.plan_cache.get(canon_key, self._validity_of)
            if canon_outcome == "stale":
                plan, canon_outcome = self._rederive(canon_key, plan)
            if outcome is None or plan is not None or canon_outcome == "invalidated":
                outcome = canon_outcome
            if plan is None:
                plan = self._build(self._binder.plan(bound), strategy, override)
                self.plan_cache.put(
                    canon_key,
                    plan,
                    alias_keys=(sql_key,) if sql_key is not None else (),
                )
            elif sql_key is not None:
                # Canonical hit for a new spelling: future repeats of this
                # exact text skip parse/bind too.
                self.plan_cache.add_alias(sql_key, canon_key)
        if plan_span is not None:
            plan_span.finish()
            if self.plan_cache.enabled and outcome is not None:
                plan_span.attrs["plan_cache"] = outcome
        if self.plan_cache.enabled and outcome is not None:
            self.obs.plan_cache_lookups.labels(outcome).inc()
        return plan

    def _build(self, logical, strategy, override) -> PhysicalPlan:
        """A full plan build under the registered MDs and agings."""
        build_started = time.perf_counter()
        with self._lock:
            mds, agings = list(self._mds), list(self._agings)
        plan = self._planner.build(
            logical, strategy, mds, agings, star_override=override
        )
        self.obs.plan_build_seconds.observe(time.perf_counter() - build_started)
        return plan

    def _rederive(self, key, stale: PhysicalPlan) -> Tuple[PhysicalPlan, str]:
        """Settle a ``"stale"`` lookup of ``key`` — same structure, the data
        moved — outside the cache lock.

        The verdicts are re-derived over the cached skeleton (outcome
        ``"hit"``).  If the star-join exclusions flipped instead, the plan
        is rebuilt from the cached logical plan, which the unchanged
        structure keeps valid (outcome ``"invalidated"``).
        """
        fresh = self._planner.reprune(stale)
        rederived = fresh is not None
        if not rederived:
            fresh = self._build(stale.logical, stale.strategy, stale.star_override)
        self.plan_cache.settle(key, stale, fresh, rederived)
        return fresh, "hit" if rederived else "invalidated"

    def _validity_of(self, plan: PhysicalPlan) -> Tuple[Tuple, Tuple]:
        """The current ``(structure, signature)`` of a cached plan's
        tables, under the plan's own exclusion decision (see
        :func:`~repro.plan.physical.plan_validity`)."""
        return plan_validity(
            self._catalog,
            self.config,
            plan.table_names(),
            plan.star_override,
            plan.excluded,
        )

    # ------------------------------------------------------------------
    # query execution (Fig. 3)
    # ------------------------------------------------------------------
    def execute(
        self,
        query: Union[str, AggregateQuery],
        txn: Transaction,
        strategy: Optional[ExecutionStrategy] = None,
        trace: Optional[QueryTrace] = None,
        cancel=None,
        star_join_tables=None,
    ) -> Tuple[QueryResult, CacheQueryReport]:
        """Answer a query through the cache pipeline (Fig. 3); returns
        (finished result, report).

        The rows are finished here rather than by the caller because a
        *pure hit* — one entry, nothing to compensate — is answered
        from the entry itself: :meth:`_reuse_result` emits the rows from
        ``entry.value`` in the output order an earlier such read
        remembered, and :meth:`_remember_order` records that order once
        the finished rows exist.

        ``cancel`` (a :class:`~repro.governor.deadline.CancelToken`) is
        checked at every subjoin boundary down the pipeline; an expired or
        cancelled token aborts with a typed
        :class:`~repro.errors.QueryAborted` and leaves no torn state —
        memos install only after a fully successful run, and statistics
        are recorded only for completed queries.

        With a governor attached, the cached path is additionally guarded
        by the cache circuit breaker: while it is open the query bypasses
        the cache entirely (``degraded_reason="breaker_open"``), and a
        failure *inside* cached execution feeds the breaker and falls
        back to a clean from-scratch run over the base tables
        (``degraded_reason="fallback"``) instead of failing the query.
        """
        strategy = strategy if strategy is not None else self.config.default_strategy
        report = CacheQueryReport(strategy=strategy)
        started = time.perf_counter()
        plan = self.plan_for(query, strategy, trace, star_join_tables)
        report.plan = plan
        bound = plan.query
        if cancel is not None:
            cancel.check()
        governor = self.governor
        degraded = ""
        if (
            strategy.uses_cache
            and plan.cacheable
            and governor is not None
            and not governor.cache_path_allowed()
        ):
            degraded = "breaker_open"
            governor.record_degraded_query(degraded)
        if not strategy.uses_cache or not plan.cacheable or degraded:
            if strategy.uses_cache:
                report.fallback_uncached = True
            report.degraded_reason = degraded
            scan_span = (
                trace.child("uncached_scan", fallback=report.fallback_uncached)
                if trace is not None
                else None
            )
            grouped = self._executor.execute(
                bound,
                txn.snapshot,
                # A degraded query carries a *cached* plan whose subjoins
                # are compensation-only; the full partition product
                # (combos=None) is the correct uncached evaluation.
                combos=None if degraded else plan.evaluated_specs(),
                stats=report.executor_stats,
                cancel=cancel,
            )
            if scan_span is not None:
                scan_span.finish()
            finished = QueryResult.from_grouped(bound, grouped)
            report.time_total = time.perf_counter() - started
            self._record_query_obs(report)
            self._maybe_shed()
            return finished, report
        try:
            with self._lock:
                self._clock += 1
            finished = self._reuse_result(plan, txn, report, trace)
            if finished is None:
                # The entries' values go to ``result``; everything the read
                # adds to or takes from them to ``comp``, which a memo keeps.
                result = GroupedAggregates(bound.aggregates)
                comp = result.new_like(signed=True)
                answered = [
                    self._apply_main_entry(
                        plan, combo, key, txn, result, comp, report, trace, cancel
                    )
                    for combo, key in zip(plan.cached_combos, plan.cache_keys)
                ]
                pure = self._apply_delta_compensation(
                    plan, txn, result, comp, report, answered, trace, cancel
                )
        except QueryAborted:
            raise  # a deadline/cancel abort is not a cache failure
        except Exception as exc:
            if governor is None:
                raise
            governor.record_cache_failure(exc)
            governor.record_degraded_query("fallback")
            return self._fallback_uncached(
                bound, txn, strategy, plan, trace, cancel, started
            )
        if governor is not None:
            governor.record_cache_success()
        if finished is None:
            finished = QueryResult.from_grouped(bound, result)
            if pure is not None:
                self._remember_order(plan, txn.snapshot, *pure, finished)
        report.time_total = time.perf_counter() - started
        self._record_query_obs(report)
        self._maybe_shed()
        return finished, report

    def _fallback_uncached(
        self,
        bound: AggregateQuery,
        txn: Transaction,
        strategy: ExecutionStrategy,
        plan: PhysicalPlan,
        trace: Optional[QueryTrace],
        cancel,
        started: float,
    ) -> Tuple[QueryResult, CacheQueryReport]:
        """Recompute a failed cached query from the base tables.

        Runs with a **fresh** report (and fresh executor stats) so nothing
        from the torn cached attempt leaks into what the caller sees.
        """
        report = CacheQueryReport(
            strategy=strategy,
            plan=plan,
            fallback_uncached=True,
            degraded_reason="fallback",
        )
        scan_span = (
            trace.child("uncached_scan", fallback=True, degraded=True)
            if trace is not None
            else None
        )
        grouped = self._executor.execute(
            bound,
            txn.snapshot,
            combos=None,
            stats=report.executor_stats,
            cancel=cancel,
        )
        if scan_span is not None:
            scan_span.finish()
        finished = QueryResult.from_grouped(bound, grouped)
        report.time_total = time.perf_counter() - started
        self._record_query_obs(report)
        self._maybe_shed()
        return finished, report

    # ------------------------------------------------------------------
    # the pure hit (architecture §4)
    # ------------------------------------------------------------------
    def _reuse_result(
        self,
        plan: PhysicalPlan,
        txn: Transaction,
        report: CacheQueryReport,
        trace: Optional[QueryTrace],
    ) -> Optional[QueryResult]:
        """Answer from the entry's remembered output order, if it holds.

        It holds when a read taking the long way would provably derive it
        again: the entry still carries the value and memo objects the
        order was derived beside (the memo's compensation was empty), no
        referenced table changed since (plan signature), and the reader
        sits inside the window in which no row of any referenced table
        changes visibility — so its step from the memo is empty.  Then the
        rows are emitted from ``entry.value`` in that order — nothing is
        copied, compensated, filtered or sorted — and the read is reported
        as the incremental hit it stands for.
        """
        if len(plan.cache_keys) != 1:
            return None
        # Started detached: a read that does not qualify leaves no span.
        lookup = Span.begin("cache_lookup") if trace is not None else None
        started = time.perf_counter()
        snapshot = txn.snapshot
        with self._lock:
            entry = self._entries.get(plan.cache_keys[0])
            order = entry.result_order if entry is not None else None
            if (
                order is None
                or order.value is not entry.value
                or order.memo is not entry.delta_memo
                or order.signature != plan.signature
                or not (order.anchor <= snapshot < order.horizon)
                or order.presentation != plan.query.presentation_key()
                or not entry.is_active
            ):
                return None
            entry.metrics.record_use(self._clock)
            self.total_hits += 1
            self.total_result_reuses += 1
        if self.fault_injector is not None:
            self.fault_injector.fire("cache.compensation")
        finished = QueryResult.trusted(
            plan.query.output_columns(), order.value.finalize_slots(order.slots)
        )
        report.cache_hits += 1
        report.result_reused = True
        report.delta_memo_mode = "incremental"
        report.delta_memo_rows_saved = order.rows_saved
        report.time_cache_lookup_or_build = time.perf_counter() - started
        self.obs.cache_lookups.labels("hit").inc()
        self.obs.cache_result_reuse.inc()
        span = None
        if lookup is not None:
            lookup.attrs.update(
                combo=describe_partitions(plan.cached_combos[0]),
                outcome="hit",
                reused=True,
            )
            trace.root.children.append(lookup.finish())
            # One child per planned subjoin, as in every other mode.
            span = trace.child("delta_compensation")
            self._synthesize_memo_spans(plan, {}, [], span.children)
        self._close_compensation(plan, report, span)
        return finished

    def _remember_order(
        self,
        plan: PhysicalPlan,
        snapshot: int,
        entry: AggregateCacheEntry,
        memo: DeltaMemo,
        finished: QueryResult,
    ) -> None:
        """Record the output order of a read whose compensation added
        nothing (see :meth:`_apply_delta_compensation`): ``memo``, the memo
        the entry holds after the read, has an empty ``folded``.

        The horizon runs over *every* partition of every referenced table,
        mains included: an order is a statement about the whole answer,
        and a stamp above the anchor anywhere — say a delete stamped by a
        still-open later transaction before this read — ends the window in
        which older and newer readers see the same rows.
        """
        value = entry.value
        horizon = float("inf")
        for table in set(entry.tables.values()):
            for partition in table.partitions():
                horizon = min(horizon, partition.min_stamp_after(snapshot))
        # The finished rows start with their group key; the key table maps
        # each to its slot in the value.
        width = len(plan.query.group_by)
        order = ResultOrder(
            slots=value.slots_of(row[:width] for row in finished.rows),
            presentation=plan.query.presentation_key(),
            value=value,
            memo=memo,
            signature=plan.signature,
            anchor=snapshot,
            horizon=horizon,
            rows_saved=rows_saved(plan.subjoins, memo.watermarks),
        )
        with self._lock:
            if (
                self._entries.get(entry.key) is entry
                and entry.is_active
                and entry.value is value
                and entry.delta_memo is memo
            ):
                entry.result_order = order

    def _record_query_obs(self, report: CacheQueryReport) -> None:
        """Fold one finished query's report into the metrics registry.

        The subjoin counters come from the executor stats (evaluated and
        empty subjoins, rows aggregated); the per-reason prune counters are
        folded once per query from the plan's prune report (see
        :meth:`_record_prune_obs`), so nothing here double-counts.
        """
        obs = self.obs
        if not obs.enabled:
            return
        obs.queries.labels(report.strategy.name.lower()).inc()
        obs.query_seconds.observe(report.time_total)
        stats = report.executor_stats
        if stats.combos_evaluated:
            obs.subjoins_evaluated.inc(stats.combos_evaluated)
        if stats.combos_empty:
            obs.subjoins_empty.inc(stats.combos_empty)
        if stats.rows_aggregated:
            obs.rows_aggregated.inc(stats.rows_aggregated)
        if report.time_main_compensation:
            obs.main_compensation_seconds.observe(report.time_main_compensation)
        if report.time_delta_compensation:
            obs.delta_compensation_seconds.observe(report.time_delta_compensation)
        if report.invalidated_rows_compensated:
            obs.compensated_rows.inc(report.invalidated_rows_compensated)
        if report.silent_rows_cancelled:
            obs.silent_rows_cancelled.inc(report.silent_rows_cancelled)

    # ------------------------------------------------------------------
    def _apply_main_entry(
        self,
        plan: PhysicalPlan,
        combo: Dict,
        key: CacheKey,
        txn: Transaction,
        result: GroupedAggregates,
        comp: GroupedAggregates,
        report: CacheQueryReport,
        trace: Optional[QueryTrace] = None,
        cancel=None,
    ) -> Tuple[Optional[AggregateCacheEntry], Optional[_MemoRoute]]:
        """Look up / create the entry for one all-main combination, fold its
        value into ``result`` and its main compensation into ``comp``.

        ``key`` was computed by the planner — on a plan-cache hit the key
        derivation is skipped entirely.  A miss answers from the entry it
        just built, whether or not the cache kept it (a transient entry
        steps from its birth memo and installs nothing), so the all-main
        join runs once per miss.  Returns the entry whose value answered
        this combination, or None when the combination was answered by a
        direct scan (the entry is newer than the reader); and the
        visibility step the read takes for the entry (None without an
        entry, or when several entries answer the plan), whose main-side
        terms — the rows that entered or left the mains since the stepped
        memo's anchor — run here.
        """
        bound = plan.query
        span = (
            trace.child("cache_lookup", combo=describe_partitions(combo))
            if trace is not None
            else None
        )
        lookup_started = time.perf_counter()
        if cancel is not None:
            cancel.check()  # per-combination boundary
        with self._lock:
            entry = self._entries.get(key)
            recomputed = entry is not None and (
                not entry.is_active or not entry.matches_current_partitions()
            )
            if recomputed:
                self._entries.pop(key, None)
                report.entries_recomputed += 1
                entry = None
            if entry is None:
                self.total_misses += 1
                outcome = "recomputed" if recomputed else "miss"
            else:
                report.cache_hits += 1
                self.total_hits += 1
                outcome = "hit"
        self.obs.cache_lookups.labels(outcome).inc()
        if span is not None:
            span.attrs["outcome"] = outcome
        resident = True
        if entry is None:
            build_span = span.child("build_entry") if span is not None else None
            entry, resident = self._create_entry(
                bound, combo, key, report, build_span, cancel
            )
            if build_span is not None:
                build_span.finish()
        report.time_cache_lookup_or_build += time.perf_counter() - lookup_started
        try:
            if txn.snapshot < entry.snapshot:
                # The entry is anchored at a newer snapshot than this reader
                # (time travel, or a transaction begun before the last merge).
                # Main compensation can only *subtract*; rows the old reader
                # should see that the entry no longer carries cannot be added
                # back, so answer this combination directly from the base data.
                self._direct_main_scan(bound, combo, txn, result, report, span, cancel)
                return None, None
            with self._lock:
                entry.metrics.record_use(self._clock)
            result.merge(entry.value)
            comp_span = Span.begin("main_compensation") if span is not None else None
            comp_started = time.perf_counter()
            if len(plan.cache_keys) == 1:
                route = self._route_memo(plan, txn.snapshot, entry, resident=resident)
                base, step = route.base, route.step
            else:
                # Hot/cold plans answer through several entries whose
                # compensation union no single memo holds: each entry's
                # mains step from birth — an empty step when no main moved.
                if mains_as_stored(entry):
                    return entry, None
                route, base = None, birth_memo(entry)
                step = visibility_step(base, entry, txn.snapshot)
            moved = {
                alias: step.shifts[id(partition)]
                for alias, partition in entry.main_partitions.items()
                if id(partition) in step.shifts
            }
            if not moved and not step.effective:
                # The mains read as the stepped memo left them.
                return entry, route
            specs = step.specs(entry.main_partitions, pruner=plan.pruner)
            if specs:
                execute_effective(
                    self._executor, bound, txn.snapshot, specs, step.effective,
                    comp, cancel=cancel,
                )
            rows = sum(shift.rows_left() for shift in moved.values())
            elapsed = time.perf_counter() - comp_started
            if comp_span is not None:
                span.children.append(comp_span.finish())
                comp_span.attrs.update(
                    dirty_aliases=sorted(moved),
                    terms=len(specs),
                    invalidated_rows=rows,
                    memo_anchor=base.anchor,
                    rows_compensated=rows,
                )
                if step.effective:
                    comp_span.attrs["revived_rows"] = step.effective.cancelled
                    comp_span.attrs["suppressed_rows"] = sum(
                        map(len, step.effective.suppressed.values())
                    )
            entry.metrics.compensation_time_main += elapsed
            report.time_main_compensation += elapsed
            report.invalidated_rows_compensated += rows
            report.silent_rows_cancelled += step.effective.cancelled
            return entry, route
        finally:
            if span is not None:
                span.finish()

    def _route_memo(
        self,
        plan: PhysicalPlan,
        snapshot: int,
        entry: AggregateCacheEntry,
        from_birth: bool = False,
        resident: bool = True,
    ) -> _MemoRoute:
        """The visibility step to ``snapshot`` for a single-entry ``plan``:
        from the entry's memo when it can take it, else from the entry's
        birth memo (always with ``from_birth``, and for an entry not kept
        in the cache: ``resident`` false).  Raises
        :class:`StaleEntryError` when the entry's mains were rebuilt."""
        with self._lock:
            memo = entry.delta_memo
        verdict = "birth" if from_birth else classify_memo(memo, snapshot, plan)
        if verdict == "incremental":
            step = visibility_step(memo, entry, snapshot)
            if step is not None:
                return _MemoRoute("incremental", "", entry, memo, memo, step)
        # An older reader predates the memo's anchor; the memo stays put
        # for newer readers.  An entry the cache did not keep holds nothing
        # past this read.  Neither installs (see :meth:`_install`).
        if not resident:
            reason = "not_cached"
        else:
            reason = verdict if verdict == "older_reader" else "" if memo is None else "stale"
        base = birth_memo(entry, plan)
        step = visibility_step(base, entry, snapshot)
        return _MemoRoute("full", reason, entry, memo, base, step)

    def _direct_main_scan(
        self,
        bound: AggregateQuery,
        combo: Dict,
        txn: Transaction,
        result: GroupedAggregates,
        report: CacheQueryReport,
        parent_span: Optional[Span],
        cancel=None,
    ) -> None:
        """Answer one all-main combination straight from the base data: the
        reader is older than the entry (see :meth:`_apply_main_entry`)."""
        scan_span = (
            parent_span.child("direct_scan", reason="entry_too_new")
            if parent_span is not None
            else None
        )
        self._executor.execute(
            bound,
            txn.snapshot,
            combos=[ComboSpec(dict(combo))],
            into=result,
            stats=report.executor_stats,
            cancel=cancel,
        )
        if scan_span is not None:
            scan_span.finish()

    def _create_entry(
        self,
        bound: AggregateQuery,
        combo: Dict,
        key: CacheKey,
        report: CacheQueryReport,
        span: Optional[Span] = None,
        cancel=None,
    ) -> Tuple[AggregateCacheEntry, bool]:
        """Compute the main aggregate with global visibility; admit or not.
        Returns the entry that answers the combination and whether the
        cache holds it.

        The entry built here answers whatever the cache does with it: one
        the admission policy rejects, or the eviction it triggers removes
        at once, is *transient* — never in the entry map, read once from
        its birth memo and dropped.  The (expensive) aggregate build runs
        without the manager lock held; only the admission decision and the
        entry-map insert are serialized.  If another thread admitted an
        equivalent entry while this one was computing, the first entry wins
        and this build is discarded; the read stays the miss it was.
        """
        global_snapshot = self._views.txn_manager.global_snapshot()
        build_started = time.perf_counter()
        value = self._executor.execute(
            bound, global_snapshot, combos=[ComboSpec(dict(combo))], cancel=cancel
        )
        creation_time = time.perf_counter() - build_started
        self.obs.cache_build_seconds.observe(creation_time)
        records = value.total_rows_aggregated()
        request = AdmissionRequest(bound, value, creation_time, records)
        entry = AggregateCacheEntry(
            key=key,
            query=bound,
            value=value,
            tables={ref.alias: self._catalog.table(ref.table) for ref in bound.tables},
            main_partitions=dict(combo),
            visibility={
                alias: partition.visibility(global_snapshot)
                for alias, partition in combo.items()
            },
            snapshot=global_snapshot,
            metrics=CacheMetrics(
                size_bytes=value.approximate_nbytes(),
                aggregated_records_main=records,
                creation_time_main=creation_time,
            ),
        )
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and existing.is_active and (
                existing.matches_current_partitions()
            ):
                if span is not None:
                    span.attrs["resident"] = True
                return existing, True
            admitted = self._admission.admit(request)
            entry.metrics.last_access_clock = self._clock
            if admitted:
                self._entries[key] = entry
                report.entries_created += 1
                self._run_eviction()
            else:
                report.admission_rejected += 1
            # The freshly inserted entry may itself have been evicted.
            resident = self._entries.get(key) is entry
        if span is not None:
            span.attrs.update(admitted=admitted, resident=resident)
        return entry, resident

    def _run_eviction(self) -> None:
        with self._lock:
            victims = self._eviction.select_victims(
                self._entries, self.config.max_entries, self.config.max_bytes
            )
            for key in victims:
                del self._entries[key]
                self.total_evictions += 1
            if victims:
                self.obs.cache_evictions.inc(len(victims))

    # ------------------------------------------------------------------
    # memory budget (governor-driven shedding)
    # ------------------------------------------------------------------
    def tracked_bytes(self) -> int:
        """Approximate bytes charged against the memory budget: cached
        values, delta memos, remembered output orders, and the plan/parse
        caches."""
        with self._lock:
            return self._tracked_bytes_locked()

    def _tracked_bytes_locked(self) -> int:
        total = 0
        for entry in self._entries.values():
            total += entry.metrics.size_bytes
            memo = entry.delta_memo
            if memo is not None:
                total += _memo_nbytes(memo)
            order = entry.result_order
            if order is not None:
                total += order.nbytes()
        total += len(self.plan_cache) * _PLAN_CACHE_BYTES_PER_ENTRY
        total += (
            parse_cache_stats()["entries"] * _PARSE_CACHE_BYTES_PER_ENTRY
        )
        total += self._cold_overhead_bytes()
        return total

    def _cold_overhead_bytes(self) -> int:
        """Resident bytes held *on behalf of* mapped cold partitions —
        loaded lazy dictionaries.  Counted against the budget (they are
        pure re-read caches) and shed first."""
        total = 0
        for name in self._catalog.table_names():
            for partition in self._catalog.table(name).partitions():
                if partition.storage_tier == "mapped":
                    total += partition.nbytes_resident()
        return total

    def _shed_cold_locked(self) -> int:
        """Release every loaded cold handle; returns bytes freed."""
        freed = 0
        for name in self._catalog.table_names():
            for partition in self._catalog.table(name).partitions():
                if partition.storage_tier == "mapped":
                    freed += partition.release_cold()
        return freed

    def _maybe_shed(self) -> None:
        """Post-query hook: shed down to the governor's budget, if any."""
        governor = self.governor
        if governor is None or governor.memory_budget_bytes is None:
            return
        self.shed_to_budget(governor.memory_budget_bytes)

    def shed_to_budget(self, budget_bytes: int) -> Dict[str, int]:
        """Shed cache state until ``tracked_bytes() <= budget_bytes``.

        Shedding follows profit order — cheapest-to-rebuild state first:

        1. **mapped cold columns** (released lazy dictionaries / memmap
           handles re-fault in from the cold files on next access — no
           recompute at all);
        2. **delta memos and remembered output orders** before entries
           (they only accelerate a hit; the entry keeps serving without
           them), least-recently-used entries' first — an order is tied to
           its memo object, so the two go together;
        3. **cold entries before hot** via the existing eviction
           machinery (:class:`ProfitEviction` — lowest profit first);
        4. the **plan and parse caches** last (pure recompute caches).

        Returns the per-kind shed counts (keys ``cold``, ``memo``,
        ``entry``, ``plan``); totals are recorded on the governor
        (``repro_governor_sheds_total``).
        """
        shed = {"cold": 0, "memo": 0, "entry": 0, "plan": 0}
        freed = {"cold": 0, "memo": 0, "entry": 0, "plan": 0}
        evicted = 0
        plan_dropped = 0
        with self._lock:
            tracked = self._tracked_bytes_locked()
            if tracked <= budget_bytes:
                if self.governor is not None:
                    self.governor.set_tracked_bytes(tracked)
                return shed
            cold_freed = self._shed_cold_locked()
            if cold_freed:
                tracked -= cold_freed
                freed["cold"] = cold_freed
                shed["cold"] = 1
                if tracked <= budget_bytes:
                    if self.governor is not None:
                        self.governor.record_shed("cold", 1, cold_freed)
                        self.governor.set_tracked_bytes(tracked)
                    return shed
            by_lru = sorted(
                self._entries.values(),
                key=lambda e: e.metrics.last_access_clock,
            )
            for entry in by_lru:
                if tracked <= budget_bytes:
                    break
                memo, order = entry.delta_memo, entry.result_order
                if memo is None and order is None:
                    continue
                nbytes = (_memo_nbytes(memo) if memo is not None else 0) + (
                    order.nbytes() if order is not None else 0
                )
                entry.delta_memo = entry.result_order = None
                tracked -= nbytes
                freed["memo"] += nbytes
                shed["memo"] += 1
            if tracked > budget_bytes:
                # select_victims budgets over entry value bytes only, so
                # subtract the non-entry overhead from the global budget.
                overhead = tracked - sum(
                    e.metrics.size_bytes for e in self._entries.values()
                )
                victims = self._eviction.select_victims(
                    self._entries,
                    None,
                    max(0, budget_bytes - overhead),
                )
                for key in victims:
                    nbytes = self._entries[key].metrics.size_bytes
                    del self._entries[key]
                    self.total_evictions += 1
                    tracked -= nbytes
                    freed["entry"] += nbytes
                    shed["entry"] += 1
                evicted = len(victims)
            if tracked > budget_bytes:
                plan_dropped = self.plan_cache.clear()
                parse_entries = parse_cache_stats()["entries"]
                clear_parse_cache()
                shed["plan"] = plan_dropped + parse_entries
                freed["plan"] = (
                    plan_dropped * _PLAN_CACHE_BYTES_PER_ENTRY
                    + parse_entries * _PARSE_CACHE_BYTES_PER_ENTRY
                )
                tracked -= freed["plan"]
            final_tracked = tracked
        if evicted:
            self.obs.cache_evictions.inc(evicted)
        if plan_dropped:
            self.obs.plan_cache_evictions.inc(plan_dropped)
        governor = self.governor
        if governor is not None:
            for kind, count in shed.items():
                if count:
                    governor.record_shed(kind, count, freed[kind])
            governor.set_tracked_bytes(final_tracked)
        return shed

    def _apply_delta_compensation(
        self,
        plan: PhysicalPlan,
        txn: Transaction,
        result: GroupedAggregates,
        comp: GroupedAggregates,
        report: CacheQueryReport,
        answered: List[Tuple[Optional[AggregateCacheEntry], Optional[_MemoRoute]]],
        trace: Optional[QueryTrace] = None,
        cancel=None,
    ) -> Optional[Tuple[AggregateCacheEntry, DeltaMemo]]:
        """Aggregate the plan's surviving compensation subjoins into
        ``comp``, and ``comp`` into ``result``.

        The pruning work already happened at plan time; here the pruned
        subjoins only emit their trace spans, and the evaluated ones run
        through the executor with their pushdown filters attached.

        When the query was answered by exactly one cache entry, the read's
        visibility step (see :mod:`repro.core.delta_memo`) does the work:
        the stepped memo's folded compensation is merged as-is, and the
        step's terms over each delta subjoin join only the rows that
        entered or left since its anchor — every row, for a step from the
        entry's birth memo.  Otherwise (``bypass``: hot/cold multi-entry
        plans, direct-scan answers) the compensation union runs whole.

        Returns ``(entry, memo)`` when the one entry answering the plan
        got nothing added — ``result`` still equals its value — ``memo``
        being the memo the entry holds after this read; None otherwise.
        :meth:`_remember_order` takes it from there.
        """
        if self.fault_injector is not None:
            self.fault_injector.fire("cache.compensation")
        span = trace.child("delta_compensation") if trace is not None else None
        # Pruned subjoins never reach the executor, so their spans are
        # appended while walking the plan; the evaluated ones are appended
        # by the executor in combination order (bypass) or synthesized
        # from the planned subjoin list (a step).  One sink, every subjoin
        # exactly once — EXPLAIN ANALYZE parity depends on it.
        span_sink = span.children if span is not None else None
        entries = [entry for entry, _route in answered]
        route = answered[0][1] if len(answered) == 1 else None
        comp_started = time.perf_counter()
        pure = None
        if route is None:
            report.delta_memo_mode = "bypass"
            report.delta_memo_reason = (
                "multi_entry" if len(plan.cache_keys) != 1 else "no_entry"
            )
            self._compensation_union(plan, txn, comp, report, span_sink, cancel)
            result.merge(comp)
        else:
            report.delta_memo_mode, report.delta_memo_reason = route.mode, route.reason
            memo = self._delta_compensation_step(
                plan, txn, result, comp, report, span_sink, route, cancel
            )
            if memo is not None and memo.folded.group_count() == 0:
                pure = (route.entry, memo)
        elapsed = time.perf_counter() - comp_started
        report.time_delta_compensation += elapsed
        # Compensation-pressure accounting: attribute this query's delta-
        # compensation time to the entries it compensated for, so the merge
        # advisor's pressure signal reflects real work.  The counter is
        # cumulative until the entry's *successful* maintenance resets it
        # (see finish_entry_maintenance) — a cancelled two-phase merge
        # must neither reset nor double-count it.
        owners = [e for e in entries if e is not None]
        if owners:
            share = elapsed / len(owners)
            with self._lock:
                for owner in owners:
                    owner.metrics.compensation_time_delta += share
        self._close_compensation(plan, report, span)
        return pure

    def _close_compensation(
        self, plan: PhysicalPlan, report: CacheQueryReport, span: Optional[Span]
    ) -> None:
        """What every compensated read ends with, whichever way its memo
        mode was decided: the prune report, the per-mode counters, and the
        ``delta_compensation`` span's summary attributes."""
        report.prune = PruneReport(**vars(plan.prune))  # the report's own copy
        # Synopsis skips are a property of the *current* storage tier, not
        # of plan time: demotion deliberately leaves cached plans valid, so
        # a plan built pre-demotion undercounts and must be re-derived from
        # the live partitions (promotion back only happens via merge, which
        # invalidates the plan anyway).
        report.prune.synopsis_skips = _count_synopsis_skips(plan)
        self._record_prune_obs(report.prune)
        mode = report.delta_memo_mode
        outcome = {"incremental": "hit", "full": "miss", "bypass": "bypass"}[mode]
        with self._lock:
            if mode == "incremental":
                self.total_memo_hits += 1
            elif mode == "full":
                self.total_memo_misses += 1
            else:
                self.total_memo_bypass += 1
        if self.obs.enabled:
            self.obs.delta_memo_lookups.labels(outcome).inc()
            if report.delta_memo_rows_saved:
                self.obs.delta_memo_rows_saved.inc(report.delta_memo_rows_saved)
        if span is not None:
            span.finish()
            span.attrs["subjoins_total"] = report.prune.combos_total
            span.attrs["subjoins_pruned"] = report.prune.pruned_total
            if plan.excluded:
                span.attrs["excluded"] = [e.describe() for e in plan.excluded]
                span.attrs["subjoins_excluded"] = report.prune.combos_excluded
            span.attrs["compensation"] = mode
            if report.delta_memo_reason:
                span.attrs["compensation_reason"] = report.delta_memo_reason
            if mode == "incremental":
                span.attrs["rows_saved"] = report.delta_memo_rows_saved

    def _compensation_union(
        self,
        plan: PhysicalPlan,
        txn: Transaction,
        comp: GroupedAggregates,
        report: CacheQueryReport,
        span_sink: Optional[List[Span]],
        cancel=None,
    ) -> None:
        """Evaluate every surviving subjoin into ``comp``: the compensation
        of a plan no single entry answers, which no memo holds."""
        combos: List[ComboSpec] = []
        for sub in plan.subjoins:
            if sub.action == "pruned":
                if span_sink is not None:
                    span_sink.append(_pruned_span(sub))
                continue
            combos.append(sub.to_spec())
        self._executor.execute(
            plan.query,
            txn.snapshot,
            combos=combos,
            into=comp,
            stats=report.executor_stats,
            span_sink=span_sink,
            cancel=cancel,
        )

    def _delta_compensation_step(
        self,
        plan: PhysicalPlan,
        txn: Transaction,
        result: GroupedAggregates,
        comp: GroupedAggregates,
        report: CacheQueryReport,
        span_sink: Optional[List[Span]],
        route: _MemoRoute,
        cancel=None,
    ) -> Optional[DeltaMemo]:
        """Finish the route's step over the delta subjoins and merge the
        stepped memo's folded value.

        The executor evaluates the step's telescoped terms of every
        evaluated subjoin (see :func:`~repro.core.delta_memo.
        subjoin_step_specs`) into ``comp``, which already holds the main-
        side terms; the advanced memo's folded value (the stepped memo's
        plus ``comp``) goes into the result.  The advance is installed
        compare-and-swap: a losing racer keeps its correct local result and
        discards its memo.
        Returns the memo the entry holds for this read's snapshot — the
        advanced one, or the entry's memo itself when nothing moved — and
        None for a losing racer or an older reader.
        """
        base, step = route.base, route.step
        specs, spec_counts = subjoin_step_specs(plan, step)
        if route.mode == "incremental":
            report.delta_memo_rows_saved = rows_saved(plan.subjoins, base.watermarks)
        inner: List[Span] = []
        if specs:
            execute_effective(
                self._executor,
                plan.query,
                txn.snapshot,
                specs,
                step.effective,
                comp,
                inner if span_sink is not None else None,
                stats=report.executor_stats,
                cancel=cancel,
            )
        if span_sink is not None:
            self._synthesize_memo_spans(plan, spec_counts, inner, span_sink)
        advanced = self._advance(route, txn.snapshot, comp, plan.signature)
        result.merge(advanced.folded)
        if advanced is route.memo:
            return advanced
        return self._install(route, advanced)

    @staticmethod
    def _advance(
        route: _MemoRoute, snapshot: int, increment: GroupedAggregates, signature: Tuple
    ) -> DeltaMemo:
        """The route's memo advanced over its step.  A birth memo the step
        found nothing moved in (empty deltas, mains as stored) is still
        re-anchored at ``snapshot``, so installing it never moves the
        entry's memo anchor back."""
        advanced = advance_memo(route.base, route.step, snapshot, increment, signature)
        if advanced is route.base and route.mode == "full":
            advanced = replace(advanced, anchor=snapshot, signature=signature)
        return advanced

    def _install(self, route: _MemoRoute, memo: DeltaMemo) -> Optional[DeltaMemo]:
        """Compare-and-swap ``memo`` onto the route's entry; returns it when
        it went in.  A reader older than the entry's memo never installs
        (the memo's anchor only moves forward), nor does a read of an entry
        the cache did not keep."""
        if route.reason in ("older_reader", "not_cached"):
            return None
        entry = route.entry
        with self._lock:
            if entry.delta_memo is route.memo and entry.is_active:
                entry.delta_memo = memo
                return memo
        return None

    @staticmethod
    def _synthesize_memo_spans(
        plan: PhysicalPlan,
        spec_counts: Dict[int, int],
        inner: List[Span],
        span_sink: List[Span],
    ) -> None:
        """Emit one "subjoin" span per planned subjoin for a visibility step.

        The executor produced one span per *expanded* spec; those become
        "memo_scan" children of their planned subjoin's span so trace
        consumers (parity tests, EXPLAIN ANALYZE) see the same one-span-
        per-planned-subjoin shape in every compensation mode, with the
        rows its terms scanned summed per alias.  A subjoin none of whose
        inputs moved is ``memoized``; one whose every spec was cancelled
        away (:func:`~repro.core.effective_rows.execute_effective`) is
        ``cancelled``.
        """
        cursor = 0
        for index, sub in enumerate(plan.subjoins):
            if sub.action == "pruned":
                span_sink.append(_pruned_span(sub))
                continue
            count = spec_counts.get(index, 0)
            children = inner[cursor : cursor + count]
            cursor += count
            duration = 0.0
            scanned = dict.fromkeys(sorted(sub.partitions), 0)
            for child in children:
                child.name = "memo_scan"
                duration += child.duration
                for alias, rows in child.attrs.get("rows_scanned", {}).items():
                    scanned[alias] += rows
            if not count:
                status = "memoized"
            elif all(child.attrs["status"] == "cancelled" for child in children):
                status = "cancelled"
            else:
                status = "evaluated"
            span_sink.append(
                Span(
                    name="subjoin",
                    duration=duration,
                    attrs={
                        "combo": describe_partitions(sub.partitions),
                        "status": status,
                        "rows_scanned": scanned,
                    },
                    children=children,
                )
            )

    def _record_prune_obs(self, prune: PruneReport) -> None:
        """Fold a query's prune report into the per-reason counters.

        The planner prunes without metrics (a cached plan would otherwise
        stop counting); instead every execution folds its plan's report
        here, so plan-cache hits and misses count identically.
        """
        obs = self.obs
        if not obs.enabled:
            return
        for reason, count in (
            ("empty", prune.pruned_empty),
            ("logical", prune.pruned_logical),
            ("dynamic", prune.pruned_dynamic),
        ):
            if count:
                obs.subjoins_pruned.labels(reason).inc(count)
        if prune.pushdown_filters:
            obs.pushdown_filters.inc(prune.pushdown_filters)
        if prune.synopsis_skips:
            obs.pruning_synopsis_skips.inc(prune.synopsis_skips)

    # ------------------------------------------------------------------
    # proactive refresh (idle-time maintenance)
    # ------------------------------------------------------------------
    def refresh_entries(
        self,
        snapshot: int,
        decisions: Optional[List[RefreshDecision]] = None,
        max_entries: Optional[int] = None,
    ) -> List[RefreshDecision]:
        """Apply cardinality-routed refreshes (see
        :func:`repro.core.maintenance.plan_cache_refresh`): take each routed
        entry's visibility step *now*, off the query path, from its memo
        (``advance``) or from its birth memo (``rebuild``), so the next hit
        replays an already-advanced memo.

        ``decisions`` defaults to a fresh plan; ``max_entries`` bounds the
        work per idle tick (remaining decisions are returned untouched).
        Returns the decision list with each applied action recorded.
        """
        if decisions is None:
            decisions = plan_cache_refresh(
                self, snapshot, self.config.refresh_rebuild_ratio
            )
        applied = 0
        for decision in decisions:
            if decision.action == "skip":
                if self.obs.enabled:
                    self.obs.cache_refresh.labels("skip").inc()
                continue
            if max_entries is not None and applied >= max_entries:
                break
            with self._lock:
                entry = self._entries.get(decision.key)
            if entry is None or not entry.is_active:
                decision.action, decision.reason = "skip", "entry_gone"
                continue
            try:
                plan = self.plan_for(entry.query)
            except Exception:
                decision.action, decision.reason = "skip", "unplannable"
                continue
            if len(plan.cache_keys) != 1:
                decision.action, decision.reason = "skip", "multi_entry"
                continue
            action = self._refresh_entry(
                entry, plan, snapshot, decision.action == "rebuild"
            )
            if not action:
                decision.action, decision.reason = "skip", "raced"
                continue
            if action != decision.action:
                decision.action, decision.reason = action, "advance_raced"
            applied += 1
            with self._lock:
                self.total_refreshes[action] += 1
            if self.obs.enabled:
                self.obs.cache_refresh.labels(action).inc()
        return decisions

    def _refresh_entry(
        self, entry, plan: PhysicalPlan, snapshot: int, from_birth: bool
    ) -> str:
        """Take the entry's visibility step to ``snapshot`` — main side and
        delta subjoins alike — and CAS-install the advanced memo.  Steps
        from the entry's memo unless ``from_birth`` or the memo cannot step
        (raced away / partitions swapped / a stamp landed at or below its
        anchor).  Returns ``"advance"`` (stepped the memo), ``"rebuild"``
        (stepped from birth), or ``""`` when the entry went stale or the
        install lost a race."""
        try:
            route = self._route_memo(plan, snapshot, entry, from_birth)
        except StaleEntryError:
            return ""  # the next read recomputes the entry itself
        step = route.step
        inc = route.base.folded.new_like()
        if step.shifts:
            specs = step.specs(entry.main_partitions, pruner=plan.pruner)
            specs += subjoin_step_specs(plan, step)[0]
            execute_effective(
                self._executor, plan.query, snapshot, specs, step.effective, inc
            )
        advanced = self._advance(route, snapshot, inc, plan.signature)
        if advanced is not route.memo and self._install(route, advanced) is None:
            return ""
        return "advance" if route.mode == "incremental" else "rebuild"

    # ------------------------------------------------------------------
    # merge maintenance (MergeListener protocol)
    # ------------------------------------------------------------------
    def before_merge(self, event: MergeEvent) -> None:
        """Fold each affected entry forward while pre-merge state exists.

        The atomic merge announces every group event before any swap, so
        plans for several events accumulate here; ``after_merge`` consumes
        only its own event's plans and ``cancel_merge`` discards them when
        the merge aborts.
        """
        if self.fault_injector is not None:
            self.fault_injector.fire("cache.maintenance")
        with self._lock:
            self._before_merge_locked(event)

    def _before_merge_locked(self, event: MergeEvent) -> None:
        for key, entry in self._entries.items():
            if not entry.is_active:
                self._pending_drops.add(key)
                continue
            if self.config.maintenance_mode is MaintenanceMode.DROP:
                if self._entry_references(entry, event):
                    self._pending_drops.add(key)
                continue
            try:
                pending = plan_entry_maintenance(entry, event, self._executor)
            except StaleEntryError:
                self._pending_drops.add(key)
                continue
            if pending is not None:
                self._pending_maintenance.append(pending)

    def after_merge(self, event: MergeEvent) -> None:
        """Re-anchor maintained entries onto the rebuilt main partitions.

        A plan that fails to apply demotes gracefully: the entry is dropped
        (and recomputed on next use) instead of poisoning the merge — the
        swap already happened, so the merge must not fail here.
        """
        with self._lock:
            own = [p for p in self._pending_maintenance if p.event is event]
            self._pending_maintenance = [
                p for p in self._pending_maintenance if p.event is not event
            ]
            for pending in own:
                try:
                    finish_entry_maintenance(pending, event)
                except Exception:
                    self._pending_drops.add(pending.entry.key)
                    continue
                self.total_maintenance_runs += 1
                self.obs.cache_maintenance_runs.inc()
            for key in self._pending_drops:
                self._entries.pop(key, None)
            self._pending_drops = set()

    def cancel_merge(self, event: Optional[MergeEvent] = None) -> None:
        """Discard maintenance planned for an aborted merge.

        Called by ``merge_table`` when the merge fails before the swap: the
        pre-merge partitions stay in place, so the affected entries remain
        valid as-is and the planned (never-applied) corrections are dropped.
        ``event=None`` discards everything pending.
        """
        with self._lock:
            if event is None:
                self._pending_maintenance = []
            else:
                self._pending_maintenance = [
                    p for p in self._pending_maintenance if p.event is not event
                ]
            if not self._pending_maintenance:
                self._pending_drops = set()

    @staticmethod
    def _entry_references(entry: AggregateCacheEntry, event: MergeEvent) -> bool:
        merging_main = event.table.partition(event.main_name)
        return any(
            partition is merging_main
            for partition in entry.main_partitions.values()
        )
