"""EXPLAIN for aggregate-cache query processing.

Renders, without executing the query, how the cache manager would answer
it: which all-main combinations are cached (hit/miss), and for every
compensation subjoin whether it would be evaluated or pruned — and by which
mechanism (empty partition, logical hot/cold, dynamic tid range) — plus any
join-predicate-pushdown filters and the cost-seeded join order that would
be used.  This is the introspection surface for understanding the paper's
optimizations on a live database.

All the fates rendered here come straight from the
:class:`~repro.plan.physical.PhysicalPlan` the manager's planner built —
the same object :meth:`~repro.core.manager.AggregateCacheManager.execute`
interprets — so EXPLAIN can never disagree with execution.  Only the
HIT/MISS entry states and the displayed join order are resolved here: the
order is the executor's own :func:`~repro.plan.cost.choose_join_order` over
plan-time estimates of the current partitions (at run time the executor
ranks the actual scan counts instead), so the plan need not carry it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..plan.cost import choose_join_order, estimate_scan_rows
from ..query.query import AggregateQuery
from .strategies import ExecutionStrategy


@dataclass
class SubjoinPlan:
    """Fate of one compensation subjoin."""

    partitions: Dict[str, str]  # alias -> partition name
    action: str  # "evaluate" | "pruned"
    reason: str = ""  # "", "empty", "logical", "dynamic"
    pushdown: Dict[str, List[str]] = field(default_factory=dict)
    #: Cost-seeded probe side / left-deep join order (multi-table only).
    probe_side: Optional[str] = None
    join_order: List[str] = field(default_factory=list)

    def describe(self) -> str:
        """One-line rendering of this subjoin's fate."""
        inner = ", ".join(f"{a}:{p}" for a, p in sorted(self.partitions.items()))
        if self.action == "pruned":
            return f"({inner})  PRUNED [{self.reason}]"
        tail = ""
        if len(self.join_order) > 1:
            tail = f"  [probe={self.probe_side}, order={'->'.join(self.join_order)}]"
        if self.pushdown:
            filters = "; ".join(
                f"{alias}: {' AND '.join(exprs)}"
                for alias, exprs in sorted(self.pushdown.items())
            )
            return f"({inner})  EVALUATE with pushdown {{{filters}}}{tail}"
        return f"({inner})  EVALUATE{tail}"


@dataclass
class QueryPlan:
    """The full explanation of one query under one strategy."""

    strategy: ExecutionStrategy
    cacheable: bool
    cached_combos: List[Dict[str, str]] = field(default_factory=list)
    entry_states: List[str] = field(default_factory=list)  # "HIT"/"MISS" per combo
    subjoins: List[SubjoinPlan] = field(default_factory=list)
    #: Star-join variant reduction: the excluded aliases and the number of
    #: combinations never enumerated because of them.
    excluded: List[str] = field(default_factory=list)
    combos_excluded: int = 0

    def render(self) -> str:
        """Multi-line rendering of the whole plan."""
        lines = [f"strategy: {self.strategy.value}"]
        if not self.cacheable:
            lines.append(
                "query does not qualify for the aggregate cache "
                "(non-self-maintainable aggregates); executes uncached over "
                "all partition combinations"
            )
            return "\n".join(lines)
        if self.strategy is ExecutionStrategy.UNCACHED:
            lines.append("aggregate cache bypassed; all subjoins evaluated:")
            for plan in self.subjoins:
                lines.append(f"  {plan.describe()}")
            return "\n".join(lines)
        lines.append("cached all-main combinations:")
        for combo, state in zip(self.cached_combos, self.entry_states):
            inner = ", ".join(f"{a}:{p}" for a, p in sorted(combo.items()))
            lines.append(f"  ({inner})  {state}")
        if self.excluded:
            lines.append(
                f"star-join reduction: excluded=[{', '.join(self.excluded)}] "
                f"({self.combos_excluded} combinations not enumerated)"
            )
        evaluated = sum(1 for s in self.subjoins if s.action == "evaluate")
        pruned = len(self.subjoins) - evaluated
        lines.append(
            f"delta compensation: {len(self.subjoins)} subjoins "
            f"({evaluated} evaluated, {pruned} pruned):"
        )
        for plan in self.subjoins:
            lines.append(f"  {plan.describe()}")
        return "\n".join(lines)


def explain_query(
    manager,
    query: Union[str, AggregateQuery],
    strategy: Optional[ExecutionStrategy] = None,
) -> QueryPlan:
    """Build the :class:`QueryPlan` for ``query`` under ``strategy``.

    ``manager`` is the :class:`~repro.core.manager.AggregateCacheManager`;
    nothing is executed and no entry is created.  The fates are taken from
    the manager's (possibly cached) physical plan, never re-derived.
    """
    strategy = strategy if strategy is not None else manager.config.default_strategy
    physical = manager.plan_for(query, strategy)
    plan = QueryPlan(strategy=strategy, cacheable=physical.cacheable)
    plan.excluded = [e.alias for e in physical.excluded]
    plan.combos_excluded = physical.prune.combos_excluded
    if not plan.cacheable:
        return plan
    for combo, key in zip(physical.cached_combos, physical.cache_keys):
        with manager._lock:
            entry = manager._entries.get(key)
            state = (
                "HIT"
                if entry is not None and entry.matches_current_partitions()
                else "MISS (would be computed and admitted)"
            )
        plan.cached_combos.append({alias: p.name for alias, p in combo.items()})
        plan.entry_states.append(state)
    for sub in physical.subjoins:
        names = sub.partition_names()
        if sub.action == "pruned":
            plan.subjoins.append(SubjoinPlan(names, "pruned", sub.reason))
            continue
        rendered = {
            alias: [e.canonical() for e in exprs]
            for alias, exprs in sub.pushdown.items()
        }
        probe, order = display_join_order(physical.query, sub)
        plan.subjoins.append(
            SubjoinPlan(
                names, "evaluate", pushdown=rendered, probe_side=probe, join_order=order
            )
        )
    return plan


def display_join_order(query: AggregateQuery, sub) -> Tuple[str, List[str]]:
    """Probe side and left-deep order (probe first) of one evaluated
    subjoin, seeded from estimated scan sizes: partition rows halved per
    local or pushdown filter."""
    estimates = {
        alias: estimate_scan_rows(
            partition.row_count,
            len(query.local_filters(alias)) + len(sub.pushdown.get(alias, ())),
        )
        for alias, partition in sub.partitions.items()
    }
    probe, steps = choose_join_order(query, estimates)
    return probe, [probe] + [step.alias for step in steps]
