"""Incremental cache maintenance during the delta merge (Sections 5.2, 6.1).

The aggregate cache maintains its entries *only* at delta-merge time — not
per base-table modification (eager views) and not at query time (lazy
views).  When a (main, delta) pair of a table is merged, every entry whose
combination references that main partition is folded forward while the
pre-merge state is still queryable:

1. pay off the accumulated main-compensation debt of *all* referenced
   tables (invalidated rows are subtracted permanently — the merge drops
   them from the rebuilt main);
2. add the contribution of the subjoin in which the merging table reads its
   delta and every other table reads its (still pre-merge) main — exactly
   the rows the merge is about to move.

After the physical swap the entry is re-anchored: the merging alias points
at the rebuilt main with a fresh visibility snapshot, and the other aliases'
stored visibilities advance to the merge snapshot.

Step 1 is the all-main terms of the visibility step from the entry's birth
memo (:func:`repro.core.delta_memo.birth_memo`) to the merge snapshot — the
main compensation a read without a memo takes.  Both steps run over that
step's effective row sets of the merge snapshot
(:mod:`repro.core.effective_rows`): a main row whose successor changed no
column the query reads is not subtracted and the successor not added.
In the merging alias that pair simply leaves with the old partitions; in
any other alias the revived row is still counted by the value, so it stays
in the stored visibility, and the alias is marked as not as-stored until
its own table merges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..plan.cost import FILTER_SELECTIVITY
from ..query.aggregates import GroupedAggregates
from ..query.executor import ComboSpec, QueryExecutor
from ..query.expr import Cmp, Col, Lit
from ..storage.merge import MergeEvent
from .cache_entry import AggregateCacheEntry
from .cache_key import CacheKey
from .delta_memo import birth_memo, classify_memo, mains_as_stored, visibility_step
from .effective_rows import EffectiveRows, execute_effective
from .main_compensation import StaleEntryError


@dataclass
class _PendingMaintenance:
    """State carried from before_merge to after_merge for one entry."""

    entry: AggregateCacheEntry
    merging_alias: str
    corrected: GroupedAggregates
    elapsed: float
    # alias -> main rows the corrected value still counts although the
    # merge snapshot no longer sees them (effective_rows' revived sets).
    revived: Dict[str, np.ndarray]
    # The merge event this plan belongs to.  The atomic two-phase merge
    # announces *all* group events before any swap, so the manager holds
    # plans for several events at once and must pair each with its
    # after_merge (or cancel_merge) by identity.  Required: a plan with no
    # event could never be paired (or cancelled) and would leak forever.
    event: MergeEvent


def plan_entry_maintenance(
    entry: AggregateCacheEntry,
    event: MergeEvent,
    executor: QueryExecutor,
) -> Optional[_PendingMaintenance]:
    """Compute the post-merge value of ``entry`` (pre-merge state required).

    Returns None when the entry does not reference the merging main.
    Raises :class:`StaleEntryError` when the entry cannot be maintained
    (stale snapshot, or the merging main appears under several aliases —
    a self-join, which we drop rather than maintain).
    """
    merging_main = event.table.partition(event.main_name)
    aliases = [
        alias
        for alias, partition in entry.main_partitions.items()
        if partition is merging_main
    ]
    if not aliases:
        return None
    if len(aliases) > 1:
        raise StaleEntryError("self-join entries are not incrementally maintained")
    alias = aliases[0]
    started = time.perf_counter()
    # Step 1: retire invalidation debt (all aliases) — the terms of the
    # mains' step from birth, empty when no main moved (a stale entry raises
    # in birth_memo).
    if mains_as_stored(entry) and entry.matches_current_partitions():
        specs, effective = [], EffectiveRows()
    else:
        step = visibility_step(birth_memo(entry), entry, event.snapshot)
        specs, effective = step.specs(entry.main_partitions), step.effective
    # Step 2: fold in the rows the merge moves out of the delta(s) — the
    # insert delta plus, when the table keeps one, the separate update delta.
    for delta_name in (event.delta_name, event.update_delta_name):
        if delta_name is not None:
            combo = {**entry.main_partitions, alias: event.table.partition(delta_name)}
            specs.append(ComboSpec(combo))
    corrected = entry.value.copy()
    execute_effective(
        executor, entry.query, event.snapshot, specs, effective, corrected
    )
    elapsed = time.perf_counter() - started
    return _PendingMaintenance(
        entry, alias, corrected, elapsed, effective.revived, event
    )


def finish_entry_maintenance(
    pending: _PendingMaintenance, event: MergeEvent
) -> None:
    """Re-anchor the entry onto the rebuilt main (post-merge state)."""
    entry = pending.entry
    alias = pending.merging_alias
    new_main = event.table.partition(event.main_name)
    entry.rebase(
        alias,
        new_main,
        new_main.visibility(event.snapshot),
        pending.corrected,
        event.snapshot,
    )
    # The other aliases' partitions were not rebuilt, but their stored
    # visibility advances to the merge snapshot: step 1 above permanently
    # subtracted everything invisible at that snapshot — except the rows it
    # revived, which the value still counts.  Those stay stored, and an
    # epoch no partition ever has keeps effective_rows and the birth memo
    # from taking the alias as stored, which would count their successors.
    for other_alias, partition in entry.main_partitions.items():
        if other_alias != alias:
            stored = partition.visibility(event.snapshot)
            epoch = partition.invalidation_epoch
            revived = pending.revived.get(other_alias)
            if revived is not None:
                stored.set_many(revived)
                epoch = -1
            entry.visibility[other_alias] = stored
            entry.invalidation_epochs[other_alias] = epoch
    entry.metrics.maintenance_time += pending.elapsed
    # The merge consumed the delta rows this entry's compensation pressure
    # accumulated over, so the advisor's "time since last maintenance"
    # window restarts here — and *only* here: resetting in
    # plan_entry_maintenance would zero the pressure even when the
    # two-phase merge rolls back (cancel_merge), silently discarding the
    # accumulated signal; resetting on the successful finish can never
    # double-count because each merge finishes each entry at most once.
    entry.metrics.compensation_time_delta = 0.0


# ---------------------------------------------------------------------------
# Cardinality-based proactive refresh (idle-time maintenance)
# ---------------------------------------------------------------------------
#
# Between merges, entries accumulate changed rows that some future query
# will pay for at lookup time.  A refresh takes that query's visibility
# step now and installs the result; what it decides is the memo to step
# from.  The planner estimates *affected rows* per entry — rows appended or
# invalidated since the memo's watermarks, discounted by synopsis-based
# selectivity of the entry's local filters — and routes each entry to one
# of three actions (the strategy-selection idea from dynamic-tables-
# ducklake, SNIPPETS.md 3):
#
# * ``skip``     — nothing changed (or no single entry owns the plan);
# * ``advance``  — modest change: step the entry's memo, which reads only
#                  the changed rows;
# * ``rebuild``  — change dominates the covered prefix (or the memo cannot
#                  step: none, another partition set or exclusion): step
#                  from the entry's birth memo, which recomputes every
#                  subjoin (``refresh_rebuild_ratio``).
#
# ``Database.refresh_cache`` / ``MergeAdvisor.recommend_refresh`` drive
# this from idle hooks so steady-state traffic hits an already-advanced
# memo instead of paying the step on the critical path.


@dataclass
class RefreshDecision:
    """The routed refresh action for one cache entry."""

    key: CacheKey
    action: str  # "advance" | "rebuild" | "skip"
    reason: str
    #: Estimated rows a query-time step would fold in now (appended or
    #: invalidated since the watermarks, selectivity-discounted).
    affected_rows: int = 0
    #: Rows the memo's covered prefix already spares.
    covered_rows: int = 0

    def describe(self) -> str:
        return (
            f"{self.key.describe() if hasattr(self.key, 'describe') else self.key}"
            f": {self.action} ({self.reason}, ~{self.affected_rows} affected"
            f" / {self.covered_rows} covered)"
        )


def _synopsis_refutes(partition, expr) -> bool:
    """True when the partition's column synopsis proves an equality filter
    matches nothing — e.g. appended order lines can never satisfy
    ``ol_number = 7`` when the synopsis max is 5.  Only ``col = literal``
    conjuncts are inspected; anything else conservatively keeps the
    default selectivity."""
    if not isinstance(expr, Cmp) or expr.op != "=":
        return False
    col, lit = expr.left, expr.right
    if isinstance(col, Lit) and isinstance(lit, Col):
        col, lit = lit, col
    if not isinstance(col, Col) or not isinstance(lit, Lit):
        return False
    if col.name not in partition.column_names():
        return False
    stats = partition.column_stats(col.name)
    if stats.min is None or stats.max is None:
        return False
    try:
        return lit.value < stats.min or lit.value > stats.max
    except TypeError:  # mixed-type compare (str filter on int column etc.)
        return False


def _suffix_selectivity(partition, filters) -> float:
    """Estimated fraction of appended rows surviving the local filters:
    the planner's flat per-conjunct discount, sharpened to zero when a
    synopsis refutes an equality conjunct outright."""
    selectivity = 1.0
    for expr in filters:
        if _synopsis_refutes(partition, expr):
            return 0.0
        selectivity *= FILTER_SELECTIVITY
    return selectivity


def estimate_affected_rows(entry: AggregateCacheEntry, plan, memo) -> int:
    """Selectivity-discounted rows changed since ``memo``'s watermarks —
    appended or invalidated, what the partition's write ``version`` counts
    — the rows a query-time visibility step would fold in today."""
    alias_of: Dict[int, str] = {}
    for sub in plan.subjoins:
        for alias, partition in sub.partitions.items():
            alias_of[id(partition)] = alias
    affected = 0.0
    for pid, mark in memo.watermarks.items():
        partition = memo.partitions[pid]
        changed = partition.version - mark.version
        if changed <= 0:
            continue
        alias = alias_of.get(pid)
        filters = entry.query.local_filters(alias) if alias is not None else []
        affected += changed * _suffix_selectivity(partition, filters)
    return int(affected)


def plan_cache_refresh(
    manager, snapshot: int, rebuild_ratio: float
) -> List[RefreshDecision]:
    """Route every live entry to a refresh action at ``snapshot``.

    Pure planning — no aggregation happens here; the manager's
    ``refresh_entries`` applies the decisions (and the advisor's
    ``recommend_refresh`` surfaces them without applying)."""
    decisions: List[RefreshDecision] = []
    for entry in manager.entries():
        if not entry.is_active:
            continue
        key = entry.key
        try:
            plan = manager.plan_for(entry.query)
        except Exception:
            decisions.append(RefreshDecision(key, "skip", "unplannable"))
            continue
        if len(plan.cache_keys) != 1:
            # Hot/cold multi-entry plans share their compensation value
            # across entries; no entry memo holds it.
            decisions.append(RefreshDecision(key, "skip", "multi_entry"))
            continue
        memo = entry.delta_memo
        verdict = classify_memo(memo, snapshot, plan)
        if verdict == "birth":
            decisions.append(
                RefreshDecision(
                    key,
                    "rebuild",
                    "no_memo" if memo is None else "stale_memo",
                )
            )
            continue
        if verdict == "older_reader":  # pragma: no cover - global snapshot
            decisions.append(RefreshDecision(key, "skip", "older_reader"))
            continue
        covered = memo.rows_below_watermarks()
        affected = estimate_affected_rows(entry, plan, memo)
        pending = any(mark.ahead for mark in memo.watermarks.values())
        if affected == 0 and not pending:
            decisions.append(
                RefreshDecision(key, "skip", "clean", 0, covered)
            )
        elif affected > rebuild_ratio * max(1, covered):
            decisions.append(
                RefreshDecision(
                    key,
                    "rebuild",
                    f"change exceeds {rebuild_ratio:.0%} of covered prefix",
                    affected,
                    covered,
                )
            )
        else:
            decisions.append(
                RefreshDecision(key, "advance", "delta_growth", affected, covered)
            )
    return decisions
