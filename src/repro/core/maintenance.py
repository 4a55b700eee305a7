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

Both steps prune as a read does (:mod:`repro.core.pruning`): step 1's
terms are dropped when Equation 5 finds their row sets' tid ranges
disjoint, and each step-2 subjoin goes through the pruner's verdict —
skipped when empty, logically or dynamically pruned, evaluated with its
Section 5.3 pushdown filters otherwise.  A pruned subjoin is provably
empty, so the maintained value is the one evaluating it would give.  The
Header event of an ERP merge is the common case: Header merges before
Item, so ``Header:delta x Item:main`` pairs fresh header tids with old
item tids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..query.aggregates import GroupedAggregates
from ..query.executor import ComboSpec, QueryExecutor
from ..storage.merge import MergeEvent
from .cache_entry import AggregateCacheEntry
from .delta_memo import birth_memo, mains_as_stored, visibility_step
from .effective_rows import EffectiveRows, execute_effective
from .main_compensation import StaleEntryError
from .pruning import JoinPruner


@dataclass
class _PendingMaintenance:
    """State carried from before_merge to after_merge for one entry."""

    entry: AggregateCacheEntry
    merging_alias: str
    corrected: GroupedAggregates
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
    pruner: JoinPruner,
) -> Optional[_PendingMaintenance]:
    """Compute the post-merge value of ``entry`` (pre-merge state required),
    skipping the subjoins ``pruner`` (the entry's statement's) finds empty.

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
    # Step 1: retire invalidation debt (all aliases) — the terms of the
    # mains' step from birth, empty when no main moved (a stale entry raises
    # in birth_memo).
    if mains_as_stored(entry) and entry.matches_current_partitions():
        specs, effective = [], EffectiveRows()
    else:
        step = visibility_step(birth_memo(entry), entry, event.snapshot)
        specs = step.specs(entry.main_partitions, pruner=pruner)
        effective = step.effective
    # Step 2: fold in the rows the merge moves out of the delta(s) — the
    # insert delta plus, when the table keeps one, the separate update delta.
    for delta_name in (event.delta_name, event.update_delta_name):
        if delta_name is not None:
            combo = {**entry.main_partitions, alias: event.table.partition(delta_name)}
            reason, pushdown = pruner.check(combo)
            if reason is None:
                specs.append(ComboSpec(combo, pushdown))
    corrected = entry.value.copy()
    execute_effective(
        executor, entry.query, event.snapshot, specs, effective, corrected
    )
    return _PendingMaintenance(entry, alias, corrected, effective.revived, event)


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
                stored[revived] = True
                epoch = -1
            entry.visibility[other_alias] = stored
            entry.invalidation_epochs[other_alias] = epoch

