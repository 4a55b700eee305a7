"""Main compensation (Section 2.2).

Updates and deletes invalidate rows in the main storage (the new version,
if any, goes to the delta).  A cache entry therefore stores the visibility
bit vector of every referenced main partition at creation time; at use
time the stored vectors are compared with the current transaction's vectors
and the contribution of the invalidated rows is *subtracted* from the
cached aggregate.

For join entries the subtraction telescopes over the tables with
invalidations.  Order the dirty aliases ``a_1 … a_k`` and split each stored
set into its invalidated and its still-visible rows,
``stored_a = inv_a ⊎ now_a`` with ``now_a = stored_a ∩ current_a``.  A
joined tuple of ``join(stored)`` that is *not* in ``join(now)`` has an
invalidated row in at least one dirty alias; let ``i`` be the first such
alias.  Then its rows come from ``now`` in every dirty alias before
``a_i``, from ``inv`` in ``a_i``, and from anywhere in ``stored`` after it —
and each such tuple has exactly one ``i``:

    join(stored) − join(now) = Σ_{i=1..k} join(a_j: now_j  for j < i,
                                                a_i: inv_i,
                                                a_j: stored_j for j > i)

with clean aliases reading ``stored = now`` in every term.  That is ``k``
correction subjoins, each pinned to one alias' invalidated rows, instead of
the ``2^k − 1`` subsets of the inclusion–exclusion expansion; the subtracted
tuple multiset is the same, so integer and quantum-decimal aggregates are
unchanged to the bit.  (The paper assumes ``k ≤ 1`` — "updates are rare",
Section 3.2 — and leaves this case to future work.)

An invalidated row whose visible successor changed no column the query
reads is not subtracted at all: :mod:`repro.core.effective_rows` revives it
(it joins ``now``) and hides the successor from delta compensation, so
``inv`` holds only the rows whose change the query can see.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..errors import CacheError
from ..obs.trace import Span
from ..query.executor import ComboSpec, ExecutionStats, QueryExecutor
from ..query.aggregates import GroupedAggregates
from .cache_entry import AggregateCacheEntry
from .effective_rows import EffectiveRows, effective_rows


class StaleEntryError(CacheError):
    """The entry's partitions were rebuilt without maintenance; recompute."""


def apply_main_compensation(
    entry: AggregateCacheEntry,
    executor: QueryExecutor,
    snapshot: int,
    into: GroupedAggregates,
    stats: Optional[ExecutionStats] = None,
    span: Optional[Span] = None,
    effective: Optional[EffectiveRows] = None,
) -> int:
    """Subtract invalidated main-row contributions from ``into``.

    ``into`` must already contain (a copy of) the entry's value.  Returns
    the number of invalidated rows subtracted (0 = entry was clean, or
    every invalidated row was revived).
    ``stats`` collects the executor counters of the correction subjoins;
    ``span`` (the caller's ``main_compensation`` span) receives
    ``dirty_aliases``, ``terms`` and ``invalidated_rows``, and
    ``revived_rows`` / ``suppressed_rows`` when silent versions were
    cancelled.  ``effective`` is the caller's
    :func:`~repro.core.effective_rows.effective_rows` result for this
    snapshot, when it already has one.
    Raises :class:`StaleEntryError` when a referenced main partition has a
    different length than the stored snapshot (it was rebuilt by a merge
    without entry maintenance).
    """
    if not entry.matches_current_partitions():
        raise StaleEntryError(f"entry {entry.key} references rebuilt partitions")
    if entry.is_clean_for(snapshot):
        return 0
    # Boolean views of the stored bit vectors against the partitions' own
    # visibility masks: no packed round trip, no Python lists.
    stored_mask = {
        alias: bits.to_numpy() for alias, bits in entry.visibility.items()
    }
    now_mask = {
        alias: stored_mask[alias] & partition.visible_mask(snapshot)
        for alias, partition in entry.main_partitions.items()
    }
    if effective is None:
        effective = effective_rows(entry, snapshot)
    for alias, rows in effective.revived.items():
        now_mask[alias][rows] = True
    if effective and span is not None:
        span.attrs["revived_rows"] = effective.cancelled
        span.attrs["suppressed_rows"] = sum(map(len, effective.suppressed.values()))
    invalidated: Dict[str, np.ndarray] = {}
    for alias, now in now_mask.items():
        rows = np.flatnonzero(stored_mask[alias] != now)
        if len(rows):
            invalidated[alias] = rows
    if not invalidated:
        # The epoch check above said "something changed", but none of the
        # *stored* rows is to be subtracted (the stamps hit rows outside
        # the entry's visibility, or every one was revived).  The counter
        # still reflects an earlier compensation run; reset it — this
        # entry currently owes nothing.
        entry.metrics.dirty_counter = 0
        return 0
    dirty_aliases = sorted(invalidated)
    total_rows = int(sum(len(rows) for rows in invalidated.values()))
    # Row sets are built once and only where some term reads them: the first
    # dirty alias is never read as ``stored``, the last never as ``now``
    # (a single dirty alias needs neither), clean aliases read ``now``
    # (= ``stored``) throughout.  Terms share the array objects, so the
    # executor's per-call memo shares their scans.
    surviving: Dict[str, np.ndarray] = {}
    stored: Dict[str, np.ndarray] = {}
    for alias in entry.main_partitions:
        if alias != dirty_aliases[-1]:
            surviving[alias] = np.flatnonzero(now_mask[alias])
        if alias in invalidated and alias != dirty_aliases[0]:
            stored[alias] = np.flatnonzero(stored_mask[alias])
    combos: List[ComboSpec] = []
    for position, pinned in enumerate(dirty_aliases):
        later = set(dirty_aliases[position + 1:])
        fixed: Dict[str, np.ndarray] = {}
        for alias in entry.main_partitions:
            if alias == pinned:
                fixed[alias] = invalidated[alias]
            elif alias in later:
                fixed[alias] = stored[alias]
            else:
                fixed[alias] = surviving[alias]
        combos.append(ComboSpec(dict(entry.main_partitions), fixed_rows=fixed))
    executor.execute(
        entry.query, snapshot, combos=combos, into=into, sign=-1, stats=stats
    )
    if span is not None:
        span.attrs["dirty_aliases"] = dirty_aliases
        span.attrs["terms"] = len(combos)
        span.attrs["invalidated_rows"] = total_rows
    entry.metrics.dirty_counter = total_rows
    return total_rows
