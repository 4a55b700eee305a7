"""Main compensation (Section 2.2), and the signed step it is a case of.

Updates and deletes invalidate rows in the main storage (the new version,
if any, goes to the delta).  A cache entry therefore stores the visibility
bit vector of every referenced main partition at creation time; at use
time the stored vectors are compared with the current transaction's vectors
and the contribution of the invalidated rows is *subtracted* from the
cached aggregate.

For join entries the subtraction telescopes over the tables whose rows
moved.  Give every alias ``a`` of a combination an earlier row set ``X_a``
and a later one ``X'_a``, and write ``D_a = X'_a − X_a`` for the signed
multiset of the rows that entered (+) and left (−).  Order the aliases with
``D_a ≠ 0`` as ``a_1 … a_k``; since a join is linear in each input,

    join(X') − join(X) = Σ_{i=1..k} join(a_j: X'_j for j < i,
                                          a_i: D_i,
                                          a_j: X_j  for j > i)

— term ``i`` is join(a_≤i later, rest earlier) minus join(a_<i later, rest
earlier), so the sum collapses to the difference, and aliases that did not
move read either set.  That is ``k`` pinned subjoins (one per sign present)
instead of the ``2^k − 1`` subsets of the inclusion–exclusion expansion,
over the same tuple multiset, so integer and quantum-decimal aggregates are
unchanged to the bit.  (The paper assumes ``k ≤ 1`` — "updates are rare",
Section 3.2 — and leaves this case to future work.)

:func:`telescoped_specs` is that identity, and the only copy of it:

* main compensation is the case ``X = stored``, ``X' = now = stored ∩
  current``, where rows only leave (``D = −inv``);
* the delta memo's visibility step (:mod:`repro.core.delta_memo`) is the
  case ``X`` = the effective rows at the memo's anchor, ``X'`` = at the
  reader's snapshot, on every partition of the all-main combination and of
  each delta subjoin.

An invalidated row whose visible successor changed no column the query
reads is not subtracted at all: :mod:`repro.core.effective_rows` revives it
(it joins ``now``) and hides the successor from delta compensation, so
``inv`` holds only the rows whose change the query can see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import CacheError
from ..obs.trace import Span
from ..query.executor import ComboSpec, ExecutionStats, QueryExecutor, RowRange
from ..query.aggregates import GroupedAggregates
from ..storage.partition import Partition
from .cache_entry import AggregateCacheEntry
from .effective_rows import EffectiveRows, effective_rows

#: A row set: an explicit sorted index array (read as is) or a row range
#: (read through the snapshot's effective scan).
Rows = Union[np.ndarray, RowRange]


class StaleEntryError(CacheError):
    """The entry's partitions were rebuilt without maintenance; recompute."""


@dataclass
class RowShift:
    """How one partition's rows moved between an earlier and a later state."""

    #: ``(sign, rows)``: the rows that entered (+1) and that left (-1).
    parts: List[Tuple[int, Rows]]
    #: The earlier state, or a function building it: most shifts are
    #: pinned in every term that reads them and never need it.
    old: Union[Rows, Callable[[], np.ndarray]]
    #: The later state; None = the reader's effective scan.
    new: Optional[np.ndarray] = None

    def earlier(self) -> Rows:
        if callable(self.old):
            self.old = self.old()
        return self.old

    def rows_left(self) -> int:
        return sum(len(rows) for sign, rows in self.parts if sign < 0)


def telescoped_specs(
    partitions: Dict[str, Partition],
    shifts: Dict[int, RowShift],
    extra_filters: Optional[Dict[str, Sequence]] = None,
) -> List[ComboSpec]:
    """``join(later) − join(earlier)`` over one combination, as signed
    specs (module docstring); ``shifts`` is keyed by ``id(partition)``.

    Aliases whose earlier state is an explicit array go first: the first
    moved alias is never read in its earlier state, so a range-restricted
    scan (an append-only delta) is what later terms read when it can be.
    Terms share the row arrays, so the executor's per-call memo shares
    their scans.
    """
    moved = sorted(
        (
            alias
            for alias, partition in partitions.items()
            if id(partition) in shifts and shifts[id(partition)].parts
        ),
        key=lambda alias: (isinstance(shifts[id(partitions[alias])].old, RowRange), alias),
    )
    if not moved:
        return []
    later_state: Dict[str, Rows] = {}
    for alias, partition in partitions.items():
        shift = shifts.get(id(partition))
        if shift is not None and shift.new is not None:
            later_state[alias] = shift.new
    # The terms read, never change, these: one copy serves them all.
    partitions = dict(partitions)
    filters = {a: list(f) for a, f in (extra_filters or {}).items()}
    specs: List[ComboSpec] = []
    for position, pinned in enumerate(moved):
        fixed = dict(later_state)
        for alias in moved[position + 1:]:
            fixed[alias] = shifts[id(partitions[alias])].earlier()
        for sign, rows in shifts[id(partitions[pinned])].parts:
            specs.append(ComboSpec(partitions, filters, {**fixed, pinned: rows}, sign))
    return specs


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

    ``into`` is (a copy of) the entry's value, or an empty signed state
    collecting the entry's compensation.  Returns the number of
    invalidated rows subtracted (0 = entry was clean, or every invalidated
    row was revived).
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
    if effective is None:
        effective = effective_rows(entry, snapshot)
    if effective and span is not None:
        span.attrs["revived_rows"] = effective.cancelled
        span.attrs["suppressed_rows"] = sum(map(len, effective.suppressed.values()))
    # Boolean views of the stored bit vectors against the partitions' own
    # visibility masks: no packed round trip, no Python lists.  Every alias
    # reads explicit rows: ``now`` is stored ∩ current, which an older
    # reader's scan would not give.
    shifts: Dict[int, RowShift] = {}
    for alias, partition in entry.main_partitions.items():
        stored = entry.visibility[alias].to_numpy()
        now = stored & partition.visible_mask(snapshot)
        revived = effective.revived.get(alias)
        if revived is not None:
            now[revived] = True
        left = np.flatnonzero(stored != now)
        shifts[id(partition)] = RowShift(
            [(-1, left)] if len(left) else [],
            lambda stored=stored: np.flatnonzero(stored),
            np.flatnonzero(now),
        )
    specs = telescoped_specs(entry.main_partitions, shifts)
    if not specs:
        # The epoch check above said "something changed", but none of the
        # *stored* rows is to be subtracted (the stamps hit rows outside
        # the entry's visibility, or every one was revived).  The counter
        # still reflects an earlier compensation run; reset it — this
        # entry currently owes nothing.
        entry.metrics.dirty_counter = 0
        return 0
    executor.execute(entry.query, snapshot, combos=specs, into=into, stats=stats)
    total_rows = sum(
        shifts[id(partition)].rows_left()
        for partition in entry.main_partitions.values()
    )
    if span is not None:
        span.attrs["dirty_aliases"] = sorted(
            alias
            for alias, partition in entry.main_partitions.items()
            if shifts[id(partition)].parts
        )
        span.attrs["terms"] = len(specs)
        span.attrs["invalidated_rows"] = total_rows
    entry.metrics.dirty_counter = total_rows
    return total_rows
