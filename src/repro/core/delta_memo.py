"""Per-entry compensation memos that advance by a signed visibility step.

A cache entry's value is the all-main aggregate over the main rows it
stored; a read at snapshot ``S`` adds the entry's *compensation* ``C(S)``:
minus what main compensation subtracts, plus what delta compensation adds
(:mod:`repro.core.main_compensation`, :mod:`repro.core.delta_compensation`).
Both halves are joins over the *effective rows* of the plan's partitions at
``S`` (:mod:`repro.core.effective_rows`): the rows visible at ``S``, with
silent versions swapped.  A :class:`DeltaMemo` captures one reusable state:

* ``folded`` — ``C(anchor)``, a signed aggregate;
* ``anchor`` — the snapshot it was computed at, and ``effective`` — the
  silent versions swapped there;
* ``watermarks`` — per partition, a :class:`Watermark`: the physical row
  count, the write ``version``, the rows visible at the anchor, whether
  some row below the watermark carries a stamp above the anchor, and the
  tid ranges of the rows below it.

A read at ``S ≥ anchor`` does not recompute ``C(S)``; it takes the
*visibility step* ``C(S) − C(anchor)`` (:func:`visibility_step`).  Per
partition, the rows whose effective visibility differs between the two
snapshots are

* the rows appended past the watermark,
* rows below it with a ``cts`` or ``dts`` in ``(anchor, S]``,
* rows the effective sets revive or suppress at one snapshot and not the
  other,

and :func:`~repro.core.main_compensation.telescoped_specs` turns them into
signed subjoins — over the all-main combination and every evaluated delta
subjoin — each pinning one moved input to the rows that entered or left it.
Appends, deletes, updates (relevant or silent) and transactions stamping
out of tid order all advance the memo.

Most of those subjoins join nothing: the rows a step pins are few and
recent, and the rows of one business object share one fresh tid.  A term
whose row sets have disjoint tid ranges on a matching-dependency edge is
dropped before it runs (:meth:`VisibilityStep.specs`) — the paper's
Equation 5, applied to row sets instead of whole partitions.

Only a partition whose ``version`` moved since the memo (an append or an
invalidation), or which is ``ahead``, can hold such rows, so the rest are
never looked at.  ``ahead`` is all that is left of the *horizon* an earlier
design bounded reuse with: a stamp above the anchor is just a row whose
visibility a later step finds changed.  What no step can see is a stamp at
or *below* the anchor written after the memo was taken — an open
transaction older than the memo's reader deleting a row, or that reader's
own later write — because it changes the anchor's own state.  Rows only
ever lose visibility at a fixed snapshot, so the ``live`` count catches it.

Every entry also has a memo it was born with (:func:`birth_memo`): nothing
folded, anchored at the entry's snapshot, every delta at watermark 0 and
every main at the rows the entry stored.  Its step to ``S`` is the entry's
whole compensation at ``S`` — main compensation, the subtraction of Section
2.2, is its main-side terms, and each delta subjoin is its one term pinning
the subjoin's delta rows — so a recompute is just a step from birth.  A read
steps from birth whenever the entry's memo cannot serve it: there is none
(never installed, shed, or dropped by a merge's rebase), it is stale as
above, its plan's partition set or star-join exclusions changed, or the
reader is older than its anchor (the step only runs forward).  Merge-time
maintenance and refresh take the same step.

Memos are **immutable**: queries run concurrently under the database's
shared read lock, so advancing a memo swaps in a new object (compare-and-
set on the owning entry) rather than mutating shared state.  A reader that
loses the race keeps its locally computed — still correct — result and
simply discards its advance.

Why pruned subjoins need no bookkeeping: the pruner is conservative over
*all* physical rows, so a subjoin pruned now joins nothing over any subset
of them — the anchor's rows included — and its step is zero; one that was
pruned when the memo was folded contributed zero then, which is what the
step's earlier side reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..query.aggregates import GroupedAggregates
from ..query.executor import ComboSpec, RowRange
from ..storage.partition import Partition
from .cache_entry import AggregateCacheEntry
from .effective_rows import EffectiveRows, effective_rows
from .main_compensation import RowShift, StaleEntryError, telescoped_specs
from .pruning import tid_range

_NONE = float("inf")  # min_stamp_after's "no stamp"
_NO_ROWS = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class Watermark:
    """What a memo knows of one partition at its anchor."""

    #: Physical row count: rows below are folded, rows past it are new.
    rows: int
    #: ``Partition.version``: unchanged means no append and no invalidation.
    version: int
    #: Rows below ``rows`` visible at the anchor.
    live: int
    #: Some row below ``rows`` carries a stamp above the anchor.
    ahead: bool
    #: ``(tid column, min, max)`` over the rows below ``rows``, for the
    #: columns step pruning reads (:meth:`VisibilityStep.specs`).
    tids: Tuple[Tuple[str, object, object], ...] = ()


#: A delta's watermark at birth: no row folded, the version of no append.
_UNBORN = Watermark(0, 0, 0, False)


def _tids(partition: Partition, columns: Tuple[str, ...]) -> Tuple:
    """The tid ranges of every row of ``partition`` — its synopsis, which
    the planner has just read for the same columns."""
    return tuple((c, partition.min_value(c), partition.max_value(c)) for c in columns)


@dataclass
class DeltaMemo:
    """One immutable snapshot of an entry's reusable compensation."""

    #: The entry's compensation at ``anchor`` (signed: main compensation
    #: subtracted, delta compensation added), over the rows below the
    #: watermarks.  Never mutated after install — readers merge from it.
    folded: GroupedAggregates
    #: The snapshot tid the memo is anchored at.
    anchor: int
    #: id(partition) -> its watermark.
    watermarks: Dict[int, Watermark]
    #: id(partition) -> the partition object itself.  Holds strong
    #: references so the ids above cannot be reused, and lets validation
    #: compare object identity against the current plan's partitions.
    partitions: Dict[int, Partition]
    #: The plan signature active when the memo was taken; equal signatures
    #: mean no referenced table changed at all (per-table version counters),
    #: so validation can skip the per-partition walk.
    signature: Tuple = ()
    #: The star-join exclusion decision — ``(alias, reason)`` per excluded
    #: table — of the plan whose combo set ``folded`` was folded over.  A
    #: memo is only ever replayed for a plan with the *same* decision:
    #: toggling the override, flipping the config switch, or a dimension
    #: delta going empty→non-empty all change the fingerprint and route
    #: :func:`classify_memo` to a step from birth.  (A reduced-set memo does
    #: not cover the excluded tables' delta partitions.)
    excluded: Tuple[Tuple[str, str], ...] = ()
    #: The silent versions cancelled at the anchor — the earlier side of
    #: every step's swaps, and what a read that steps over nothing reports.
    effective: EffectiveRows = field(default_factory=EffectiveRows)
    #: id(partition) -> the tid columns its watermark keeps ranges of.
    columns: Dict[int, Tuple[str, ...]] = field(default_factory=dict)

    def rows_below_watermarks(self) -> int:
        """Total covered prefix rows — the scan work a reuse avoids."""
        return sum(mark.rows for mark in self.watermarks.values())


def memo_partitions(plan) -> Dict[int, Partition]:
    """Every distinct partition a single-entry plan reads, keyed by object
    id: its all-main combination and every planned subjoin's (pruned and
    evaluated alike)."""
    out = {id(partition): partition for partition in plan.cached_combos[0].values()}
    for sub in plan.subjoins:
        for partition in sub.partitions.values():
            out[id(partition)] = partition
    return out


def _memo_columns(plan) -> Dict[int, Tuple[str, ...]]:
    """id(partition) -> the tid columns the plan's pruner reads on it."""
    by_alias = plan.pruner.row_set_columns() if plan.pruner is not None else {}
    out: Dict[int, Tuple[str, ...]] = {}
    for combo in [plan.cached_combos[0], *(sub.partitions for sub in plan.subjoins)]:
        for alias, partition in combo.items():
            for column in by_alias.get(alias, ()):
                if column not in out.get(id(partition), ()):
                    out[id(partition)] = out.get(id(partition), ()) + (column,)
    return out


def birth_memo(entry: AggregateCacheEntry, plan=None) -> DeltaMemo:
    """The memo ``entry`` was born with (module docstring), over the
    partitions ``plan`` reads — or, without a plan (merge maintenance,
    hot/cold entries), over the entry's mains alone.  Derived when needed
    and never stored: installing is the job of the step taken from it.

    Its mains' anchor state is ``entry.visibility``, not their stamps.  A
    stored row can be invisible by its stamps at ``entry.snapshot``: a row
    merge maintenance kept for a non-merging alias (its successor was
    silent), or one an older open transaction deleted after the entry was
    stored, stamping it at or below the snapshot.  Those rows are the
    anchor's revived set, so the step subtracts them exactly when the
    reader no longer counts them.  A main with no invalidation since the
    entry's snapshot has none; only its stamps' count is read, for the
    ``live`` of the watermark a step from birth installs.  Callers that
    install nothing ask :func:`mains_as_stored` first.

    Raises :class:`StaleEntryError` when a referenced main was rebuilt by a
    merge without entry maintenance.
    """
    if not entry.matches_current_partitions():
        raise StaleEntryError(f"entry {entry.key} references rebuilt partitions")
    if plan is None:
        partitions = {id(p): p for p in entry.main_partitions.values()}
        columns, signature, excluded = {}, (), ()
    else:
        partitions, columns = memo_partitions(plan), _memo_columns(plan)
        signature, excluded = plan.signature, plan.excluded_fingerprint()
    marks = dict.fromkeys(partitions, _UNBORN)
    revived: Dict[str, np.ndarray] = {}
    for alias, partition in entry.main_partitions.items():
        # A main's rows were created by the merge that built it, at or before
        # the entry's snapshot: a row is invisible there iff it carries a
        # ``dts`` at or below it.
        dts = partition.dts_array()
        since = partition.invalidation_epoch - entry.invalidation_epochs[alias]
        if since:
            hidden = np.flatnonzero((dts != 0) & (dts <= entry.snapshot))
            kept = hidden[entry.visibility[alias].get_many(hidden)]
            if len(kept):
                revived[alias] = kept
            live = partition.row_count - len(hidden)
        else:
            live = partition.row_count - int(np.count_nonzero(dts))
        pid = id(partition)
        # A main's version moves by its invalidations only: the entry's
        # snapshot saw it ``since`` invalidations ago.
        marks[pid] = Watermark(
            partition.row_count,
            partition.version - since,
            live,
            False,
            _tids(partition, columns.get(pid, ())),
        )
    return DeltaMemo(
        folded=entry.value.new_like(signed=True),
        anchor=entry.snapshot,
        watermarks=marks,
        partitions=partitions,
        signature=signature,
        excluded=excluded,
        effective=EffectiveRows(revived),
        columns=columns,
    )


def mains_as_stored(entry: AggregateCacheEntry) -> bool:
    """True when no main ``entry`` stored saw an invalidation since its
    snapshot: the mains' step from birth is then empty for any reader at or
    after that snapshot, known without a look at their stamps — a demoted
    cold main stays unmapped.  Says nothing about staleness
    (:meth:`~repro.core.cache_entry.AggregateCacheEntry.matches_current_partitions`)."""
    epochs = entry.invalidation_epochs
    return all(
        partition.invalidation_epoch == epochs[alias]
        for alias, partition in entry.main_partitions.items()
    )


def _kept(effective: Optional[EffectiveRows]) -> EffectiveRows:
    """The swaps of ``effective`` without the pinned scans of its read."""
    if effective is None or not effective:
        return EffectiveRows()
    return EffectiveRows(effective.revived, effective.suppressed)


def classify_memo(memo: Optional[DeltaMemo], snapshot: int, plan) -> str:
    """Decide how a query at ``snapshot`` planned as ``plan`` may use
    ``memo``.

    Returns ``"incremental"`` (take the visibility step), ``"older_reader"``
    (``snapshot`` predates the anchor: step from birth, and leave the memo
    to newer readers whatever plan it was folded for), or ``"birth"`` (no
    memo / exclusion decision changed / partition set changed: step from
    birth and install the result).

    A memo folded over one combo set is never replayed for a plan with a
    different star-join exclusion fingerprint — even when the partition
    walk would pass (e.g. a plan built under a different strategy or
    override whose reduced partition set happens to coincide), because the
    watermarks only cover the memo's own combo set.
    """
    if memo is None:
        return "birth"
    if snapshot < memo.anchor:
        return "older_reader"
    if plan.excluded_fingerprint() != memo.excluded:
        return "birth"
    if plan.signature and plan.signature == memo.signature:
        return "incremental"  # no referenced table changed: no partition swap
    current = memo_partitions(plan)
    if len(current) != len(memo.partitions):
        return "birth"
    for pid, partition in current.items():
        if memo.partitions.get(pid) is not partition:
            return "birth"
    return "incremental"


@dataclass
class VisibilityStep:
    """``C(S) − C(anchor)`` of one memo, as row shifts (module docstring)."""

    #: id(partition) -> how its effective rows moved; moved partitions only.
    shifts: Dict[int, RowShift]
    #: The memo's watermarks taken again at ``S``.
    watermarks: Dict[int, Watermark]
    #: The effective rows at ``S`` the step's subjoins read (the memo's own
    #: when no partition moved).
    effective: EffectiveRows
    #: The memo's own watermarks, at the anchor.
    earlier: Dict[int, Watermark] = field(default_factory=dict)
    #: The reader's snapshot ``S``.
    snapshot: int = 0
    #: Exact tid ranges of the entered / left row sets, by (rows, column).
    _ranges: Dict[Tuple[int, str], Tuple] = field(default_factory=dict)

    def specs(
        self, partitions: Dict[str, Partition], extra_filters=None, pruner=None
    ) -> List[ComboSpec]:
        """The signed subjoins stepping one combination, less those
        ``pruner`` finds empty by the tid ranges of the row sets they read:
        the rows a step pins are few and recent, so Equation 5 over them
        prunes where it could not over whole partitions."""
        specs = telescoped_specs(partitions, self.shifts, extra_filters)
        if pruner is None:
            return specs
        return [
            spec
            for spec in specs
            if not pruner.rows_disjoint(
                lambda alias, column, spec=spec: self._tid_range(spec, alias, column),
                spec.fixed_rows,
            )
        ]

    def _tid_range(self, spec: ComboSpec, alias: str, column: str) -> Optional[Tuple]:
        partition = spec.partitions[alias]
        rows = spec.fixed_rows.get(alias)
        shift = self.shifts.get(id(partition))
        if rows is None or shift is None:
            # The reader's state: the partition's own range bounds it.
            return partition.min_value(column), partition.max_value(column)
        if rows is shift.old:
            # The anchor's state lies below the memo's watermark.
            for name, low, high in self.earlier[id(partition)].tids:
                if name == column:
                    return low, high
            return None
        key = (id(rows), column)
        if key not in self._ranges:
            if isinstance(rows, RowRange):
                # The appended rows the reader sees: a silent version among
                # them is suppressed and keeps its ancestor's (old) tid.
                pinned = self.effective.pin(
                    ComboSpec({alias: partition}, {}, {alias: rows}), self.snapshot
                )
                rows = _NO_ROWS if pinned is None else pinned.fixed_rows[alias]
            self._ranges[key] = tid_range(partition, column, rows)
        return self._ranges[key]


def visibility_step(
    memo: DeltaMemo, entry: AggregateCacheEntry, snapshot: int
) -> Optional[VisibilityStep]:
    """The step from ``memo.anchor`` to ``snapshot`` (module docstring);
    None when a stamp at or below the anchor landed under a watermark since
    the memo was taken, and the read must step from birth instead (never
    for a memo :func:`birth_memo` just derived).

    Only valid for a birth memo, or after :func:`classify_memo` returned
    ``"incremental"``.
    A partition that only grew keeps its prefix as the anchor left it: its
    new rows are one row range, read through the effective scan at
    ``snapshot``.  A partition with an invalidation since the memo or a
    stamp above the anchor has its prefix rows stamped above the anchor
    compared at both snapshots; so has, once there is such a partition,
    every row whose silent-version swap differs between them.
    """
    anchor = memo.anchor
    shifts: Dict[int, RowShift] = {}
    marks = dict(memo.watermarks)
    stamped: List[int] = []
    for pid, partition in memo.partitions.items():
        mark = marks[pid]
        rows = partition.row_count
        grown = rows - mark.rows
        if partition.version - mark.version > grown or mark.ahead:
            stamped.append(pid)
        elif grown:
            shifts[pid] = RowShift(
                [(1, RowRange(mark.rows, rows))], RowRange(0, mark.rows)
            )
            marks[pid] = _extend(memo, pid, mark.live, False, snapshot)
    if not shifts and not stamped:
        return VisibilityStep({}, marks, memo.effective, memo.watermarks, snapshot)
    effective = effective_rows(entry, snapshot)
    if not stamped:
        return VisibilityStep(shifts, marks, effective, memo.watermarks, snapshot)
    then_swapped = _swaps(entry, memo.effective, memo.partitions)
    now_swapped = _swaps(entry, effective, memo.partitions)
    for pid in {*stamped, *then_swapped, *now_swapped}:
        partition, mark = memo.partitions[pid], memo.watermarks[pid]
        low = mark.rows
        # Effective visibility also differs where the silent-version swaps
        # of the two snapshots differ below the watermark.
        before = _below(then_swapped.get(pid), low)
        after = _below(now_swapped.get(pid), low)
        if before is None:
            flipped = _NO_ROWS if after is None else after
        elif after is None:
            flipped = before
        elif np.array_equal(before, after):
            flipped = _NO_ROWS
        else:
            flipped = np.setxor1d(before, after, assume_unique=True)
        if pid in stamped:
            cts, dts = partition.cts_array()[:low], partition.dts_array()[:low]
            # The one pass over the prefix: only a row stamped above the
            # anchor can be visible at one of the two snapshots and not the
            # other.  A creation stamp above it was there when the memo was
            # taken (only ``dts`` is ever written later), so without
            # ``ahead`` only ``dts`` needs reading.
            above = dts > anchor
            if mark.ahead:
                above |= cts > anchor
            above[flipped] = True
            moved = np.flatnonzero(above)
        elif len(flipped):
            cts, dts, moved = partition.cts_array(), partition.dts_array(), flipped
        else:
            continue  # only its appended rows moved: the first loop's shift
        moved_cts, moved_dts = cts[moved], dts[moved]
        then = _visible(moved_cts, moved_dts, anchor)
        now = _visible(moved_cts, moved_dts, snapshot)
        if pid in stamped:
            # Rows visible at the anchor, counted again: outside ``moved`` a
            # row is visible there exactly when it carries no ``dts``.
            seen_then, seen_now = int(np.count_nonzero(then)), int(np.count_nonzero(now))
            live = low - int(np.count_nonzero(dts)) - len(moved)
            live += int(np.count_nonzero(moved_dts)) + seen_then
            if live != mark.live:
                return None  # a stamp at or below the anchor landed since
            ahead = bool(np.any(moved_dts > snapshot)) or (
                mark.ahead and bool(np.any(moved_cts > snapshot))
            )
            marks[pid] = _extend(memo, pid, live - seen_then + seen_now, ahead, snapshot)
        shown = partition.kind == "main"  # revived mains, suppressed deltas
        _override(then, moved, before, shown)
        _override(now, moved, after, shown)
        entered = moved[now & ~then]
        left = moved[then & ~now]
        rows = partition.row_count
        parts = [(1, RowRange(low, rows))] if rows > low else []
        if len(entered):
            parts.append((1, entered))
        if len(left):
            parts.append((-1, left))
        if not parts:
            shifts.pop(pid, None)
            continue
        if len(entered) or len(left):
            old = lambda p=partition, low=low, swapped=before: _prefix_at(p, anchor, low, swapped)
        else:
            old = RowRange(0, low)
        shifts[pid] = RowShift(parts, old)
    return VisibilityStep(shifts, marks, effective, memo.watermarks, snapshot)


def _extend(memo: DeltaMemo, pid: int, live: int, ahead: bool, snapshot: int) -> Watermark:
    """The memo's watermark of one partition moved to its current length
    at ``snapshot``: ``live`` / ``ahead`` describe the old prefix there,
    the rows appended since are added to both."""
    mark, partition = memo.watermarks[pid], memo.partitions[pid]
    low, rows = mark.rows, partition.row_count
    tids = mark.tids
    if rows > low:
        live += int(np.count_nonzero(partition.visible_mask(snapshot, low, rows)))
        ahead = ahead or partition.min_stamp_after(snapshot, low, rows) != _NONE
        tids = _tids(partition, memo.columns.get(pid, ()))
    return Watermark(rows, partition.version, live, ahead, tids)


def _visible(cts: np.ndarray, dts: np.ndarray, snapshot: int) -> np.ndarray:
    """Visibility at ``snapshot`` of rows with these stamps."""
    return (cts <= snapshot) & ((dts == 0) | (dts > snapshot))


def _swaps(
    entry: AggregateCacheEntry,
    effective: EffectiveRows,
    partitions: Dict[int, Partition],
) -> Dict[int, np.ndarray]:
    """id(partition) -> the sorted rows the effective sets swap there
    (revived on a main, suppressed on a delta)."""
    out = {id(entry.main_partitions[alias]): rows for alias, rows in effective.revived.items()}
    out.update(effective.suppressed)
    return {pid: rows for pid, rows in out.items() if pid in partitions}


def _below(rows: Optional[np.ndarray], low: int) -> Optional[np.ndarray]:
    """The sorted ``rows`` under ``low`` (None stays None)."""
    return None if rows is None else rows[: int(np.searchsorted(rows, low))]


def _override(
    visible: np.ndarray, rows: np.ndarray, swapped: Optional[np.ndarray], shown: bool
) -> None:
    """Set ``visible`` to ``shown`` where the sorted ``rows`` are ``swapped``."""
    if swapped is None or not len(swapped) or not len(rows):
        return
    at = np.minimum(np.searchsorted(swapped, rows), len(swapped) - 1)
    visible[swapped[at] == rows] = shown


def _prefix_at(
    partition: Partition, snapshot: int, low: int, swapped: Optional[np.ndarray]
) -> np.ndarray:
    """The rows below ``low`` that count as visible at ``snapshot``, given
    the rows below it that snapshot swaps."""
    mask = partition.visible_mask(snapshot, 0, low)
    if swapped is not None:
        mask[swapped] = partition.kind == "main"
    return np.flatnonzero(mask)


def subjoin_step_specs(
    plan, step: VisibilityStep
) -> Tuple[List[ComboSpec], Dict[int, int]]:
    """The step's signed subjoins over every evaluated delta subjoin of
    ``plan``, in subjoin order, and a map of subjoin index → its number of
    specs (0 = nothing it reads moved, or every term was pruned)."""
    specs: List[ComboSpec] = []
    counts: Dict[int, int] = {}
    for index, sub in enumerate(plan.subjoins):
        if sub.action != "evaluate":
            continue
        terms = step.specs(sub.partitions, sub.pushdown, plan.pruner)
        counts[index] = len(terms)
        specs.extend(terms)
    return specs, counts


def rows_saved(subjoins, watermarks: Dict[int, Watermark]) -> int:
    """The covered prefix rows whose rescan a step avoided: the watermarks
    of each evaluated subjoin's partitions — an approximation of the full
    recompute's scan volume, which would partially share scans across
    subjoins."""
    return sum(
        watermarks[id(partition)].rows
        for sub in subjoins
        if sub.action == "evaluate"
        for partition in sub.partitions.values()
    )


def advance_memo(
    memo: DeltaMemo,
    step: VisibilityStep,
    snapshot: int,
    increment: Optional[GroupedAggregates],
    signature: Tuple = (),
) -> DeltaMemo:
    """The memo re-anchored at ``snapshot`` with ``increment`` (the step's
    subjoins, evaluated) folded in; ``memo`` itself when the step found
    nothing that moved, which keeps it serving every reader from its own
    anchor on.  The exclusion fingerprint carries over —
    :func:`classify_memo` already required it to match the plan's.
    An empty ``folded`` (a birth memo's) adopts ``increment`` as it is, so
    the caller must not change it afterwards.
    """
    if not step.shifts and step.watermarks == memo.watermarks:
        return memo
    folded = memo.folded
    if increment is not None and increment.group_count():
        if folded.group_count():
            folded = folded.copy()
            folded.merge(increment)
        else:
            folded = increment
    return DeltaMemo(
        folded=folded,
        anchor=snapshot,
        watermarks=step.watermarks,
        partitions=memo.partitions,
        signature=signature,
        excluded=memo.excluded,
        effective=_kept(step.effective),
        columns=memo.columns,
    )
