"""The delta-merge operation.

Periodically the rows accumulated in a delta partition are propagated into a
freshly rebuilt, read-optimized main partition (Krueger et al. [17], cited
as the merge mechanism in Section 2).  The aggregate cache piggy-backs its
incremental maintenance on this event (Sections 5.2 and 6.1): listeners are
notified *before* the physical swap — while the pre-merge state is still
queryable, so compensation deltas can be computed — and *after* it, so
stored visibility snapshots can be re-anchored to the new main.

``merge_table`` merges every partition group of a table (or a selected one),
so hot and cold groups can be merged independently, and related tables can
be merge-synchronized by the caller to maximize the pruning success rate
(Section 5.2).

The merge is **atomic**: it runs in two phases.  Phase one notifies every
listener and *stages* the rebuilt main/delta pairs off to the side; nothing
observable changes, and any exception — a listener failure, a storage
invariant violation, an injected fault — leaves the table exactly as it
was, after giving listeners a ``cancel_merge`` callback to discard the
maintenance they planned.  Phase two swaps every staged group in, rebuilds
the primary-key index, and only then fires ``after_merge``.  The aggregate
cache depends on this all-or-nothing behavior: a half-merged table would
strand its pending maintenance and corrupt every entry anchored on the old
partitions.

The rebuild itself works on the arrays the partitions already hold and
never decodes a row: the old dictionaries are merged into the new sorted
one, and every code vector is translated by one gather through an
old-code -> new-code table (``_build_group``, docs/architecture.md §1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain
from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..errors import StorageError
from .column import ColumnFragment
from .dictionary import NULL_CODE, MainDictionary
from .partition import LIVE, Partition
from .table import PartitionGroup, Table


@dataclass
class MergeEvent:
    """Description of one group merge, passed to listeners.

    ``snapshot`` is the transaction id whose visible rows are folded into the
    new main.  Rows invalidated at or before the snapshot are dropped unless
    the merge keeps history.
    """

    table: Table
    group_name: str
    main_name: str
    delta_name: str
    snapshot: int
    keep_history: bool
    merged_delta_rows: int = 0
    update_delta_name: Optional[str] = None  # set when the group keeps one


class MergeListener(Protocol):
    """Two-phase observer of delta merges (the aggregate cache implements it).

    ``cancel_merge`` is optional: listeners that plan state in
    ``before_merge`` should implement it to discard that state when the
    merge aborts before the swap (no ``after_merge`` will follow).
    """

    def before_merge(self, event: MergeEvent) -> None:
        """Called while the pre-merge partitions are still in place."""

    def after_merge(self, event: MergeEvent) -> None:
        """Called after the new main/delta pair has been swapped in."""


@dataclass
class MergeStats:
    """Summary of one ``merge_table`` call."""

    table: str
    groups_merged: int = 0
    rows_moved: int = 0
    rows_dropped: int = 0


@dataclass
class _StagedGroup:
    """A rebuilt (main, delta) pair waiting for the phase-two swap."""

    group: PartitionGroup
    event: MergeEvent
    new_main: Partition
    new_delta: Partition
    moved: int
    dropped: int


def merge_table(
    table: Table,
    snapshot: int,
    listeners: Sequence[MergeListener] = (),
    group_name: Optional[str] = None,
    keep_history: bool = False,
    faults=None,
    obs=None,
) -> MergeStats:
    """Atomically merge the delta(s) of ``table`` into rebuilt main partition(s).

    Parameters
    ----------
    snapshot:
        The current global transaction id.  All rows created at or before it
        participate; newer rows cannot exist in the single-writer model, and
        encountering one raises ``StorageError`` to surface the bug.
    listeners:
        Merge observers; see :class:`MergeListener`.
    group_name:
        Merge only the named partition group ("default"/"hot"/"cold").
        Merging groups separately models the unsynchronized-merge scenario
        of Fig. 5.
    keep_history:
        Keep invalidated rows (with their ``dts`` stamps) in the new main so
        temporal queries on historical data remain possible (Section 2).
        The default drops them, which is what retires main-compensation
        debt — maintenance listeners account for the dropped contributions.
    faults:
        Optional :class:`~repro.reliability.FaultInjector`; the merge fires
        ``merge.stage``, ``merge.before_swap``, and ``merge.after_swap``.
    obs:
        Optional :class:`~repro.obs.EngineMetrics`; a successful merge
        observes its wall time and row-movement counters.  Aborted merges
        record nothing — the table did not change.

    Any failure before the swap — including a listener's ``before_merge`` —
    leaves the table untouched: listeners get ``cancel_merge(event)`` for
    every event already announced, then the exception propagates.

    A group with nothing to merge (:func:`_nothing_to_merge`) is passed over
    before any event is announced: no rebuild, no version bump, no listener
    call — its main, and everything cached over it, stays as it is.
    """
    stats = MergeStats(table=table.name)
    merge_started = time.perf_counter()
    groups = [table.group(group_name)] if group_name else table.groups()
    staged: List[_StagedGroup] = []
    announced: List[MergeEvent] = []
    fire = faults.fire if faults is not None else (lambda point: None)
    try:
        for group in groups:
            if _nothing_to_merge(group):
                continue
            event = MergeEvent(
                table=table,
                group_name=group.name,
                main_name=group.main.name,
                delta_name=group.delta.name,
                snapshot=snapshot,
                keep_history=keep_history,
                merged_delta_rows=sum(p.row_count for p in group.delta_partitions()),
                update_delta_name=(
                    group.update_delta.name if group.update_delta is not None else None
                ),
            )
            announced.append(event)
            for listener in listeners:
                listener.before_merge(event)
            fire("merge.stage")
            new_main, new_delta, moved, dropped = _build_group(
                table, group, snapshot, keep_history
            )
            staged.append(
                _StagedGroup(group, event, new_main, new_delta, moved, dropped)
            )
        fire("merge.before_swap")
    except BaseException:
        # Phase one failed: nothing was swapped.  Give listeners the chance
        # to discard whatever they planned for the announced events, then
        # surface the original failure.
        for event in announced:
            _cancel_listeners(listeners, event)
        raise
    # Phase two: the physical swap.  Pure pointer exchanges — no I/O, no
    # listener code — so the table transitions atomically for any observer.
    for item in staged:
        table.replace_group(item.group.name, item.new_main, item.new_delta)
        stats.groups_merged += 1
        stats.rows_moved += item.moved
        stats.rows_dropped += item.dropped
    if staged:
        table.rebuild_pk_index()
    fire("merge.after_swap")
    for item in staged:
        for listener in listeners:
            listener.after_merge(item.event)
    if obs is not None:
        obs.merge_seconds.observe(time.perf_counter() - merge_started)
        if stats.rows_moved:
            obs.merge_rows_moved.inc(stats.rows_moved)
        if stats.rows_dropped:
            obs.merge_rows_dropped.inc(stats.rows_dropped)
    return stats


def _nothing_to_merge(group: PartitionGroup) -> bool:
    """No delta row to move and no invalidated main row to drop: the rebuilt
    main would equal the one in place (static dimension tables, merged along
    with everything else by ``Database.merge()``)."""
    return all(
        delta.is_physically_empty() for delta in group.delta_partitions()
    ) and not group.main.dts_array().any()


def _cancel_listeners(listeners: Sequence[MergeListener], event) -> None:
    for listener in listeners:
        cancel = getattr(listener, "cancel_merge", None)
        if cancel is not None:
            cancel(event)


def _build_group(
    table: Table, group: PartitionGroup, snapshot: int, keep_history: bool
) -> Tuple[Partition, Partition, int, int]:
    """Rebuild one (main, delta) pair off to the side, without swapping.

    The rebuild never decodes a row (Krueger et al.'s merge): per partition
    one mask of the rows that survive, per column a dictionary merge and one
    code remap per source partition.  Surviving rows keep their order —
    main, delta, update delta — which is what lets listeners rebase
    positions and visibility vectors taken over the old partitions.

    Returns ``(new_main, new_delta, rows moved, rows dropped)``.
    """
    sources = group.partitions()
    keeps: List[np.ndarray] = []
    moved = 0
    dropped = 0
    for partition in sources:
        cts = partition.cts_array()
        future = cts > snapshot
        if future.any():
            raise StorageError(
                f"row created by future transaction {int(cts[future.argmax()])} "
                f"found during merge at snapshot {snapshot}"
            )
        dts = partition.dts_array()
        if keep_history:
            keep = np.ones(len(dts), dtype=bool)
        else:
            keep = ~((dts != LIVE) & (dts <= snapshot))
        kept = int(keep.sum())
        dropped += len(dts) - kept
        if partition.kind == "delta":
            moved += kept
        keeps.append(keep)
    fragments = {
        col.name: _merge_column(
            col.name, [p.column(col.name) for p in sources], keeps
        )
        for col in table.schema
    }
    new_main = Partition.from_fragments(
        group.main.name,
        table.schema,
        fragments,
        _concatenate(p.cts_array()[keep] for p, keep in zip(sources, keeps)),
        _concatenate(p.dts_array()[keep] for p, keep in zip(sources, keeps)),
    )
    new_delta = Partition(group.delta.name, "delta", table.schema)
    return new_main, new_delta, moved, dropped


def _merge_column(
    name: str, fragments: Sequence[ColumnFragment], keeps: Sequence[np.ndarray]
) -> ColumnFragment:
    """Merge one column of a group's partitions into a main fragment.

    Four steps, none of them per row in Python:

    1. mark the codes the kept rows of each source reference (NULL's -1
       lands in a trailing slot);
    2. build the new sorted dictionary from exactly the marked values — an
       unreferenced value must not survive, or the dictionary would grow
       with every invalidated row.  Where sources hold ``==``-equal values
       (``1`` / ``1.0``), the earliest source's representative is kept;
    3. one old-code -> new-code table per source, |dictionary| lookups;
    4. one gather through that table per source, concatenated in source
       order.
    """
    sources = []  # per fragment: (kept codes, referenced old codes, their values)
    for fragment, keep in zip(fragments, keeps):
        codes = fragment.codes()[keep]
        used = np.zeros(len(fragment.dictionary) + 1, dtype=bool)
        used[codes] = True
        present = np.flatnonzero(used[:-1])
        values = fragment.dictionary.decode_table()[present].tolist()
        sources.append((codes, present, values))
    # A dict keeps the first of two equal keys.  The main's referenced
    # values arrive sorted, so the sort is one merge of that run with the
    # (short) delta runs.
    distinct = dict.fromkeys(
        chain.from_iterable(values for _codes, _present, values in sources)
    )
    dictionary = MainDictionary.from_sorted(sorted(distinct))
    remapped: List[np.ndarray] = []
    for fragment, (codes, present, values) in zip(fragments, sources):
        remap = np.full(len(fragment.dictionary) + 1, NULL_CODE, dtype=np.int64)
        remap[present] = dictionary.lookup_many(values, NULL_CODE)
        remapped.append(remap[codes])
    return ColumnFragment.from_codes(name, dictionary, _concatenate(remapped))


def _concatenate(parts) -> np.ndarray:
    """One native ``int64`` array (mapped sources are little-endian on disk)."""
    return np.concatenate(list(parts), dtype=np.int64)
