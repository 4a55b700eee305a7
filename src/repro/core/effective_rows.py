"""Effective row sets: updates that change nothing a query reads, cancelled.

Main compensation subtracts every invalidated main row from a cached
aggregate and delta compensation adds its new version back (Section 2.2).
When the new version differs from the old one only in columns the cached
query never reads — a payment moves ``c_balance``, a delivery stamps
``ol_delivery_d`` — the pair is a net zero, recomputed on every read.  The
delta's update lineage (:class:`~repro.storage.partition.LineageLog`) says
which pairs those are, and this module turns it into two row sets per
(entry, snapshot):

* **revived** — stored main rows invisible to the reader whose successor
  *is* visible to it and changed no column the entry's query reads on that
  alias; they count as still visible;
* **suppressed** — those successors; they count as absent.

Swapping a visible row for one the query cannot tell from it leaves the
multiset of joined tuples — hence every aggregate — as it was, provided the
swap is the same everywhere: the terms of main compensation, every delta
subjoin reading that main (``revived ⋈ b:delta`` would be lost otherwise) or
that delta, the memo's suffix scan, both refresh paths and merge-time
maintenance all take their rows from one :func:`effective_rows` result and
run their subjoins through :func:`execute_effective`.

Entries over hot/cold tables (several entries share one compensation
union, and need not agree on what they store) and self-join entries (one
partition under two aliases) get empty sets, as does every entry while the
lineage logs are empty: the sets are then the plain visibility masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.trace import Span
from ..query.executor import ComboSpec, QueryExecutor
from ..query.aggregates import GroupedAggregates
from ..storage.partition import Partition
from .cache_entry import AggregateCacheEntry


@dataclass
class EffectiveRows:
    """What one reader's snapshot cancels for one entry (module docstring)."""

    #: alias -> sorted rows of the entry's main that count as visible.
    revived: Dict[str, np.ndarray] = field(default_factory=dict)
    #: id(delta partition) -> its sorted rows that count as absent.
    suppressed: Dict[int, np.ndarray] = field(default_factory=dict)
    #: Pinned scans by (partition, range), so that subjoins sharing an
    #: input share one array object (the executor's scan memo keys on it).
    _pinned: Dict[Tuple, np.ndarray] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.revived)

    @property
    def cancelled(self) -> int:
        """Number of (revived, suppressed) pairs."""
        return sum(len(rows) for rows in self.revived.values())

    def pin(self, spec: ComboSpec, snapshot: int) -> Optional[ComboSpec]:
        """``spec`` with every affected input pinned to its effective rows,
        inside the row range it was restricted to, if any; None when such
        an input has no row left, which empties the subjoin.  An input
        pinned to an explicit row array already names effective rows (a
        memo step's entered and left rows, or the anchor's) and is kept as
        it is."""
        fixed = None
        for alias, partition in spec.partitions.items():
            # The entry's tables have one main each (hot/cold bypasses).
            if partition.kind == "main":
                swapped, shown = self.revived.get(alias), True
            else:
                swapped, shown = self.suppressed.get(id(partition)), False
            if swapped is None:
                continue
            within = spec.fixed_rows.get(alias)
            if isinstance(within, np.ndarray):
                continue
            rows = self._pinned.get((id(partition), within))
            if rows is None:
                start, stop = 0, partition.row_count
                if within is not None:
                    start, stop = max(0, within.start), min(stop, within.stop)
                    swapped = swapped[(swapped >= start) & (swapped < stop)]
                mask = partition.visible_mask(snapshot, start, stop)
                mask[swapped - start] = shown
                rows = self._pinned[id(partition), within] = (
                    np.flatnonzero(mask) + start
                )
            if not len(rows):
                return None
            if fixed is None:
                fixed = dict(spec.fixed_rows)
            fixed[alias] = rows
        if fixed is None:
            return spec
        return ComboSpec(spec.partitions, spec.extra_filters, fixed, spec.sign)


def read_masks(entry: AggregateCacheEntry) -> Dict[str, int]:
    """Per alias, the change bits of every column the entry's query reads
    there: join keys, filters, group-by, aggregate arguments, plus the
    matching-dependency ``tid`` columns pruning and pushdown rest on and the
    schema's saturating bit.  Computed once per entry; empty for entries
    that bypass (hot/cold tables, self-joins)."""
    masks = entry.read_masks
    if masks is not None:
        return masks
    masks = entry.read_masks = {}
    tables = list(entry.tables.values())
    if any(t.is_aged() for t in tables) or len({id(t) for t in tables}) < len(tables):
        return masks
    query = entry.query
    refs = [ref for expr in query.filters for ref in expr.column_refs()]
    refs += [(col.alias, col.name) for col in query.group_by]
    for spec in query.aggregates:
        if spec.arg is not None:
            refs += spec.arg.column_refs()
    for edge in query.join_edges:
        refs += [(edge.left_alias, edge.left_col), (edge.right_alias, edge.right_col)]
    for alias, table in entry.tables.items():
        schema = table.schema
        mask = schema.wide_change_bit()
        for name in schema.tid_column_names():
            mask |= schema.change_bit(name)
        for ref_alias, name in refs:
            # The entry's query is bound; an unqualified reference would
            # read the column wherever it exists.
            if ref_alias == alias or (ref_alias is None and schema.has_column(name)):
                mask |= schema.change_bit(name)
        masks[alias] = mask
    return masks


def effective_rows(entry: AggregateCacheEntry, snapshot: int) -> EffectiveRows:
    """The rows ``snapshot`` cancels for ``entry`` (module docstring).

    Costs one ``changed & read_mask`` over each lineage log of the aliases
    whose main saw an invalidation, then work in the silent records only.
    """
    out = EffectiveRows()
    for alias, read_mask in read_masks(entry).items():
        main = entry.main_partitions[alias]
        if (
            main.invalidation_epoch == entry.invalidation_epochs[alias]
            and snapshot >= entry.snapshot
        ):
            continue  # every stored row is still visible
        group = entry.tables[alias]._group_of_partition(main.name)
        if group.main is not main:
            continue  # rebuilt under the entry: it is stale, not silent
        stored = entry.visibility[alias]
        found: List[Tuple[Partition, np.ndarray, np.ndarray]] = []
        for delta in group.delta_partitions():
            if not len(delta.lineage):
                continue
            successors, ancestors, changed = delta.lineage.arrays()
            silent = np.flatnonzero((changed & read_mask) == 0)
            if not len(silent):
                continue
            successors, ancestors = successors[silent], ancestors[silent]
            keep = delta.visible_at(snapshot, successors)
            keep &= stored.get_many(ancestors) & ~main.visible_at(snapshot, ancestors)
            if keep.any():
                found.append((delta, successors[keep], ancestors[keep]))
        if not found:
            continue
        unique, counts = np.unique(
            np.concatenate([ancestors for _d, _s, ancestors in found]),
            return_counts=True,
        )
        if (counts > 1).any():
            # Two visible versions of one key (transactions that stamped out
            # of tid order): the reader counts both, so neither may stand in
            # for the one stored row.
            twice, unique = unique[counts > 1], unique[counts == 1]
            for index, (delta, successors, ancestors) in enumerate(found):
                once = ~np.isin(ancestors, twice)
                found[index] = (delta, successors[once], ancestors[once])
        if not len(unique):
            continue
        out.revived[alias] = unique
        for delta, successors, _ancestors in found:
            if len(successors):
                out.suppressed[id(delta)] = successors
    return out


def execute_effective(
    executor: QueryExecutor,
    query,
    snapshot: int,
    specs: Sequence[ComboSpec],
    effective: EffectiveRows,
    into: GroupedAggregates,
    span_sink: Optional[List[Span]] = None,
    **execute_args,
) -> None:
    """Evaluate ``specs`` into ``into`` over the effective rows.

    A subjoin one of whose inputs was cancelled away entirely never reaches
    the executor; it still leaves its one span (``status="cancelled"``) in
    ``span_sink``, at its position.
    """
    if not effective:
        executor.execute(
            query, snapshot, combos=specs, into=into, span_sink=span_sink,
            **execute_args,
        )
        return
    pinned = [effective.pin(spec, snapshot) for spec in specs]
    spans: Optional[List[Span]] = None if span_sink is None else []
    executor.execute(
        query,
        snapshot,
        combos=[spec for spec in pinned if spec is not None],
        into=into,
        span_sink=spans,
        **execute_args,
    )
    if span_sink is not None:
        evaluated = iter(spans)
        for spec, kept in zip(specs, pinned):
            span_sink.append(
                next(evaluated)
                if kept is not None
                else Span(
                    name="subjoin",
                    attrs={"combo": spec.describe(), "status": "cancelled"},
                )
            )
