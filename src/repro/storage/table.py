"""Tables: schema + partition groups + primary-key index.

A table owns one or more *partition groups*.  Each group is a (main, delta)
pair: the plain delta-main architecture has the single group ``("main",
"delta")``; hot/cold multi-partitioning (Section 5.4) has the groups
``("hot_main", "hot_delta")`` and ``("cold_main", "cold_delta")``.

All writes follow the insert-only MVCC discipline of the paper:

* ``insert`` appends to the delta of the group selected by the aging rule
  (the hot group by default);
* ``update`` invalidates the old version (wherever it lives — main *or*
  delta) and appends the new version to the delta of the *same* group, which
  is why a cold delta "contains only the updated tuples from cold main";
* ``delete`` just invalidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from ..errors import IntegrityError, SchemaError, StorageError
from .partition import LIVE, Partition
from .schema import Schema


class RowLocator(NamedTuple):
    """Physical address of a row version: (partition name, row index)."""

    partition: str
    row: int


@dataclass
class PartitionGroup:
    """A (main, delta[, update-delta]) set sharing one merge lifecycle.

    ``update_delta`` is the optional *separate update-delta* of the paper's
    future-work Section 8 ("keeping track of updates in the delta storage in
    a separate negative-delta partition"): new versions written by updates
    land there instead of the insert delta, so the insert delta's tid ranges
    stay fresh and the main x insert-delta subjoins stay prunable even under
    update traffic.
    """

    name: str  # "default", "hot", or "cold"
    main: Partition
    delta: Partition
    update_delta: Optional[Partition] = None

    def partitions(self) -> List[Partition]:
        """The group's partitions: main, delta, and the update delta if any."""
        out = [self.main, self.delta]
        if self.update_delta is not None:
            out.append(self.update_delta)
        return out

    def delta_partitions(self) -> List[Partition]:
        """The group's write-side partitions (delta + optional update delta)."""
        out = [self.delta]
        if self.update_delta is not None:
            out.append(self.update_delta)
        return out


# An aging rule maps a (validated) row dict to a group name ("hot"/"cold").
AgingRule = Callable[[Dict[str, object]], str]


class Table:
    """A columnar table in the delta-main architecture."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        table_id: int = 0,
        aging_rule: Optional[AgingRule] = None,
        separate_update_delta: bool = False,
    ):
        self.name = name
        self.schema = schema
        self.table_id = table_id
        self.aging_rule = aging_rule
        self.separate_update_delta = separate_update_delta

        def make_group(group_name: str, prefix: str) -> PartitionGroup:
            update_delta = (
                Partition(f"{prefix}udelta", "delta", schema)
                if separate_update_delta
                else None
            )
            return PartitionGroup(
                group_name,
                Partition(f"{prefix}main", "main", schema),
                Partition(f"{prefix}delta", "delta", schema),
                update_delta,
            )

        if aging_rule is None:
            self._groups: Dict[str, PartitionGroup] = {
                "default": make_group("default", "")
            }
        else:
            self._groups = {
                "hot": make_group("hot", "hot_"),
                "cold": make_group("cold", "cold_"),
            }
        # Partition names are fixed at creation and survive merges and
        # restores, so "which group owns this partition" is one lookup.
        self._group_by_partition: Dict[str, PartitionGroup] = {
            partition.name: grp
            for grp in self._groups.values()
            for partition in grp.partitions()
        }
        # Primary-key index: current (latest) version of each live key.
        self._pk_index: Dict[object, RowLocator] = {}
        # Two monotonic change counters.  ``epoch`` moves on structural
        # changes only — a merge's partition swap, schema evolution, and
        # MD / consistent-aging registration — which change what a cached
        # plan means; the plan cache keys on it.  ``version`` moves on those
        # and on every insert/update/delete: it stamps the data a plan's
        # prune verdicts, a delta memo, or a remembered order were derived
        # from, so "did anything change?" is an integer compare.
        self.epoch = 0
        self.version = 0

    def bump_version(self) -> int:
        """Advance and return the data change counter (any write path)."""
        self.version += 1
        return self.version

    def bump_epoch(self) -> None:
        """Advance the structural counter — and the version, since a
        structural change is a change too."""
        self.epoch += 1
        self.bump_version()

    # ------------------------------------------------------------------
    # partition access
    # ------------------------------------------------------------------
    def groups(self) -> List[PartitionGroup]:
        """All partition groups of this table."""
        return list(self._groups.values())

    def group(self, name: str) -> PartitionGroup:
        """The named partition group (default/hot/cold)."""
        try:
            return self._groups[name]
        except KeyError:
            raise StorageError(f"table {self.name!r} has no group {name!r}") from None

    def partition(self, name: str) -> Partition:
        """Look up a partition by physical name (StorageError if unknown)."""
        for grp in self._groups.values():
            for partition in grp.partitions():
                if partition.name == name:
                    return partition
        raise StorageError(f"table {self.name!r} has no partition {name!r}")

    def partitions(self) -> List[Partition]:
        """All partitions, mains first within each group."""
        out: List[Partition] = []
        for grp in self._groups.values():
            out.extend(grp.partitions())
        return out

    def main_partitions(self) -> List[Partition]:
        """The main partition of every group."""
        return [grp.main for grp in self._groups.values()]

    def delta_partitions(self) -> List[Partition]:
        """Every write-side partition across all groups."""
        out: List[Partition] = []
        for grp in self._groups.values():
            out.extend(grp.delta_partitions())
        return out

    def is_aged(self) -> bool:
        """True if the table uses hot/cold multi-partitioning."""
        return self.aging_rule is not None

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _route(self, row: Dict[str, object]) -> PartitionGroup:
        if self.aging_rule is None:
            return self._groups["default"]
        group_name = self.aging_rule(row)
        if group_name not in self._groups:
            raise StorageError(
                f"aging rule returned unknown group {group_name!r} "
                f"for table {self.name!r}"
            )
        return self._groups[group_name]

    def insert(self, values: Dict[str, object], tid: int) -> RowLocator:
        """Validate and insert a row created by transaction ``tid``.

        Enforces primary-key uniqueness against the live index.  Matching-
        dependency ``tid`` columns are expected to be present already (the
        :class:`~repro.database.Database` enforcement hook fills them before
        calling this method).
        """
        row = self.schema.validate_row(values)
        pk_col = self.schema.primary_key
        if pk_col is not None:
            pk_value = row[pk_col]
            if pk_value is None:
                raise IntegrityError(
                    f"NULL primary key on insert into {self.name!r}"
                )
            if pk_value in self._pk_index:
                raise IntegrityError(
                    f"duplicate primary key {pk_value!r} in table {self.name!r}"
                )
        group = self._route(row)
        row_idx = group.delta.append_row(row, tid)
        locator = RowLocator(group.delta.name, row_idx)
        if pk_col is not None:
            self._pk_index[row[pk_col]] = locator
        self.bump_version()
        return locator

    def update(self, pk_value, changes: Dict[str, object], tid: int) -> RowLocator:
        """Invalidate the current version of ``pk_value`` and insert the new one.

        The new version lands in the delta of the same partition group as the
        old version (updates of cold rows go to the cold delta, Section 5.4).
        """
        old_locator = self._require_pk(pk_value)
        group = self._group_of_partition(old_locator.partition)
        old_partition = self.partition(old_locator.partition)
        old_row = old_partition.get_row(old_locator.row)
        new_row = dict(old_row)
        for key, value in changes.items():
            if not self.schema.has_column(key):
                raise SchemaError(f"unknown column {key!r} in update")
            new_row[key] = value
        new_row = self.schema.validate_row(new_row)
        pk_col = self.schema.primary_key
        if new_row[pk_col] != pk_value:
            raise IntegrityError("primary-key updates are not supported")
        old_partition.invalidate(old_locator.row, tid)
        target = group.update_delta if group.update_delta is not None else group.delta
        row_idx = target.append_row(new_row, tid)
        # Update lineage (see LineageLog): the new version's ancestor in the
        # group's main, and the columns that differ from it.
        if old_partition is group.main:
            link = (old_locator.row, 0)
        else:
            link = old_partition.lineage.lookup(old_locator.row)
        if link is not None:
            ancestor, changed = link
            for key in changes:
                if new_row[key] != old_row[key]:
                    changed |= self.schema.change_bit(key)
            target.lineage.record(row_idx, ancestor, changed)
        locator = RowLocator(target.name, row_idx)
        self._pk_index[pk_value] = locator
        self.bump_version()
        return locator

    def delete(self, pk_value, tid: int) -> None:
        """Invalidate the current version of ``pk_value``."""
        locator = self._require_pk(pk_value)
        self.partition(locator.partition).invalidate(locator.row, tid)
        del self._pk_index[pk_value]
        self.bump_version()

    def _require_pk(self, pk_value) -> RowLocator:
        if self.schema.primary_key is None:
            raise IntegrityError(f"table {self.name!r} has no primary key")
        locator = self._pk_index.get(pk_value)
        if locator is None:
            raise IntegrityError(
                f"no live row with primary key {pk_value!r} in table {self.name!r}"
            )
        return locator

    def _group_of_partition(self, partition_name: str) -> PartitionGroup:
        try:
            return self._group_by_partition[partition_name]
        except KeyError:
            raise StorageError(f"unknown partition {partition_name!r}") from None

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def pk_lookup(self, pk_value) -> Optional[RowLocator]:
        """Locator of the live version of ``pk_value`` or ``None``."""
        return self._pk_index.get(pk_value)

    def get_row(self, pk_value) -> Optional[Dict[str, object]]:
        """Decoded current version of the row with the given key, or None."""
        locator = self._pk_index.get(pk_value)
        if locator is None:
            return None
        return self.partition(locator.partition).get_row(locator.row)

    def row_count(self) -> int:
        """Physical rows across all partitions (including invalidated)."""
        return sum(p.row_count for p in self.partitions())

    def visible_row_count(self, snapshot: int) -> int:
        """Rows visible to ``snapshot`` across all partitions."""
        return sum(p.visible_count(snapshot) for p in self.partitions())

    def nbytes(self) -> int:
        """Approximate bytes across all partitions."""
        return sum(p.nbytes() for p in self.partitions())

    # ------------------------------------------------------------------
    # schema evolution
    # ------------------------------------------------------------------
    def extend_schema(self, extra_columns) -> None:
        """Append columns to an *empty* table's schema.

        Used when a matching dependency installs its tid column after table
        creation.  Extending a populated table would require a backfill,
        which the engine does not support — declare tid columns up front or
        register MDs before loading data.
        """
        if self.row_count() > 0:
            raise SchemaError(
                f"cannot extend schema of non-empty table {self.name!r}"
            )
        extra = [c for c in extra_columns if not self.schema.has_column(c.name)]
        if not extra:
            return
        self.schema = self.schema.extended_with(extra)
        for group in self._groups.values():
            group.main = Partition(group.main.name, "main", self.schema)
            group.delta = Partition(group.delta.name, "delta", self.schema)
            if group.update_delta is not None:
                group.update_delta = Partition(
                    group.update_delta.name, "delta", self.schema
                )
        self.bump_epoch()

    # ------------------------------------------------------------------
    # merge support (used by repro.storage.merge)
    # ------------------------------------------------------------------
    def replace_group(
        self,
        group_name: str,
        new_main: Partition,
        new_delta: Partition,
        new_update_delta: Optional[Partition] = None,
    ) -> None:
        """Swap in the rebuilt partition set after a delta merge."""
        group = self.group(group_name)
        group.main = new_main
        group.delta = new_delta
        if group.update_delta is not None:
            if new_update_delta is None:
                new_update_delta = Partition(
                    group.update_delta.name, "delta", self.schema
                )
            group.update_delta = new_update_delta
        self.bump_epoch()

    def rebuild_pk_index(self) -> None:
        """Recompute the primary-key index after partitions were rebuilt.

        One bulk pass per partition: the live rows' keys are decoded in one
        gather and entered with ``dict.update``.  Partitions are visited
        mains-first, so where a key is live in two partitions the later one
        wins, as with row-at-a-time assignment.
        """
        pk_col = self.schema.primary_key
        if pk_col is None:
            return
        self._pk_index.clear()
        for partition in self.partitions():
            live = np.flatnonzero(partition.dts_array() == LIVE)
            keys = partition.column(pk_col).decode_rows(live).tolist()
            # tuple.__new__ builds the named tuple without entering its
            # Python-level __new__, which is what a per-row call costs.
            locators = map(
                tuple.__new__,
                repeat(RowLocator),
                zip(repeat(partition.name), live.tolist()),
            )
            self._pk_index.update(zip(keys, locators))

    def __repr__(self) -> str:
        parts = ", ".join(f"{p.name}={p.row_count}" for p in self.partitions())
        return f"Table({self.name!r}, {parts})"
