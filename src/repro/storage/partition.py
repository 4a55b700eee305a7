"""Horizontal partitions with MVCC row state.

A partition stores rows column-wise (:class:`ColumnFragment` per column) and
two MVCC stamp vectors:

* ``cts`` — the transaction id that created each row;
* ``dts`` — the transaction id that invalidated it (0 = still live).

Updates in the delta-main architecture never modify rows in place: the new
version is inserted into the delta partition and the old row's ``dts`` is
stamped (Section 2).  A snapshot's visibility is therefore a pure function
of the stamps, materialized as a NumPy bool mask — the consistent view manager
hands the same masks to the aggregate cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import StorageError
from .column import ColumnFragment
from .dictionary import MainDictionary
from .schema import Schema
from .vector import IntVector

LIVE = 0  # dts value of a row that has not been invalidated


@dataclass(frozen=True)
class ColumnStats:
    """One column's resident synopsis entry: the three facts pruning needs."""

    min: object
    max: object
    has_nulls: bool


class LineageLog:
    """Update lineage of one delta partition: which rows are new versions
    of which main rows, and what changed on the way.

    An update is *invalidate + append*, which forgets that the appended row
    replaces the invalidated one.  :meth:`~repro.storage.table.Table.update`
    keeps the link here: one record per appended version whose chain of old
    versions starts in the group's main partition — ``(successor row in this
    partition, ancestor row in that main, OR of the change masks along the
    chain)``, a mask being one :meth:`~repro.storage.schema.Schema.change_bit`
    per column whose value differs.  Inserted rows, and versions of rows that
    never reached a main, have no record.  The log lives and dies with its
    partition — a merge builds a fresh delta — and is never persisted: a
    restored partition has none, and a missing record only ever means
    "ordinary invalidation".
    """

    __slots__ = ("_successors", "_ancestors", "_changed")

    def __init__(self):
        self._successors = IntVector()
        self._ancestors = IntVector()
        self._changed = IntVector()

    def __len__(self) -> int:
        return len(self._successors)

    def record(self, successor: int, ancestor: int, changed: int) -> None:
        """Log that row ``successor`` descends from main row ``ancestor``
        with the columns in ``changed`` differing.  Successors arrive in
        append order, so the log stays sorted by them."""
        self._successors.append(successor)
        self._ancestors.append(ancestor)
        self._changed.append(changed)

    def lookup(self, successor: int) -> Optional[Tuple[int, int]]:
        """``(ancestor, changed)`` of one row, or None without a record."""
        successors = self._successors.view()
        position = int(np.searchsorted(successors, successor))
        if position == len(successors) or successors[position] != successor:
            return None
        return self._ancestors[position], self._changed[position]

    def arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy ``(successors, ancestors, changed)`` views, aligned."""
        return (
            self._successors.view(),
            self._ancestors.view(),
            self._changed.view(),
        )

    def nbytes(self) -> int:
        """Bytes of the three vectors' live elements."""
        return 3 * self._successors.nbytes()


class Partition:
    """One horizontal partition of a table.

    ``kind`` is ``"main"`` (read-optimized, sorted dictionaries, bulk-built)
    or ``"delta"`` (write-optimized, append-order dictionaries).  ``name``
    distinguishes multiple partitions of the same kind under hot/cold
    multi-partitioning (e.g. ``"hot_main"``; Section 5.4).
    """

    def __init__(self, name: str, kind: str, schema: Schema):
        if kind not in ("main", "delta"):
            raise StorageError(f"unknown partition kind {kind!r}")
        self.name = name
        self.kind = kind
        self.schema = schema
        if kind == "delta":
            self._columns: Dict[str, ColumnFragment] = {
                c.name: ColumnFragment(c.name) for c in schema
            }
        else:
            self._columns = {
                c.name: ColumnFragment(c.name, MainDictionary()) for c in schema
            }
        self._cts = IntVector()
        self._dts = IntVector()
        #: Update lineage of the rows appended here (deltas only).
        self.lineage: Optional[LineageLog] = (
            LineageLog() if kind == "delta" else None
        )
        #: The rows :meth:`invalidate` stamped since the partition was
        #: built, in stamp order.  Its length is the invalidation epoch; the
        #: delta memo reads the entries past its mark instead of the stamps
        #: of every row below it.  Like the pk index it is bookkeeping, not
        #: stored data, so :meth:`nbytes` leaves it out.
        self.stamp_log = IntVector()
        # Monotonic write counter: bumped on every append and invalidation.
        # The resident synopsis below is keyed on it.
        self.version = 0
        # Resident synopsis: per-column (min, max, has_nulls), rebuilt
        # lazily whenever the version moves.  This spares every prune
        # verdict the repeated O(dict) min/max walk.
        self._synopsis: Dict[str, ColumnStats] = {}
        self._synopsis_version = -1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build_main(
        cls,
        name: str,
        schema: Schema,
        columns: Sequence[Sequence[object]],
        cts: Sequence[int],
        dts: Sequence[int],
    ) -> "Partition":
        """Bulk-build a read-optimized main partition from validated
        columns in schema order (checkpoint restore; the delta merge stays
        in code space and calls :meth:`from_fragments`)."""
        fragments = {
            col.name: ColumnFragment.build_main(col.name, values)
            for col, values in zip(schema, columns)
        }
        return cls.from_fragments(
            name,
            schema,
            fragments,
            np.array(cts, dtype=np.int64),
            np.array(dts, dtype=np.int64),
        )

    @classmethod
    def from_fragments(
        cls,
        name: str,
        schema: Schema,
        fragments: Dict[str, ColumnFragment],
        cts: np.ndarray,
        dts: np.ndarray,
    ) -> "Partition":
        """A main partition over ready column fragments and stamp arrays.

        ``fragments`` holds one fragment per schema column; the ``int64``
        stamp arrays are adopted, not copied.
        """
        if len(cts) != len(dts):
            raise StorageError("cts/dts length mismatch in from_fragments")
        partition = cls(name, "main", schema)
        for col in schema:
            fragment = fragments[col.name]
            if len(fragment) != len(cts):
                raise StorageError(
                    f"column {col.name!r} has {len(fragment)} rows, "
                    f"stamps have {len(cts)}"
                )
            partition._columns[col.name] = fragment
        partition._cts = IntVector.adopt(cts)
        partition._dts = IntVector.adopt(dts)
        return partition

    def append(self, columns: Sequence[Sequence[object]], cts: Sequence[int]) -> int:
        """Append validated rows, one value sequence per schema column in
        schema order, with one creation stamp each; returns the first new
        row's index.  Only valid on delta partitions — the main is
        immutable between merges except for ``dts`` invalidation stamps.
        The version moves by one per row, as by one per invalidation: the
        delta memo compares its growth with the row count's."""
        if self.kind != "delta":
            raise StorageError(f"cannot append to {self.kind} partition {self.name!r}")
        first = len(self._cts)
        for fragment, values in zip(self._columns.values(), columns):
            fragment.extend(values)
        self._cts.extend(cts)
        self._dts.extend([LIVE] * len(cts))
        self.version += len(cts)
        return first

    def invalidate(self, row: int, dts: int) -> None:
        """Stamp row ``row`` as invalidated by transaction ``dts``."""
        if row < 0 or row >= len(self._cts):
            raise StorageError(f"row {row} out of range in partition {self.name!r}")
        if self._dts[row] != LIVE:
            raise StorageError(
                f"row {row} in partition {self.name!r} is already invalidated"
            )
        self._dts[row] = dts
        self.stamp_log.append(row)
        self.version += 1

    @property
    def invalidation_epoch(self) -> int:
        """Invalidations applied since the partition was built (the stamp
        log's length).  Cache entries snapshot it to detect "nothing was
        invalidated since entry creation" in O(1)."""
        return len(self.stamp_log)

    # ------------------------------------------------------------------
    # row access
    # ------------------------------------------------------------------
    @property
    def row_count(self) -> int:
        """Physical rows, including invalidated ones."""
        return len(self._cts)

    def is_physically_empty(self) -> bool:
        """True when the partition holds zero physical rows."""
        return len(self._cts) == 0

    def column(self, name: str) -> ColumnFragment:
        """The fragment of one column (StorageError if unknown)."""
        try:
            return self._columns[name]
        except KeyError:
            raise StorageError(
                f"partition {self.name!r} has no column {name!r}"
            ) from None

    def column_names(self) -> List[str]:
        """Names of the stored columns."""
        return list(self._columns)

    def get_row(self, row: int) -> Dict[str, object]:
        """Decoded values of one row as a dict (point reads, diagnostics)."""
        return {name: frag.value_at(row) for name, frag in self._columns.items()}

    def cts_array(self) -> np.ndarray:
        """Zero-copy view of creation stamps."""
        return self._cts.view()

    def dts_array(self) -> np.ndarray:
        """Zero-copy view of invalidation stamps (0 = live)."""
        return self._dts.view()

    # ------------------------------------------------------------------
    # visibility
    # ------------------------------------------------------------------
    def visible_mask(
        self, snapshot: int, start: int = 0, stop: Optional[int] = None
    ) -> np.ndarray:
        """Boolean mask of rows ``[start, stop)`` visible to ``snapshot``.

        A row is visible iff it was created at or before the snapshot and
        not invalidated at or before it.  The stamp vectors are sliced
        before the compare, so a range costs O(stop - start).
        """
        cts = self._cts.view()[start:stop]
        dts = self._dts.view()[start:stop]
        return (cts <= snapshot) & ((dts == LIVE) | (dts > snapshot))

    def visible_at(self, snapshot: int, rows: np.ndarray) -> np.ndarray:
        """Per given row index, whether it is visible to ``snapshot``."""
        cts = self._cts.view()[rows]
        dts = self._dts.view()[rows]
        return (cts <= snapshot) & ((dts == LIVE) | (dts > snapshot))

    def visibility(self, snapshot: int) -> np.ndarray:
        """A fresh visibility mask for ``snapshot`` that the caller owns
        (consistent view manager, entry visibility)."""
        return self.visible_mask(snapshot)

    def visible_count(self, snapshot: int) -> int:
        """Number of rows visible to ``snapshot``."""
        return int(self.visible_mask(snapshot).sum())

    def visible_rows(self, snapshot: int) -> np.ndarray:
        """Indices of visible rows for ``snapshot``."""
        return np.flatnonzero(self.visible_mask(snapshot))

    def visible_rows_in(self, snapshot: int, start: int, stop: int) -> np.ndarray:
        """Indices of visible rows for ``snapshot`` within ``[start, stop)``.

        The stamp vectors are sliced before the visibility compare, so the
        cost is O(stop - start) regardless of the partition's total size —
        this is what lets delta-memo compensation scan only the rows
        appended since the memo's watermark.
        """
        start = max(0, start)
        stop = min(stop, len(self._cts))
        if start >= stop:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.visible_mask(snapshot, start, stop)) + start

    def min_stamp_after(self, snapshot: int, start: int = 0, stop: Optional[int] = None) -> float:
        """The smallest MVCC stamp strictly greater than ``snapshot`` in rows
        ``[start, stop)``, over both stamp vectors; ``inf`` when none exists.

        The pure hit uses this as its validity *horizon*: an output order
        remembered at snapshot ``S`` serves any reader ``S' < horizon``,
        because no row changes visibility anywhere in ``(S, horizon)``; the
        delta memo asks it whether rows it covers are ``ahead`` of its
        anchor.
        """
        stop = len(self._cts) if stop is None else min(stop, len(self._cts))
        start = max(0, start)
        horizon = float("inf")
        if start >= stop:
            return horizon
        for stamps in (self._cts.view()[start:stop], self._dts.view()[start:stop]):
            later = stamps[stamps > snapshot]
            if len(later):
                horizon = min(horizon, float(later.min()))
        return horizon

    # ------------------------------------------------------------------
    # statistics (resident synopsis)
    # ------------------------------------------------------------------
    def column_stats(self, column: str) -> ColumnStats:
        """The synopsis entry of one column: (min, max, has_nulls).

        Cached per partition version — appends and invalidations bump the
        version, which lazily invalidates the whole synopsis.
        """
        if self._synopsis_version != self.version:
            self._synopsis = {}
            self._synopsis_version = self.version
        stats = self._synopsis.get(column)
        if stats is None:
            fragment = self.column(column)
            stats = ColumnStats(
                min=fragment.min_value(),
                max=fragment.max_value(),
                has_nulls=fragment.has_nulls(),
            )
            self._synopsis[column] = stats
        return stats

    def min_value(self, column: str):
        """Dictionary min of a column — the Equation 5 prefilter input.

        Note this is the *dictionary* range, as in the paper: invalidated
        rows keep their values in the dictionary, so pruning stays correct
        (conservative) without visibility checks on the hot path.
        """
        return self.column_stats(column).min

    def max_value(self, column: str):
        """Dictionary max of a column (see :meth:`min_value`)."""
        return self.column_stats(column).max

    def has_nulls(self, column: str) -> bool:
        """Whether any row of ``column`` is NULL (synopsis-cached)."""
        return self.column_stats(column).has_nulls

    def nbytes(self) -> int:
        """Approximate bytes: all column fragments + MVCC stamp vectors
        (+ the lineage log of a delta)."""
        total = sum(frag.nbytes() for frag in self._columns.values())
        total += self._cts.nbytes() + self._dts.nbytes()
        if self.lineage is not None:
            total += self.lineage.nbytes()
        return total

    def nbytes_columns(self, names: Iterable[str]) -> int:
        """Approximate bytes of a subset of columns (Section 6.2 bench)."""
        return sum(self._columns[name].nbytes() for name in names)

    def __repr__(self) -> str:
        return f"Partition({self.name!r}, kind={self.kind}, rows={self.row_count})"
