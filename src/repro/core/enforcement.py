"""Matching-dependency enforcement at insert time (Section 5, Section 6.3).

Every insert passes through the enforcer before it reaches the table:

* if the target table is the *parent* of an MD, the row's tid column is
  stamped with the inserting transaction's id (larger than any existing
  value, since tids are monotonic);
* if it is the *child* of an MD and the foreign key is non-NULL, the parent
  row's tid value is copied into the child row.  A business object's items
  copy it from the header written in the same call; any other parent is
  looked up through the primary-key index, once per distinct key in the
  batch.  This is the insert-time lookup whose overhead Section 6.3
  measures; it doubles as the referential-integrity check, which is always
  on: a missing parent raises, so a child's tid is NULL only when its
  foreign key is, and such a row joins nothing.

The enforcer keeps counters so the insert-overhead benchmark can report the
number of lookups separately from wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..errors import IntegrityError
from ..storage.catalog import Catalog
from .matching_dependency import MatchingDependency, validate_md


@dataclass
class EnforcementStats:
    """Counters over the enforcer's lifetime."""

    parent_stamps: int = 0
    child_lookups: int = 0
    lookups_failed: int = 0


class MDEnforcer:
    """Stamps and copies matching-dependency tid columns on insert."""

    def __init__(self, catalog: Catalog):
        self._catalog = catalog
        self._as_parent: Dict[str, List[MatchingDependency]] = {}
        self._as_child: Dict[str, List[MatchingDependency]] = {}
        self.stats = EnforcementStats()

    # ------------------------------------------------------------------
    def register(self, md: MatchingDependency) -> None:
        """Validate and activate an MD for subsequent inserts."""
        validate_md(md, self._catalog)
        self._as_parent.setdefault(md.parent_table, []).append(md)
        self._as_child.setdefault(md.child_table, []).append(md)

    def dependencies(self) -> List[MatchingDependency]:
        """All registered MDs (each exactly once)."""
        seen = []
        for mds in self._as_parent.values():
            seen.extend(mds)
        return seen

    def dependencies_of_child(self, table_name: str) -> List[MatchingDependency]:
        """The MDs in which ``table_name`` is the child side."""
        return list(self._as_child.get(table_name, []))

    # ------------------------------------------------------------------
    def stamp_rows(self, table_name: str, rows: Sequence[Dict], tid: int, header=None):
        """Copies of ``rows`` with all MD tid columns filled.

        Parent-side columns get the inserting transaction's id.  Child-side
        columns get the matching parent tuple's tid: copied from
        ``header`` — a ``(table, stamped row)`` written in the same call,
        the business-object header of Section 3.2 — when the foreign key
        names it, else looked up once per distinct key in the batch.  A
        missing parent raises ``IntegrityError``.
        """
        stamped_rows = list(map(dict, rows))
        for md in self._as_parent.get(table_name, ()):
            for stamped in stamped_rows:
                stamped[md.tid_column] = tid
            self.stats.parent_stamps += len(stamped_rows)
        for md in self._as_child.get(table_name, ()):
            parent_tids = {}
            if header is not None and header[0] == md.parent_table:
                parent_tids[header[1].get(md.parent_key)] = header[1][md.tid_column]
            for stamped in stamped_rows:
                fk_value = stamped.get(md.child_fk)
                if fk_value is None:
                    stamped.setdefault(md.tid_column, None)
                    continue
                if fk_value not in parent_tids:
                    parent_tids[fk_value] = self._lookup_parent_tid(md, fk_value)
                stamped[md.tid_column] = parent_tids[fk_value]
        return stamped_rows

    def _lookup_parent_tid(self, md: MatchingDependency, fk_value) -> object:
        self.stats.child_lookups += 1
        parent = self._catalog.table(md.parent_table)
        # One primary-key probe, then one column decoded at that row (§6.3).
        locator = parent.pk_lookup(fk_value)
        if locator is None:
            self.stats.lookups_failed += 1
            raise IntegrityError(
                f"insert into {md.child_table!r} references missing "
                f"{md.parent_table!r} row {fk_value!r} "
                f"(via {md.child_fk!r})"
            )
        partition = parent.partition(locator.partition)
        return partition.column(md.tid_column).value_at(locator.row)

    def __repr__(self) -> str:
        return (
            f"MDEnforcer(mds={len(self.dependencies())}, "
            f"lookups={self.stats.child_lookups})"
        )
