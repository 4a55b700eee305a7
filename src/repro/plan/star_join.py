"""Star-join table detection for compensation-variant reduction.

Delta compensation enumerates one subjoin per non-all-main partition
combination: ``2^t - 1`` variants for ``t`` joined tables, which caps
practical join width at ~4 tables.  The star-join observation (the
"p0 table" handling in partition-wise join processors, and the paper's
own dimension-table argument) is that a table whose delta partitions
hold no rows cannot contribute a non-main partition to any *non-empty*
subjoin — so it can be **excluded** from variant generation and its main
partition re-attached to every remaining variant, collapsing the
enumeration to ``2^k - 1`` over the ``k`` remaining
tables.  Unlike enumerate-then-prune, the excluded combinations are
never materialized, and the reduced combo set is *stable*, which keeps
per-combo delta memos reusable across queries.

Which tables are excluded is one rule, :func:`exclusion_is_sound`:
pinning a table to its main partition is only correct when *all* of its
write-side partitions are physically empty (``row_count == 0`` —
conservative: invalidated but unmerged rows still count) and the table
is not aged (a single main partition exists to pin).  Every table that
passes is excluded, whether or not the query reads more than its join
keys; a table with delta rows never is, since its delta rows can join
another table's delta rows.  The gate is re-validated at enumeration
time by :func:`~repro.core.delta_compensation.compensation_assignments`,
so a stale exclusion decision degrades to full enumeration instead of a
wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..query.query import AggregateQuery
from ..storage.catalog import Catalog
from ..storage.table import Table


@dataclass(frozen=True)
class ExcludedTable:
    """One table excluded from compensation-variant generation."""

    alias: str
    table: str


def exclusion_is_sound(table: Table) -> bool:
    """The gate: pinning ``table`` to its main drops no rows, provably.

    Requires a single unaged main to pin and physically empty write-side
    partitions (deltas and update-deltas; ``row_count`` counts invalidated
    rows too, which keeps the check snapshot-independent so one plan can
    serve every reader).
    """
    if table.is_aged():
        return False
    if len(table.main_partitions()) != 1:
        return False
    return all(p.row_count == 0 for p in table.delta_partitions())


def star_join_exclusions(
    query: AggregateQuery, catalog: Catalog
) -> Tuple[ExcludedTable, ...]:
    """Every table of the bound query that passes
    :func:`exclusion_is_sound`, sorted by alias so the result is
    deterministic across FROM-order re-spellings."""
    excluded = [
        ExcludedTable(ref.alias, ref.table)
        for ref in query.tables
        if exclusion_is_sound(catalog.table(ref.table))
    ]
    return tuple(sorted(excluded, key=lambda e: e.alias))


def excluded_fingerprint(excluded: Tuple[ExcludedTable, ...]) -> Tuple[str, ...]:
    """The sorted alias tuple embedded in plan signatures and delta-memo
    identities: a memo folded over one combo set is never replayed for a
    plan that excludes different tables."""
    return tuple(e.alias for e in excluded)
