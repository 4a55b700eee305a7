"""Delta compensation (Section 2.3.2) with object-aware pruning (Section 5).

A query answered from the aggregate cache combines the cached all-main
aggregate(s) with the on-the-fly aggregate of every other partition
combination: ``JwithCache(t) = JnoCache(t) \\ {main}^t``.  This module
enumerates that compensation set; the planner (:mod:`repro.plan.physical`)
runs each subjoin through the :class:`~repro.core.pruning.JoinPruner` and
attaches the pushdown filters.

Star-join-aware variant reduction (:mod:`repro.plan.star_join`) shrinks
the enumeration itself: tables excluded by the planner are pinned to
their single main partition and re-attached to every variant, so only
``2^k - 1`` combinations over the ``k`` remaining tables are generated
instead of ``2^t - 1``.  The exclusion soundness gate (all delta
partitions physically empty, table not aged) is re-validated here at
enumeration time — a stale or wrong exclusion decision falls back to
full enumeration for that table, so the delta suffix is always scanned
and degenerate cases (k = 0, single-table joins) stay correct: the
reduced product still contains every combination that could hold rows.

Repeated hits do not re-evaluate the surviving set from scratch: the
cache manager keeps a per-entry :class:`~repro.core.delta_memo.DeltaMemo`
of the folded compensation value and steps it over the rows whose
visibility changed since its anchor — appended, updated or deleted alike.
A read without a usable memo steps from the entry's birth memo, which
evaluates each surviving subjoin once, as the paper does.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..plan.star_join import ExcludedTable, exclusion_is_sound
from ..query.query import AggregateQuery
from ..storage.catalog import Catalog
from ..storage.partition import Partition


def _combo_identity(assignment: Dict[str, Partition]) -> FrozenSet[Tuple[str, int]]:
    return frozenset((alias, id(partition)) for alias, partition in assignment.items())


def sound_exclusions(
    query: AggregateQuery,
    catalog: Catalog,
    excluded: Sequence[ExcludedTable],
) -> Tuple[ExcludedTable, ...]:
    """The subset of ``excluded`` whose pinned-main reading is safe *now*.

    This is the enumeration-time re-validation of the star-join soundness
    gate: a table whose delta grew (or that was aged) since the exclusion
    decision is silently re-included into full enumeration rather than
    pinned to a main that no longer covers all its rows.
    """
    return tuple(
        ex
        for ex in excluded
        if exclusion_is_sound(catalog.table(query.table_of(ex.alias)))
    )


def compensation_assignments(
    query: AggregateQuery,
    catalog: Catalog,
    cached_combos: Sequence[Dict[str, Partition]],
    excluded: Sequence[ExcludedTable] = (),
) -> List[Dict[str, Partition]]:
    """All partition combinations except the cached all-main ones.

    Tables named in ``excluded`` (after the soundness-gate re-check) are
    pinned to their single main partition; the product runs over the
    remaining tables' full partition lists in FROM order, exactly like
    :func:`~repro.query.executor.all_partition_combos` restricted to the
    non-excluded axes.
    """
    pinned = {ex.alias for ex in sound_exclusions(query, catalog, excluded)}
    per_alias: List[List[Tuple[str, Partition]]] = []
    for ref in query.tables:
        table = catalog.table(ref.table)
        if ref.alias in pinned:
            per_alias.append([(ref.alias, table.main_partitions()[0])])
        else:
            per_alias.append([(ref.alias, p) for p in table.partitions()])
    cached_ids = {_combo_identity(combo) for combo in cached_combos}
    return [
        dict(chosen)
        for chosen in itertools.product(*per_alias)
        if _combo_identity(dict(chosen)) not in cached_ids
    ]


def excluded_combo_count(
    query: AggregateQuery,
    catalog: Catalog,
    excluded: Sequence[ExcludedTable],
) -> int:
    """How many partition combinations the reduction never enumerated:
    the full product over every table's partitions minus the reduced
    product with excluded tables pinned (cached all-main combinations
    appear in both products, so they cancel)."""
    pinned = {ex.alias for ex in excluded}
    full = 1
    reduced = 1
    for ref in query.tables:
        n = len(catalog.table(ref.table).partitions())
        full *= n
        if ref.alias not in pinned:
            reduced *= n
    return full - reduced
