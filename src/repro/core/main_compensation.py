"""Main compensation (Section 2.2), and the signed step it is a case of.

Updates and deletes invalidate rows in the main storage (the new version,
if any, goes to the delta).  A cache entry therefore stores the visibility
bit vector of every referenced main partition at creation time; at use
time the rows the stored vectors count and the reader no longer sees are
*subtracted* from the cached aggregate.

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

:func:`telescoped_specs` is that identity, and the only copy of it: the
compensation memo's visibility step (:mod:`repro.core.delta_memo`) is the
case ``X`` = the effective rows at the memo's anchor, ``X'`` = at the
reader's snapshot, on every partition of the all-main combination and of
each delta subjoin.  Main compensation is the all-main combination's terms
of the step from the entry's *birth* memo, whose mains are at the rows the
entry stored: ``X = stored``, ``X' = stored ∩ current``, where rows only
leave (``D = −inv``).

An invalidated row whose visible successor changed no column the query
reads is not subtracted at all: :mod:`repro.core.effective_rows` revives it
(it stays in ``X'``) and hides the successor from delta compensation, so
``inv`` holds only the rows whose change the query can see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import CacheError
from ..query.executor import ComboSpec, RowRange
from ..storage.partition import Partition

#: A row set: an explicit sorted index array (read as is) or a row range
#: (read through the snapshot's effective scan).
Rows = Union[np.ndarray, RowRange]


class StaleEntryError(CacheError):
    """The entry's partitions were rebuilt without maintenance; recompute."""


@dataclass
class RowShift:
    """How one partition's rows moved between an earlier state and the
    reader's (which the terms read through its effective scan)."""

    #: ``(sign, rows)``: the rows that entered (+1) and that left (-1).
    parts: List[Tuple[int, Rows]]
    #: The earlier state, or a function building it: most shifts are
    #: pinned in every term that reads them and never need it.
    old: Union[Rows, Callable[[], np.ndarray]]

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
    their scans.  A term that pins an input to no rows joins nothing and
    is left out — a delta's earlier state in a step from birth, say — as is
    every term over a partition with no rows at all.
    """
    if not all(partition.row_count for partition in partitions.values()):
        return []
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
    # The terms read, never change, these: one copy serves them all.
    partitions = dict(partitions)
    filters = {a: list(f) for a, f in (extra_filters or {}).items()}
    specs: List[ComboSpec] = []
    for position, pinned in enumerate(moved):
        fixed = {
            alias: shifts[id(partitions[alias])].earlier() for alias in moved[position + 1:]
        }
        for sign, rows in shifts[id(partitions[pinned])].parts:
            term = {**fixed, pinned: rows}
            if all(map(len, term.values())):
                specs.append(ComboSpec(partitions, filters, term, sign))
    return specs
