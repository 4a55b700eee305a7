"""Per-entry delta-compensation memos with append-only watermarks.

Between delta merges the delta partitions are append-only: updates and
deletes go through ``dts`` invalidation stamps (which bump the partition's
``invalidation_epoch``), and inserts only ever extend the row vectors.  The
compensation aggregate a cache hit computes over those partitions is
therefore *reusable*: once evaluated at snapshot ``S`` it stays correct for
every later snapshot until either rows are invalidated (epoch change) or
rows are appended — and appended rows can be folded in incrementally by
scanning just the suffix ``[watermark, row_count)`` of each partition.

A :class:`DeltaMemo` captures one such reusable state:

* ``folded`` — the grouped compensation aggregate of *all* evaluated
  subjoins at ``anchor``, over the watermarked prefix of every partition;
* ``watermarks`` — per-partition physical ``row_count`` at memo time;
* ``epochs`` — per-partition ``invalidation_epoch`` at memo time;
* ``horizon`` — the smallest MVCC stamp strictly greater than ``anchor``
  found anywhere in the covered prefixes (``inf`` when none).

The horizon pins down the correctness subtlety of reuse: a row *below* the
watermark can carry a stamp in ``(S, S']`` — a ``cts`` committed by a
transaction newer than the memo's reader, or a ``dts`` stamped before the
memo was taken by a not-yet-visible deleter.  Such a row changes visibility
between ``S`` and ``S'`` even though no epoch moved and no row was
appended.  Restricting reuse to ``anchor <= S' < horizon`` excludes exactly
these cases by construction; everything at or past the horizon triggers a
full rebuild.

Memos are **immutable**: queries run concurrently under the database's
shared read lock, so advancing a memo swaps in a new object (compare-and-
set on the owning entry) rather than mutating shared state.  A reader that
loses the race keeps its locally computed — still correct — result and
simply discards its advance.

Why per-partition watermarks suffice (no per-subjoin bookkeeping): prune
verdicts only change when a partition's dictionaries change, i.e. when it
grows.  A subjoin pruned at memo time was truly empty over the covered
prefixes (the pruner is conservative over *all* physical rows), so its
prefix contribution to ``folded`` is zero regardless of which strategy
later evaluates it; once it grows, its new rows sit above the watermark and
the telescoped expansion in :func:`incremental_specs` scans every term
holding a new row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..query.aggregates import GroupedAggregates
from ..query.executor import ComboSpec, RowRange
from ..storage.partition import Partition


@dataclass
class DeltaMemo:
    """One immutable snapshot of reusable delta-compensation state."""

    #: Compensation aggregate of all evaluated subjoins at ``anchor``,
    #: covering rows ``[0, watermark)`` of every recorded partition.
    #: Never mutated after install — concurrent readers merge from it.
    folded: GroupedAggregates
    #: The snapshot tid the memo is anchored at.
    anchor: int
    #: Smallest stamp > anchor in any covered prefix (inf = none): the memo
    #: serves readers in ``[anchor, horizon)`` only.
    horizon: float
    #: id(partition) -> physical row_count at memo time.
    watermarks: Dict[int, int]
    #: id(partition) -> invalidation_epoch at memo time.
    epochs: Dict[int, int]
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
    #: :func:`classify_memo` to a rebuild.  (A reduced-set memo does not
    #: cover the excluded tables' delta partitions, so growth there would
    #: otherwise be invisible to the watermark walk.)
    excluded: Tuple[Tuple[str, str], ...] = ()

    def covers(self, partition: Partition) -> bool:
        """True when ``partition`` (by identity) is recorded in this memo."""
        return self.partitions.get(id(partition)) is partition

    def rows_below_watermarks(self) -> int:
        """Total covered prefix rows — the scan work a reuse avoids."""
        return sum(self.watermarks.values())


def plan_partitions(subjoins) -> Dict[int, Partition]:
    """Every distinct partition referenced by the given planned subjoins
    (pruned and evaluated alike), keyed by object id."""
    out: Dict[int, Partition] = {}
    for sub in subjoins:
        for partition in sub.partitions.values():
            out[id(partition)] = partition
    return out


def build_memo(
    folded: GroupedAggregates,
    snapshot: int,
    partitions: Dict[int, Partition],
    signature: Tuple = (),
    excluded: Tuple[Tuple[str, str], ...] = (),
) -> DeltaMemo:
    """Record a freshly computed full compensation value as a memo."""
    watermarks: Dict[int, int] = {}
    epochs: Dict[int, int] = {}
    horizon = float("inf")
    for pid, partition in partitions.items():
        count = partition.row_count
        watermarks[pid] = count
        epochs[pid] = partition.invalidation_epoch
        horizon = min(horizon, partition.min_stamp_after(snapshot, 0, count))
    return DeltaMemo(
        folded=folded,
        anchor=snapshot,
        horizon=horizon,
        watermarks=watermarks,
        epochs=epochs,
        partitions=dict(partitions),
        signature=signature,
        excluded=excluded,
    )


def classify_memo(
    memo: Optional[DeltaMemo],
    snapshot: int,
    current: Dict[int, Partition],
    signature: Tuple = (),
    excluded: Tuple[Tuple[str, str], ...] = (),
) -> str:
    """Decide how a query at ``snapshot`` may use ``memo``.

    Returns ``"incremental"`` (reuse + advance), ``"older_reader"``
    (``snapshot`` predates the anchor: bypass, keep the memo for newer
    readers), or ``"rebuild"`` (no memo / exclusion decision changed /
    epochs moved / partition set changed / horizon crossed: recompute
    from scratch).

    ``excluded`` is the current plan's star-join exclusion fingerprint.
    A memo folded over one combo set is never replayed for a plan with a
    different one — even when the partition walk would pass (e.g. a plan
    built under a different strategy or override whose reduced partition
    set happens to coincide), because the watermarks only cover the
    memo's own combo set.
    """
    if memo is None:
        return "rebuild"
    if excluded != memo.excluded:
        return "rebuild"
    if snapshot < memo.anchor:
        return "older_reader"
    if not (snapshot < memo.horizon):
        return "rebuild"
    if signature and signature == memo.signature:
        # Per-table version counters unchanged: no append, no invalidation,
        # no partition swap since the memo — skip the per-partition walk.
        return "incremental"
    if len(current) != len(memo.partitions):
        return "rebuild"
    for pid, partition in current.items():
        if memo.partitions.get(pid) is not partition:
            return "rebuild"
        if partition.invalidation_epoch != memo.epochs[pid]:
            return "rebuild"
    return "incremental"


def incremental_specs(
    subjoins,
    watermarks: Dict[int, int],
) -> Tuple[List[ComboSpec], Dict[int, int], int]:
    """Expand the evaluated subjoins into delta-restricted combo specs.

    For each evaluated subjoin whose partitions grew past their watermarks,
    the contribution of the new rows telescopes over the ``k`` grown
    aliases ``g_1 … g_k`` (sorted): with old region ``O_a = [0, W_a)``, new
    region ``N_a = [W_a, rc_a)`` and full extent ``F_a = [0, rc_a)``,

        join(full) - join(old) = Σ_i join(g_<i: F, g_i: N, g_>i: O)

    — term ``i`` is join(g_≤i full, rest old) minus join(g_<i full, rest
    old), so the sum collapses to the difference, and every term pins one
    alias to its new rows: no old×old work is repeated.  The same identity
    drives main compensation (:mod:`repro.core.main_compensation`).
    Aliases whose partition did not grow keep their plain snapshot scan
    (their full extent is the old region).

    Returns ``(specs, spec_counts, rows_saved)``: the executor-ready
    specs in deterministic order (subjoin order, then term order), a map
    of subjoin index → number of specs it expanded to (``k``; 0 = fully
    memoized), and the number of already-covered prefix rows whose rescan
    the expansion avoided (the sum of watermarks of each evaluated
    subjoin's partitions — an approximation of the full-mode scan volume,
    which full mode would partially share across subjoins via scan memos).
    """
    specs: List[ComboSpec] = []
    spec_counts: Dict[int, int] = {}
    rows_saved = 0
    for index, sub in enumerate(subjoins):
        if sub.action != "evaluate":
            continue
        grown = sorted(
            alias
            for alias, partition in sub.partitions.items()
            if partition.row_count > watermarks.get(id(partition), 0)
        )
        rows_saved += sum(
            watermarks.get(id(p), 0) for p in sub.partitions.values()
        )
        spec_counts[index] = len(grown)
        for term in range(len(grown)):
            fixed: Dict[str, RowRange] = {}
            for position, alias in enumerate(grown):
                partition = sub.partitions[alias]
                low = watermarks.get(id(partition), 0)
                if position < term:
                    fixed[alias] = RowRange(0, partition.row_count)
                elif position == term:
                    fixed[alias] = RowRange(low, partition.row_count)
                else:
                    fixed[alias] = RowRange(0, low)
            specs.append(
                ComboSpec(
                    dict(sub.partitions),
                    extra_filters={a: list(f) for a, f in sub.pushdown.items()},
                    fixed_rows=fixed,
                )
            )
    return specs, spec_counts, rows_saved


def advance_memo(
    memo: DeltaMemo,
    snapshot: int,
    increment: Optional[GroupedAggregates],
    signature: Tuple = (),
) -> DeltaMemo:
    """The memo re-anchored at ``snapshot`` with ``increment`` folded in.

    The exclusion fingerprint carries over unchanged —
    :func:`classify_memo` already required it to match the plan's.

    Only valid after :func:`classify_memo` returned ``"incremental"`` for
    ``snapshot``: the old prefixes then contribute identically at the new
    anchor, so the new horizon is the minimum of the old one and the
    smallest future stamp in the newly covered regions.  Watermarks advance
    to the current row counts of *all* recorded partitions — sound for
    partitions whose subjoins are currently pruned because the prune
    verdict covers their full physical extent (see module docstring).
    """
    if increment is not None:
        folded = memo.folded.copy()
        folded.merge(increment)
    else:
        folded = memo.folded
    watermarks: Dict[int, int] = {}
    epochs: Dict[int, int] = {}
    horizon = memo.horizon
    for pid, partition in memo.partitions.items():
        count = partition.row_count
        old = memo.watermarks[pid]
        if count > old:
            horizon = min(
                horizon, partition.min_stamp_after(snapshot, old, count)
            )
        watermarks[pid] = count
        epochs[pid] = partition.invalidation_epoch
    return DeltaMemo(
        folded=folded,
        anchor=snapshot,
        horizon=horizon,
        watermarks=watermarks,
        epochs=epochs,
        partitions=memo.partitions,
        signature=signature,
        excluded=memo.excluded,
    )
