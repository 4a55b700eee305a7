"""Dynamic join pruning and join predicate pushdown (Sections 5.1, 5.3, 5.4).

Given one compensation subjoin — an assignment of a concrete partition to
every table alias — the :class:`JoinPruner` decides whether the subjoin can
be skipped, and if not, which pushdown filters can narrow it:

1. **Empty-partition pruning**: a physically empty partition makes the whole
   subjoin empty (the common case for dimension-table deltas).
2. **Logical hot/cold pruning**: under a declared consistent aging, matching
   tuples share a temperature, so a subjoin pairing a hot partition of one
   table with a cold partition of the other is empty by definition
   (Section 5.4).
3. **Dynamic tid-range pruning** (Equation 5): for a join edge covered by a
   matching dependency, matching tuples agree on the MD's tid column; if the
   tid ranges of the two partitions' dictionaries are disjoint —
   ``max(R1[tid]) < min(S2[tid]) ∨ min(R1[tid]) > max(S2[tid])`` — the
   subjoin is empty.  Ranges come from the current dictionaries, which is
   exactly the paper's runtime prefilter.
4. **Join predicate pushdown** (Section 5.3): if the ranges overlap, tuples
   can still only match inside the *intersection* of the ranges, so a local
   tid-range predicate is pushed onto each side whose own range is wider.
   With referential integrity enforced (the default), a NULL tid implies a
   NULL or dangling foreign key — a row that cannot join — so the pushed
   filter is a plain range pair evaluable in dictionary-code space.  When
   the engine runs with RI enforcement off, matching dependencies are no
   longer guaranteed to hold and the pruner must be constructed with
   ``assume_md_integrity=False``, which keeps NULL-tid rows conservatively
   (``NOT (tid < lo OR tid > hi)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..query.expr import Cmp, Col, Expr, Lit, Not, Or
from ..query.query import AggregateQuery, JoinEdge
from ..storage.aging import ConsistentAging
from ..storage.dictionary import NULL_CODE, DeltaDictionary
from ..storage.partition import Partition
from .matching_dependency import MatchingDependency
from .strategies import ExecutionStrategy


@dataclass
class PruneReport:
    """Per-query pruning outcome counters.

    ``combos_total`` counts the *enumerated* variants; with star-join
    reduction active that is already the collapsed ``2^k - 1`` set, and
    ``combos_excluded`` records how many combinations the reduction kept
    from ever being enumerated (``excluded_tables`` = how many tables it
    pinned to their mains).  ``combos_total + combos_excluded`` recovers
    the exhaustive ``2^t - 1`` count.
    """

    combos_total: int = 0
    pruned_empty: int = 0
    pruned_logical: int = 0
    pruned_dynamic: int = 0
    pushdown_filters: int = 0
    evaluated: int = 0
    excluded_tables: int = 0
    combos_excluded: int = 0
    #: Pruned subjoins that involved at least one memory-mapped cold
    #: partition — cold disk scans avoided purely from the RAM synopsis.
    synopsis_skips: int = 0

    @property
    def pruned_total(self) -> int:
        """Total subjoins pruned across all mechanisms."""
        return self.pruned_empty + self.pruned_logical + self.pruned_dynamic


def partition_temperature(partition: Partition) -> Optional[str]:
    """"hot"/"cold" for aged partitions, None for plain main/delta."""
    prefix = partition.name.split("_", 1)[0]
    return prefix if prefix in ("hot", "cold") else None


@dataclass(frozen=True)
class _EdgeInfo:
    """A join edge annotated with its MD and consistent-aging coverage."""

    edge: JoinEdge
    md: Optional[MatchingDependency]
    aged_consistently: bool


class JoinPruner:
    """Prune/pushdown decisions for one query's compensation subjoins."""

    def __init__(
        self,
        query: AggregateQuery,
        mds: Sequence[MatchingDependency],
        consistent_agings: Sequence[ConsistentAging],
        strategy: ExecutionStrategy,
        predicate_pushdown: bool = False,
        assume_md_integrity: bool = True,
        obs=None,
    ):
        self._query = query
        self._strategy = strategy
        # Optional EngineMetrics: per-reason prune counters and pushdown
        # counts feed the metrics registry straight from the decision site.
        self._obs = obs
        self._pushdown = predicate_pushdown and strategy.prunes_dynamic
        self._assume_md_integrity = assume_md_integrity
        self._edges: List[_EdgeInfo] = []
        for edge in query.join_edges:
            table_a = query.table_of(edge.left_alias)
            table_b = query.table_of(edge.right_alias)
            covering_md = next(
                (
                    md
                    for md in mds
                    if md.covers_join(table_a, edge.left_col, table_b, edge.right_col)
                ),
                None,
            )
            aged = any(decl.covers(table_a, table_b) for decl in consistent_agings)
            self._edges.append(_EdgeInfo(edge, covering_md, aged))

    # ------------------------------------------------------------------
    def check(
        self, assignment: Dict[str, Partition]
    ) -> Tuple[Optional[str], Dict[str, List[Expr]]]:
        """Decide the fate of one subjoin.

        Returns ``(reason, extra_filters)``: ``reason`` is ``"empty"``,
        ``"logical"``, or ``"dynamic"`` when the subjoin is pruned (then
        ``extra_filters`` is empty), or ``None`` when it must be evaluated —
        possibly with pushdown filters per alias.
        """
        reason, pushdown = self._check(assignment)
        if self._obs is not None:
            if reason is not None:
                self._obs.subjoins_pruned.labels(reason).inc()
            elif pushdown:
                self._obs.pushdown_filters.inc(
                    sum(len(filters) for filters in pushdown.values())
                )
        return reason, pushdown

    def _check(
        self, assignment: Dict[str, Partition]
    ) -> Tuple[Optional[str], Dict[str, List[Expr]]]:
        if self._strategy.prunes_empty:
            for partition in assignment.values():
                if partition.row_count == 0:
                    return "empty", {}
        if not self._strategy.prunes_dynamic:
            return None, {}
        # Logical pruning first: a name comparison, cheaper than range checks.
        for info in self._edges:
            if not info.aged_consistently:
                continue
            temp_left = partition_temperature(assignment[info.edge.left_alias])
            temp_right = partition_temperature(assignment[info.edge.right_alias])
            if temp_left and temp_right and temp_left != temp_right:
                return "logical", {}
        pushdown: Dict[str, List[Expr]] = {}
        for info in self._edges:
            if info.md is None:
                continue
            left = assignment[info.edge.left_alias]
            right = assignment[info.edge.right_alias]
            tid = info.md.tid_column
            # The dictionary ranges below cover only non-NULL tids.  Under
            # enforced RI a NULL tid implies a NULL or dangling foreign key —
            # a row with no join partner — so range reasoning covers every
            # joinable row.  With RI off a NULL-tid row may still join
            # (a dangling child whose parent arrived later), which poisons
            # range reasoning in two directions: NULLs on *either* side make
            # a range-based prune unsound, and NULLs on one side make any
            # filter derived from that side's range unsound on the *other*
            # side (the NULL partner's tid is not in the range).
            # All three synopsis facts (null flags, ranges) come from the
            # partition's resident synopsis — for memory-mapped cold
            # partitions the verdict is reached without touching disk.
            left_nulls = not self._assume_md_integrity and left.has_nulls(tid)
            right_nulls = not self._assume_md_integrity and right.has_nulls(tid)
            nullable_tids = left_nulls or right_nulls
            left_range = (left.min_value(tid), left.max_value(tid))
            right_range = (right.min_value(tid), right.max_value(tid))
            if left_range[0] is None or right_range[0] is None:
                # One side has no non-NULL tid values at all.  With trusted
                # MDs no tuple can satisfy the implied equality, so the
                # subjoin is empty ("for an empty partition we define
                # min()/max() such that the prefilter is true").
                if nullable_tids:
                    continue  # all-NULL side may still join; nothing to push
                return "dynamic", {}
            if left_range[1] < right_range[0] or left_range[0] > right_range[1]:
                if not nullable_tids:
                    return "dynamic", {}
                # Disjoint ranges with NULLs present: only pairs with a NULL
                # tid on one side can match.  The pushdown below narrows
                # whichever side still admits a sound filter.
            if self._pushdown:
                self._collect_pushdown(
                    info, left_range, right_range, pushdown,
                    left_nulls, right_nulls,
                )
        return None, pushdown

    def row_set_columns(self) -> Dict[str, Tuple[str, ...]]:
        """alias -> the tid columns :meth:`rows_disjoint` reads on it (none
        when the strategy prunes nothing dynamically or the matching
        dependencies are not trusted)."""
        out: Dict[str, Tuple[str, ...]] = {}
        if not (self._strategy.prunes_dynamic and self._assume_md_integrity):
            return out
        for info in self._edges:
            if info.md is not None:
                for alias in info.edge.aliases():
                    if info.md.tid_column not in out.get(alias, ()):
                        out[alias] = out.get(alias, ()) + (info.md.tid_column,)
        return out

    def rows_disjoint(self, tid_range, restricted) -> bool:
        """Equation 5 over row sets instead of partitions: whether an
        MD-covered edge pairs two row sets whose tid ranges do not meet,
        which empties their join.  ``tid_range(alias, column)`` is the
        ``(min, max)`` of the set read as ``alias`` — ``(None, None)`` when
        it holds no non-NULL tid, None when unknown (never pruned on).  Only
        edges touching an alias in ``restricted`` (read as part of its
        partition) are checked: the subjoin's own verdict covers the rest."""
        if not (self._strategy.prunes_dynamic and self._assume_md_integrity):
            return False
        for info in self._edges:
            if info.md is None or not (
                info.edge.left_alias in restricted or info.edge.right_alias in restricted
            ):
                continue
            left = tid_range(info.edge.left_alias, info.md.tid_column)
            right = tid_range(info.edge.right_alias, info.md.tid_column)
            if left is None or right is None:
                continue
            if left[0] is None or right[0] is None:
                return True
            if left[1] < right[0] or left[0] > right[1]:
                return True
        return False

    def _collect_pushdown(
        self,
        info: _EdgeInfo,
        left_range: Tuple,
        right_range: Tuple,
        pushdown: Dict[str, List[Expr]],
        left_nulls: bool = False,
        right_nulls: bool = False,
    ) -> None:
        """Narrow each side to the intersection of the two tid ranges.

        A side's filter bounds its tids by the *partner's* dictionary range,
        so it is only sound while every joinable partner row actually has
        its tid in that range — i.e. while the partner side is NULL-free.
        The side's own NULL rows are preserved by the null-safe filter form.
        """
        tid = info.md.tid_column
        lo = max(left_range[0], right_range[0])
        hi = min(left_range[1], right_range[1])
        for alias, own, partner_nulls in (
            (info.edge.left_alias, left_range, right_nulls),
            (info.edge.right_alias, right_range, left_nulls),
        ):
            if partner_nulls:
                continue  # a NULL partner may join outside any range
            if own[0] >= lo and own[1] <= hi:
                continue  # the side is already inside the intersection
            filters = pushdown.setdefault(alias, [])
            col = Col(tid, alias)
            if self._assume_md_integrity:
                # Plain range conjuncts: evaluable in code space; NULL-tid
                # rows are dropped, which is safe because under enforced RI
                # they cannot have a join partner on an MD-covered edge.
                filters.append(Cmp(">=", col, Lit(lo)))
                filters.append(Cmp("<=", col, Lit(hi)))
            else:
                filters.append(_null_safe_range(col, lo, hi))


def tid_range(partition: Partition, column: str, rows) -> Tuple:
    """The ``(min, max)`` of ``column`` over some rows of ``partition`` (an
    index array or a :class:`~repro.query.executor.RowRange`), ``(None,
    None)`` when none of them holds a non-NULL value."""
    fragment = partition.column(column)
    if isinstance(rows, np.ndarray):
        codes = fragment.codes_for(rows)
    else:
        codes = fragment.codes()[rows.start:rows.stop]
    codes = codes[codes != NULL_CODE]
    if not len(codes):
        return None, None
    dictionary = fragment.dictionary
    if not isinstance(dictionary, DeltaDictionary):  # sorted: codes are ranks
        return dictionary.decode(int(codes.min())), dictionary.decode(int(codes.max()))
    values = dictionary.decode_table()[codes]
    return values.min(), values.max()


def _null_safe_range(col: Col, lo, hi) -> Expr:
    """``NOT (col < lo OR col > hi)`` — true for values in [lo, hi] AND for
    NULL (a NULL comparison is false, so the negation keeps the row)."""
    return Not(Or([Cmp("<", col, Lit(lo)), Cmp(">", col, Lit(hi))]))
