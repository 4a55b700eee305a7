"""Aggregate functions, accumulators, and grouped aggregation state.

The aggregate cache only admits queries whose aggregate functions are
*self-maintainable* (Section 2.1): SUM, COUNT, and AVG (kept internally as
SUM + COUNT).  Self-maintainability is what makes both directions of
compensation algebraic — delta records are *added* into the cached groups,
invalidated main records are *subtracted* — without touching base data
beyond the changed rows.  Every cached value carries COUNT(*) per group
(Fig. 2) so a group whose row count reaches zero can be retired.

MIN and MAX are supported by the plain executor but are rejected by the
cache, exactly as in the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CacheError, QueryError
from .expr import Expr


class AggFunc(enum.Enum):
    """Supported aggregate functions."""

    SUM = "SUM"
    COUNT = "COUNT"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"

    @property
    def self_maintainable(self) -> bool:
        """Whether incremental add/subtract maintenance is possible."""
        return self in (AggFunc.SUM, AggFunc.COUNT, AggFunc.AVG)


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in the SELECT list.

    ``arg`` is ``None`` for ``COUNT(*)``.  ``output`` is the result-column
    name (the AS alias, or a generated one).  ``distinct`` marks
    ``COUNT(DISTINCT expr)`` — supported by the executor but *not*
    self-maintainable (a distinct set cannot be subtracted from), so such
    queries fall back to uncached execution like MIN/MAX.
    """

    func: AggFunc
    arg: Optional[Expr]
    output: str
    distinct: bool = False

    def __post_init__(self):
        if self.arg is None and self.func is not AggFunc.COUNT:
            raise QueryError(f"{self.func.value} requires an argument")
        if self.distinct and (self.func is not AggFunc.COUNT or self.arg is None):
            raise QueryError("DISTINCT is only supported for COUNT(expr)")

    @property
    def is_count_star(self) -> bool:
        """True for COUNT(*)."""
        return self.func is AggFunc.COUNT and self.arg is None

    @property
    def self_maintainable(self) -> bool:
        """Whether this aggregate supports signed incremental maintenance."""
        return self.func.self_maintainable and not self.distinct

    def canonical(self) -> str:
        """Stable textual form used in cache keys."""
        arg = "*" if self.arg is None else self.arg.canonical()
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.func.value}({prefix}{arg})"

    def rebind(self, alias_map) -> "AggregateSpec":
        """Copy with table aliases substituted per ``alias_map``."""
        arg = self.arg.rebind(alias_map) if self.arg is not None else None
        return AggregateSpec(self.func, arg, self.output, self.distinct)


# Internal accumulator state per (group, aggregate):
#   SUM / AVG        -> [sum, non-null count]
#   COUNT            -> [count]
#   COUNT DISTINCT   -> [set of seen values]
#   MIN              -> [value or None]
#   MAX              -> [value or None]
GroupKey = Tuple


class GroupedAggregates:
    """Mutable grouped aggregation state supporting signed accumulation.

    This object is both the executor's aggregation sink and the *aggregate
    cache value*: an entry stores one of these (computed on the mains), a
    query-time copy absorbs delta compensation with ``sign=+1`` and main
    compensation with ``sign=-1``, and ``finalize`` renders the result rows.

    A *signed* state holds a difference of two row multisets rather than a
    multiset — the compensation a cache entry's value still needs.  There a
    group whose COUNT(*) nets to zero can still carry a sum (an update that
    changes a price but not the group), so only groups whose every state is
    zero are retired.
    """

    __slots__ = ("specs", "signed", "_groups", "_count_star")

    def __init__(self, specs: Sequence[AggregateSpec], signed: bool = False):
        self.specs: List[AggregateSpec] = list(specs)
        self.signed = signed
        self._groups: Dict[GroupKey, List[list]] = {}
        self._count_star: Dict[GroupKey, int] = {}

    # ------------------------------------------------------------------
    # accumulation
    # ------------------------------------------------------------------
    def _new_states(self) -> List[list]:
        states: List[list] = []
        for spec in self.specs:
            if spec.func in (AggFunc.SUM, AggFunc.AVG):
                # The sum starts at integer 0, not 0.0: integer columns then
                # accumulate through Python's arbitrary-precision ints and
                # stay exact past 2**53, while float contributions promote
                # the state to float with bit-identical results (0 + x and
                # 0.0 + x round the same for every float x).
                states.append([0, 0])
            elif spec.func is AggFunc.COUNT:
                states.append([set()] if spec.distinct else [0])
            else:  # MIN / MAX
                states.append([None])
        return states

    def accumulate(
        self,
        keys: Sequence[GroupKey],
        agg_columns: Sequence[np.ndarray],
        sign: int = 1,
    ) -> None:
        """Fold rows into the groups.

        ``keys`` has one group key per row; ``agg_columns`` has one value
        array per aggregate spec (ignored entry for COUNT(*)).  ``sign=-1``
        subtracts — only legal when every aggregate is self-maintainable.
        """
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if sign == -1:
            self._require_self_maintainable("subtract from")
        groups = self._groups
        count_star = self._count_star
        specs = self.specs
        for row, key in enumerate(keys):
            states = groups.get(key)
            if states is None:
                states = self._new_states()
                groups[key] = states
                count_star[key] = 0
            count_star[key] += sign
            for i, spec in enumerate(specs):
                state = states[i]
                if spec.func in (AggFunc.SUM, AggFunc.AVG):
                    value = agg_columns[i][row]
                    if value is not None:
                        state[0] += sign * value
                        state[1] += sign
                elif spec.func is AggFunc.COUNT:
                    if spec.arg is None:
                        state[0] += sign
                    elif spec.distinct:
                        value = agg_columns[i][row]
                        if value is not None:
                            state[0].add(value)
                    else:
                        value = agg_columns[i][row]
                        if value is not None:
                            state[0] += sign
                elif spec.func is AggFunc.MIN:
                    value = agg_columns[i][row]
                    if value is not None and (state[0] is None or value < state[0]):
                        state[0] = value
                else:  # MAX
                    value = agg_columns[i][row]
                    if value is not None and (state[0] is None or value > state[0]):
                        state[0] = value
        self._retire_empty_groups()

    def accumulate_groups(
        self,
        keys: Sequence[GroupKey],
        spec_states: Sequence[Sequence],
        count_star: Sequence[int],
        sign: int = 1,
    ) -> None:
        """Fold *pre-aggregated* group contributions (vectorized fast path).

        ``spec_states[i][g]`` is the aggregated contribution of group ``g``
        for spec ``i``: a ``(sum, non-null count)`` pair for SUM/AVG, a bare
        count for COUNT.  Only self-maintainable specs are supported — the
        executor falls back to :meth:`accumulate` otherwise.
        """
        if sign == -1:
            self._require_self_maintainable("subtract from")
        groups = self._groups
        stars = self._count_star
        specs = self.specs
        for g, key in enumerate(keys):
            states = groups.get(key)
            if states is None:
                states = self._new_states()
                groups[key] = states
                stars[key] = 0
            stars[key] += sign * int(count_star[g])
            for i, spec in enumerate(specs):
                state = states[i]
                contribution = spec_states[i][g]
                if spec.func in (AggFunc.SUM, AggFunc.AVG):
                    state[0] += sign * contribution[0]
                    state[1] += sign * int(contribution[1])
                elif spec.func is AggFunc.COUNT:
                    state[0] += sign * int(contribution)
                else:  # pragma: no cover - guarded by caller
                    raise CacheError(
                        "accumulate_groups requires self-maintainable specs"
                    )
        self._retire_empty_groups()

    def merge(self, other: "GroupedAggregates", sign: int = 1) -> None:
        """Fold another grouped state into this one (cache compensation).

        ``other`` is not mutated.  Spec compatibility is checked by object
        identity first (the common case: both sides were built from the same
        bound query) before falling back to canonical comparison.
        """
        if self.specs is not other.specs and [
            s.canonical() for s in self.specs
        ] != [s.canonical() for s in other.specs]:
            raise CacheError("cannot merge grouped aggregates with different specs")
        if sign == -1:
            self._require_self_maintainable("subtract from")
        if not self._groups and sign == 1:
            # The first fold into a fresh aggregate (a hit's cached value,
            # an executor run's first partial): same groups, same states,
            # in ``other``'s key order — adopt copies instead of adding each
            # state to zero.
            self._groups = other._copied_groups()
            self._count_star = dict(other._count_star)
            if other.signed and not self.signed:
                self._retire_empty_groups()
            return
        for key, other_states in other._groups.items():
            states = self._groups.get(key)
            if states is None:
                states = self._new_states()
                self._groups[key] = states
                self._count_star[key] = 0
            self._count_star[key] += sign * other._count_star[key]
            for i, spec in enumerate(self.specs):
                state = states[i]
                other_state = other_states[i]
                if spec.func in (AggFunc.SUM, AggFunc.AVG):
                    state[0] += sign * other_state[0]
                    state[1] += sign * other_state[1]
                elif spec.func is AggFunc.COUNT:
                    if spec.distinct:
                        state[0] |= other_state[0]
                    else:
                        state[0] += sign * other_state[0]
                elif spec.func is AggFunc.MIN:
                    if other_state[0] is not None and (
                        state[0] is None or other_state[0] < state[0]
                    ):
                        state[0] = other_state[0]
                else:  # MAX
                    if other_state[0] is not None and (
                        state[0] is None or other_state[0] > state[0]
                    ):
                        state[0] = other_state[0]
        # Only the groups ``other`` touched can have emptied.
        self._retire_empty_groups(other._groups)

    def _require_self_maintainable(self, action: str) -> None:
        for spec in self.specs:
            if not spec.self_maintainable:
                raise CacheError(
                    f"cannot {action} non-self-maintainable aggregate "
                    f"{spec.canonical()}"
                )

    def _retire_empty_groups(self, keys: Optional[Iterable[GroupKey]] = None) -> None:
        """Drop the empty groups among ``keys`` (default: all of them)."""
        stars = self._count_star
        if keys is None:
            keys = stars
        dead = [key for key in keys if stars[key] == 0]
        if self.signed:
            dead = [
                key for key in dead if not any(any(s) for s in self._groups[key])
            ]
        for key in dead:
            del self._groups[key]
            del self._count_star[key]

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def group_count(self) -> int:
        """Number of live groups."""
        return len(self._groups)

    def count_star(self, key: GroupKey) -> int:
        """COUNT(*) of one group (0 if absent)."""
        return self._count_star.get(key, 0)

    def keys(self) -> Iterable[GroupKey]:
        """The live group keys."""
        return self._groups.keys()

    def raw_states(self, key: GroupKey) -> List[list]:
        """The internal accumulator states of one group (copied)."""
        return [list(state) for state in self._groups[key]]

    def finalize(self) -> List[Tuple]:
        """Render result rows: group key columns followed by aggregate values.

        AVG resolves to sum/count (NULL for empty), SUM over no non-null
        input is NULL per SQL semantics.
        """
        return self.finalize_keys(self._groups)

    def finalize_keys(self, keys: Iterable[GroupKey]) -> List[Tuple]:
        """The result rows of the given live groups, in the order given —
        what :meth:`finalize` renders for them, without touching any other
        group (a pure hit emits its remembered output order this way, see
        :class:`repro.core.cache_entry.ResultOrder`)."""
        # One small int per spec, decided once: 0 = the state's first slot
        # as is (COUNT, MIN, MAX), 1 = SUM, 2 = AVG, 3 = COUNT DISTINCT.
        kinds = [
            1 if spec.func is AggFunc.SUM
            else 2 if spec.func is AggFunc.AVG
            else 3 if spec.distinct
            else 0
            for spec in self.specs
        ]
        groups = self._groups
        rows: List[Tuple] = []
        for key in keys:
            out: List[object] = list(key)
            for kind, state in zip(kinds, groups[key]):
                if kind == 0:
                    out.append(state[0])
                elif kind == 1:
                    out.append(state[0] if state[1] > 0 else None)
                elif kind == 2:
                    out.append(state[0] / state[1] if state[1] > 0 else None)
                else:
                    out.append(len(state[0]))
            rows.append(tuple(out))
        return rows

    def new_like(self, signed: Optional[bool] = None) -> "GroupedAggregates":
        """An empty grouped state *sharing* this one's specs list.

        The parallel executor builds per-subjoin partials this way so that
        folding them back hits :meth:`merge`'s fast identity check instead
        of comparing canonical spec forms on every subjoin.  ``signed``
        defaults to this state's own.
        """
        fresh = GroupedAggregates((), self.signed if signed is None else signed)
        fresh.specs = self.specs
        return fresh

    def copy(self) -> "GroupedAggregates":
        """Deep copy (independent accumulator states; specs list shared)."""
        out = self.new_like()
        out._groups = self._copied_groups()
        out._count_star = dict(self._count_star)
        return out

    def _copied_groups(self) -> Dict[GroupKey, List[list]]:
        """Independent accumulator states in this aggregate's key order
        (COUNT DISTINCT sets are copied, never shared)."""
        if any(spec.distinct for spec in self.specs):
            return {
                key: [
                    [set(state[0])] if spec.distinct else list(state)
                    for spec, state in zip(self.specs, states)
                ]
                for key, states in self._groups.items()
            }
        return {
            key: [list(state) for state in states]
            for key, states in self._groups.items()
        }

    def total_rows_aggregated(self) -> int:
        """Sum of COUNT(*) over all groups (a cache-metrics input)."""
        return sum(self._count_star.values())

    def approximate_nbytes(self) -> int:
        """Rough size of the grouped state, used by cache metrics/eviction."""
        per_group = 48 + 24 * max(1, len(self.specs))
        return len(self._groups) * per_group

    def __repr__(self) -> str:
        return (
            f"GroupedAggregates(groups={len(self._groups)}, "
            f"specs=[{', '.join(s.canonical() for s in self.specs)}])"
        )
