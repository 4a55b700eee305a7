"""The dict-of-lists grouped state, kept as the reference oracle for
:class:`repro.query.aggregates.GroupedAggregates`.

This is the grouped aggregation state as it was before the columnar layout:
one Python list of accumulator states per group key, every step a Python
loop.  Its arithmetic *is* the specification — ``state += sign * value`` on
Python numbers, groups in first-insertion order, retirement at COUNT(*) zero
(signed: every state zero) — and ``tests/query/test_columnar_state.py``
requires the columnar class to render the identical rows from the same
stream of operations.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CacheError
from repro.query.aggregates import AggFunc, AggregateSpec

GroupKey = Tuple


class DictGroupedAggregates:
    """Per group ``[[sum, non-null count] | [count] | [set] | [value]]``."""

    def __init__(self, specs: Sequence[AggregateSpec], signed: bool = False):
        self.specs: List[AggregateSpec] = list(specs)
        self.signed = signed
        self._groups: Dict[GroupKey, List[list]] = {}
        self._count_star: Dict[GroupKey, int] = {}

    def _new_states(self) -> List[list]:
        states: List[list] = []
        for spec in self.specs:
            if spec.func in (AggFunc.SUM, AggFunc.AVG):
                states.append([0, 0])
            elif spec.func is AggFunc.COUNT:
                states.append([set()] if spec.distinct else [0])
            else:
                states.append([None])
        return states

    def _state(self, key: GroupKey) -> List[list]:
        states = self._groups.get(key)
        if states is None:
            states = self._groups[key] = self._new_states()
            self._count_star[key] = 0
        return states

    def accumulate(self, keys, agg_columns, sign: int = 1) -> None:
        """Fold rows one at a time (the executor's small-input row loop)."""
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if sign == -1:
            self._require_self_maintainable()
        for row, key in enumerate(keys):
            states = self._state(key)
            self._count_star[key] += sign
            for i, spec in enumerate(self.specs):
                state = states[i]
                if spec.is_count_star:
                    state[0] += sign
                    continue
                value = agg_columns[i][row]
                if value is None:
                    continue
                if spec.func in (AggFunc.SUM, AggFunc.AVG):
                    state[0] += sign * value
                    state[1] += sign
                elif spec.distinct:
                    state[0].add(value)
                elif spec.func is AggFunc.COUNT:
                    state[0] += sign
                elif spec.func is AggFunc.MIN:
                    if state[0] is None or value < state[0]:
                        state[0] = value
                elif state[0] is None or value > state[0]:
                    state[0] = value
        self._retire(list(self._groups))

    def accumulate_groups(self, keys, spec_states, count_star, sign: int = 1) -> None:
        """Fold pre-aggregated group contributions: a ``(sum, non-null
        count)`` pair per SUM/AVG group, a bare count per COUNT group."""
        if sign == -1:
            self._require_self_maintainable()
        for g, key in enumerate(keys):
            states = self._state(key)
            self._count_star[key] += sign * int(count_star[g])
            for i, spec in enumerate(self.specs):
                contribution = spec_states[i][g]
                if spec.func in (AggFunc.SUM, AggFunc.AVG):
                    states[i][0] += sign * contribution[0]
                    states[i][1] += sign * int(contribution[1])
                else:
                    states[i][0] += sign * int(contribution)
        self._retire(list(self._groups))

    def merge(self, other: "DictGroupedAggregates", sign: int = 1) -> None:
        """Fold ``other`` in, group by group in ``other``'s key order."""
        if sign == -1:
            self._require_self_maintainable()
        if not self._groups and sign == 1:
            self._groups = other._copied_groups()
            self._count_star = dict(other._count_star)
            if other.signed and not self.signed:
                self._retire(list(self._groups))
            return
        for key, other_states in other._groups.items():
            states = self._state(key)
            self._count_star[key] += sign * other._count_star[key]
            for i, spec in enumerate(self.specs):
                state, theirs = states[i], other_states[i]
                if spec.func in (AggFunc.SUM, AggFunc.AVG):
                    state[0] += sign * theirs[0]
                    state[1] += sign * theirs[1]
                elif spec.distinct:
                    state[0] |= theirs[0]
                elif spec.func is AggFunc.COUNT:
                    state[0] += sign * theirs[0]
                elif theirs[0] is not None and (
                    state[0] is None
                    or (theirs[0] < state[0] if spec.func is AggFunc.MIN else theirs[0] > state[0])
                ):
                    state[0] = theirs[0]
        self._retire(list(other._groups))

    def _require_self_maintainable(self) -> None:
        if not all(spec.self_maintainable for spec in self.specs):
            raise CacheError("cannot subtract from non-self-maintainable aggregates")

    def _retire(self, keys: Iterable[GroupKey]) -> None:
        for key in keys:
            if key not in self._groups or self._count_star[key] != 0:
                continue
            if self.signed and any(any(s) for s in self._groups[key]):
                continue
            del self._groups[key]
            del self._count_star[key]

    def _copied_groups(self) -> Dict[GroupKey, List[list]]:
        return {
            key: [
                [set(state[0])] if spec.distinct else list(state)
                for spec, state in zip(self.specs, states)
            ]
            for key, states in self._groups.items()
        }

    def copy(self) -> "DictGroupedAggregates":
        out = DictGroupedAggregates(self.specs, self.signed)
        out._groups = self._copied_groups()
        out._count_star = dict(self._count_star)
        return out

    def keys(self):
        return self._groups.keys()

    def group_count(self) -> int:
        return len(self._groups)

    def total_rows_aggregated(self) -> int:
        return sum(self._count_star.values())

    def finalize(self) -> List[Tuple]:
        return self.finalize_keys(self._groups)

    def finalize_keys(self, keys: Iterable[GroupKey]) -> List[Tuple]:
        rows: List[Tuple] = []
        for key in keys:
            out: List[object] = list(key)
            for spec, state in zip(self.specs, self._groups[key]):
                if spec.func is AggFunc.SUM:
                    out.append(state[0] if state[1] > 0 else None)
                elif spec.func is AggFunc.AVG:
                    out.append(state[0] / state[1] if state[1] > 0 else None)
                elif spec.distinct:
                    out.append(len(state[0]))
                else:
                    out.append(state[0])
            rows.append(tuple(out))
        return rows


def reference_fold(
    reference: DictGroupedAggregates,
    keys: Sequence[GroupKey],
    components: Sequence[np.ndarray],
    sign: int = 1,
) -> None:
    """Hand the columnar fold's input (COUNT(*) first) to the reference in
    the list-of-pairs form the executor used to build: ``(sum, count)`` per
    SUM/AVG group."""
    count_star, *rest = components
    parts = iter(rest)
    spec_states: List[Optional[list]] = []
    for spec in reference.specs:
        if spec.is_count_star:
            spec_states.append(count_star.tolist())
        elif spec.func is AggFunc.COUNT:
            spec_states.append(next(parts).tolist())
        else:
            sums, counts = next(parts), next(parts)
            spec_states.append(list(zip(sums.tolist(), counts.tolist())))
    reference.accumulate_groups(keys, spec_states, count_star, sign=sign)
