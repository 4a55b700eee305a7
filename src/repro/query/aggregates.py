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
import operator
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


# Columnar grouped state (docs/architecture.md §3): a key table maps each
# live group key to a dense *slot* — first-insertion order; a retired group
# that comes back gets a new slot at the end — and each state component is
# one array indexed by slot.  Component 0 is the COUNT(*) every state
# carries (Fig. 2); then per spec: SUM / AVG -> sum, non-null count;
# COUNT(expr) -> non-null count; COUNT DISTINCT -> set; MIN / MAX -> value.
# A sum column starts as int64 zeros (int 0, as Python's ``sum``), stays
# int64 while its integers fit, turns float64 when its first contributions
# are floats, and holds Python numbers otherwise.  Every addition happens in
# the order of ``state += sign * value`` over Python numbers.
GroupKey = Tuple
_SUM, _COUNT, _SET, _MIN, _MAX = range(5)  # component kinds
#: Key-table bytes per slot beside the slot -> key array: a dict entry with
#: its share of the hash index (29-45 B measured on CPython 3.11).
_KEY_SLOT_BYTES = 40
_EMPTY = np.empty(0, dtype=object)  # every component of an empty state (see _claim)
_COMPONENTS = {  # (func, distinct) -> the spec's component kinds
    (AggFunc.SUM, False): (_SUM, _COUNT), (AggFunc.AVG, False): (_SUM, _COUNT),
    (AggFunc.COUNT, False): (_COUNT,), (AggFunc.COUNT, True): (_SET,),
    (AggFunc.MIN, False): (_MIN,), (AggFunc.MAX, False): (_MAX,),
}


def _layout(specs: Sequence[AggregateSpec]) -> Tuple[tuple, tuple]:
    """Component kinds; per spec (func, distinct, its first component)."""
    kinds = [_COUNT]
    renders = []
    for spec in specs:
        own = () if spec.is_count_star else _COMPONENTS[spec.func, spec.distinct]
        renders.append((spec.func, spec.distinct, len(kinds) if own else 0))
        kinds += own
    return tuple(kinds), tuple(renders)


def _objects(values) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _fresh(kind: int, n: int) -> np.ndarray:
    """``n`` empty states of one component kind."""
    if kind in (_SUM, _COUNT):
        return np.zeros(n, dtype=np.int64)
    return _objects([set() for _ in range(n)]) if kind == _SET else np.empty(n, dtype=object)


def _numbers(values: list) -> np.ndarray:
    """Row values as the narrowest exact array."""
    kinds = set(map(type, values))
    if kinds in ({int}, {float}):
        try:
            return np.array(values, dtype=np.float64 if float in kinds else np.int64)
        except OverflowError:  # ints past int64
            pass
    return _objects(values)


def _widened(col: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``col`` able to hold sums with ``values``: int zeros fit any column,
    an untouched int64 column takes their dtype, any other mismatch falls
    back to Python objects."""
    zero = values.dtype.kind == "i" and not np.count_nonzero(values)
    if zero or col.dtype in (values.dtype, object):
        return col
    fresh = col.dtype.kind == "i" and not np.count_nonzero(col)
    return col.astype(values.dtype if fresh else object)


@np.errstate(over="ignore", invalid="ignore")
def _signed_add(old: np.ndarray, values: np.ndarray, sign: int) -> np.ndarray:
    """``old ± values``; a float sum overflows to inf (and inf − inf gives
    nan) silently, as the row loop's Python float adds do."""
    return old + values if sign > 0 else old - values


def _add(col: np.ndarray, at: np.ndarray, values: np.ndarray, sign: int) -> np.ndarray:
    """``col[at] += sign * values`` for distinct slots ``at``; returns the
    (possibly widened) column."""
    col = _widened(col, values)
    values = values.astype(col.dtype, copy=False)
    old = col[at]
    new = _signed_add(old, values, sign)
    if col.dtype.kind == "i" and (
        (old ^ new) & ((values ^ new) if sign > 0 else (old ^ values)) < 0
    ).any():  # wrapped past int64: exact Python ints from here on
        return _add(col.astype(object), at, values, sign)
    col[at] = new
    return col


class GroupedAggregates:
    """Mutable grouped aggregation state supporting signed accumulation: the
    executor's sink, the *aggregate cache value* (computed on the mains), a
    memo's ``folded`` compensation and a read's result, which absorbs delta
    compensation with ``sign=+1`` and main compensation with ``sign=-1``.

    A *signed* state holds a difference of two row multisets rather than a
    multiset — the compensation a cache entry's value still needs.  There a
    group whose COUNT(*) nets to zero can still carry a sum (an update that
    changes a price but not the group), so only groups whose every state is
    zero are retired.
    """

    __slots__ = ("specs", "signed", "_kinds", "_renders", "_slot", "_keys", "_cols")

    def __init__(self, specs: Sequence[AggregateSpec], signed: bool = False):
        self.specs: List[AggregateSpec] = list(specs)
        self.signed = signed
        self._kinds, self._renders = _layout(self.specs)
        self._reset()

    def _reset(self) -> None:
        self._slot: Dict[GroupKey, int] = {}  # live key -> slot (the key table)
        self._keys = _EMPTY  # slot -> key, retired ones too
        self._cols = [_EMPTY] * len(self._kinds)

    def accumulate(self, keys: Sequence[GroupKey], agg_columns: Sequence, sign: int = 1) -> None:
        """Fold rows into the groups, one after the other: one group key per
        row in ``keys``, one value sequence per spec in ``agg_columns``
        (ignored for COUNT(*)).  ``sign=-1`` subtracts."""
        self._check_sign(sign)
        local: Dict[GroupKey, int] = {}
        rows = [local.setdefault(key, len(local)) for key in keys]
        slots = self._claim(local)
        jobs = [(0, rows)]  # (component, its values per row); COUNT(*) counts every row
        for (_func, _distinct, j), column in zip(self._renders, agg_columns):
            if j:
                jobs += [(j, column), (j + 1, column)] if self._kinds[j] == _SUM else [(j, column)]
        for j, column in jobs:
            self._fold_rows(j, slots, rows, column, sign, single=True)
        self._retire(slots)

    def fold(self, keys: Iterable[GroupKey], components: Sequence, sign: int = 1) -> None:
        """Add pre-aggregated contributions of distinct groups straight into
        their slots — the vectorized aggregation's output, or another state
        in :meth:`merge`.  ``components[c][g]`` belongs to the ``g``-th key,
        in layout order: COUNT(*), then sum and non-null count per SUM/AVG,
        non-null count per COUNT(expr), set per COUNT DISTINCT, MIN/MAX."""
        self._check_sign(sign)
        slots = self._claim(keys)
        for j, part in enumerate(components):
            if self._kinds[j] == _SUM:
                self._cols[j] = _add(self._cols[j], slots, part, sign)
            elif self._kinds[j] == _COUNT:
                self._cols[j][slots] += sign * part
            else:
                self._fold_rows(j, slots, range(len(slots)), part, sign, single=False)
        self._retire(slots)  # only the groups touched can have emptied

    def merge(self, other: "GroupedAggregates", sign: int = 1) -> None:
        """Fold another grouped state into this one (cache compensation): a
        slot remap through the key table, then one vector add per component.
        ``other`` is not mutated.  Specs are compared by identity first (both
        sides built from the same bound query), then canonically."""
        if self.specs is not other.specs and [
            s.canonical() for s in self.specs
        ] != [s.canonical() for s in other.specs]:
            raise CacheError("cannot merge grouped aggregates with different specs")
        self._check_sign(sign)
        if not other._slot:
            return
        if not self._slot and sign == 1:
            # The first fold into a fresh aggregate (a hit's cached value,
            # an executor run's first partial): adopt a copy.
            self._copy_from(other)
            if other.signed and not self.signed:
                self._retire(self._live())
            return
        src = other._live()
        self.fold(other._slot, [col[src] for col in other._cols], sign)

    def _check_sign(self, sign: int) -> None:
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        fixed = [s for s in self.specs if not s.self_maintainable] if sign == -1 else ()
        if fixed:
            raise CacheError(f"cannot subtract from non-self-maintainable aggregate "
                             f"{fixed[0].canonical()}")

    def _claim(self, keys: Iterable[GroupKey]) -> np.ndarray:
        """The slots of ``keys``, an empty one at the end for each new key."""
        slot_of, start, slots, new = self._slot, len(self._keys), [], []
        for key in keys:
            slot = slot_of.get(key)
            if slot is None:
                slot = slot_of[key] = start + len(new)
                new.append(key)
            slots.append(slot)
        if new:
            keys = np.fromiter(new, dtype=object, count=len(new))
            grown = [_fresh(kind, len(new)) for kind in self._kinds]
            if start:  # an empty state takes the fresh arrays as they are
                keys = np.concatenate((self._keys, keys))
                grown = [np.concatenate(pair) for pair in zip(self._cols, grown)]
            self._keys, self._cols = keys, grown
        return np.array(slots, dtype=np.intp)

    def _fold_rows(self, j: int, slots: np.ndarray, rows: Sequence[int], values: Sequence,
                   sign: int, single: bool) -> None:
        """Fold ``values[r]`` (a row's value if ``single``, else a group's
        count / set / extremum) into group ``slots[rows[r]]`` of component
        ``j`` in order, on the states taken out as Python values."""
        kind, states, nulls = self._kinds[j], self._cols[j][slots].tolist(), False
        for i, value in zip(rows, values):
            if value is None:
                nulls = True
                continue
            held = states[i]
            if kind == _SUM or kind == _COUNT:
                states[i] = held + (sign if kind == _COUNT and single else sign * value)
            elif kind == _SET:
                held.add(value) if single else held.update(value)
            elif held is None or (value < held if kind == _MIN else value > held):
                states[i] = value
        if nulls:  # store only the groups a value reached
            reached = sorted({i for i, value in zip(rows, values) if value is not None})
            slots, states = slots[reached], [states[i] for i in reached]
        if kind == _SUM and states:
            states = _numbers(states)
            self._cols[j] = _widened(self._cols[j], states)
        self._cols[j][slots] = states

    def _retire(self, slots: np.ndarray) -> None:
        """Drop the empty groups among ``slots`` from the key table."""
        stars = self._cols[0][slots]
        if np.count_nonzero(stars) == len(stars):
            return
        dead = slots[stars == 0]
        if self.signed:
            for col in self._cols[1:]:
                dead = dead[~col[dead].astype(bool)]
        for slot in dead.tolist():
            del self._slot[self._keys[slot]]

    def _live(self) -> np.ndarray:  # in key-table (= ascending) order
        if len(self._slot) == len(self._keys):
            return np.arange(len(self._keys), dtype=np.intp)
        return np.fromiter(self._slot.values(), dtype=np.intp, count=len(self._slot))

    def group_count(self) -> int:
        """Number of live groups."""
        return len(self._slot)

    def keys(self) -> Iterable[GroupKey]:
        """The live group keys, in first-insertion order."""
        return self._slot.keys()

    def slots_of(self, keys: Iterable[GroupKey]) -> np.ndarray:
        """The slots of the given live group keys (KeyError if one is not)."""
        return np.array([self._slot[key] for key in keys], dtype=np.intp)

    def state_columns(self) -> Tuple[List[GroupKey], np.ndarray, List[tuple]]:
        """The live groups in bulk: keys, COUNT(*) and per spec its state
        arrays in key order — (sum, non-null count) for SUM/AVG, (count,) for
        COUNT(*) / COUNT, (values,) for MIN/MAX and COUNT DISTINCT (sets)."""
        live = self._live()
        cols = [col[live] for col in self._cols]
        return list(self._slot), cols[0], [
            tuple(cols[j : j + (2 if self._kinds[j] == _SUM else 1)])
            for _func, _distinct, j in self._renders
        ]

    def finalize(self) -> List[Tuple]:
        """Render result rows: group key columns followed by aggregate values
        (SUM / AVG over no non-null input is NULL per SQL semantics)."""
        return self._render(list(self._slot), self._live())

    def finalize_slots(self, slots: np.ndarray) -> List[Tuple]:
        """What :meth:`finalize` renders for the given live slots, in their
        order, touching no other group (a pure hit emits its remembered
        :class:`repro.core.cache_entry.ResultOrder` this way)."""
        return self._render(self._keys[slots].tolist(), slots)

    def _render(self, keys: List[GroupKey], slots: np.ndarray) -> List[Tuple]:
        """One gather per component, Python scalars via ``tolist``."""
        cols = []
        for func, distinct, j in self._renders:
            values = self._cols[j][slots]
            if func not in (AggFunc.SUM, AggFunc.AVG):
                cols.append([len(s) for s in values] if distinct else values.tolist())
                continue
            counts = self._cols[j + 1][slots]
            avg = func is AggFunc.AVG
            if counts.min(initial=1) > 0 and (not avg or values.dtype.kind == "f"):
                cols.append((values / counts if avg else values).tolist())
            else:  # NULL over no input; Python divides int / int exactly
                cols.append([(s / c if avg else s) if c > 0 else None
                             for s, c in zip(values.tolist(), counts.tolist())])
        return list(map(operator.add, keys, zip(*cols) if cols else [()] * len(keys)))

    def new_like(self, signed: Optional[bool] = None) -> "GroupedAggregates":
        """An empty state *sharing* this one's specs list (so :meth:`merge`
        passes its identity check at once); ``signed`` defaults to its own."""
        fresh = GroupedAggregates.__new__(GroupedAggregates)
        fresh.specs, fresh._kinds, fresh._renders = self.specs, self._kinds, self._renders
        fresh.signed = self.signed if signed is None else signed
        fresh._reset()
        return fresh

    def copy(self) -> "GroupedAggregates":
        """Deep copy (independent arrays and sets; specs list shared)."""
        out = self.new_like()
        out._copy_from(self)
        return out

    def _copy_from(self, other: "GroupedAggregates") -> None:
        """Copy ``other``'s live groups into slots ``0..n-1``, same order."""
        live = other._live()
        compact = len(live) == len(other._keys)
        self._slot = dict(other._slot) if compact else dict(zip(other._slot, range(len(live))))
        self._keys = other._keys[live]
        self._cols = [
            _objects([set(seen) for seen in col[live]]) if kind == _SET else col[live]
            for kind, col in zip(self._kinds, other._cols)
        ]

    def total_rows_aggregated(self) -> int:
        """Sum of COUNT(*) over all groups (a cache-metrics input)."""
        return int(self._cols[0].sum())  # a retired slot's COUNT(*) is zero

    def approximate_nbytes(self) -> int:
        """Bytes for cache metrics and eviction: the arrays' (references only
        for object arrays) plus ``_KEY_SLOT_BYTES`` per key-table slot."""
        arrays = self._keys.nbytes + sum(col.nbytes for col in self._cols)
        return arrays + _KEY_SLOT_BYTES * len(self._keys)

    def __repr__(self) -> str:
        specs = ", ".join(s.canonical() for s in self.specs)
        return f"GroupedAggregates(groups={len(self._slot)}, specs=[{specs}])"
