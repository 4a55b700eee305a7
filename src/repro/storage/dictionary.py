"""Dictionary encoding for columnar storage.

Both partition kinds store each column as a dictionary of distinct values
plus a vector of integer value codes.  The two dictionary flavours mirror
the paper's storage model (Section 2):

* :class:`DeltaDictionary` — write-optimized: values are appended in first-
  seen order, lookup is a hash map.  Used by delta partitions.
* :class:`MainDictionary` — read-optimized: values are sorted, codes are
  ranks.  Built in bulk by one stable sort during the delta merge.  Sorted
  order makes the min/max needed by dynamic join pruning (Example 1 /
  Equation 5) O(1).

NULL is never stored in a dictionary; columns encode NULL as code ``-1``.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

NULL_CODE = -1

#: ``int_values``' cache before its first computation.
_UNSET = object()


def _int64_array(values: Sequence[object]) -> Optional[np.ndarray]:
    """``values`` as an ``int64`` array, or None unless each is a plain
    ``int`` — not a ``bool`` — inside int64 range.  Two C-level passes: the
    set of the values' types, then the conversion, which overflows outside
    the range."""
    if not set(map(type, values)) <= {int}:
        return None
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return None


def _grown(view: Optional[np.ndarray], need: int, dtype) -> np.ndarray:
    """A buffer that starts with ``view``'s elements and has room for
    ``need``: the buffer ``view`` slices when it is large enough, else a new
    one of at least twice its capacity.  An object buffer's spare slots are
    None."""
    buffer = None if view is None else (view if view.base is None else view.base)
    if buffer is not None and need <= len(buffer):
        return buffer
    grown = np.empty(need if buffer is None else max(2 * len(buffer), need), dtype=dtype)
    if view is not None:
        grown[: len(view)] = view
    return grown


def _sort_distinct(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of ``values`` (an ``int64`` or object
    array, no None) and each value's index among them, by one stable
    argsort: a first-of-run mask over the sorted values and its ``cumsum``
    number the runs.

    Of ``==``-equal values (``1`` / ``1.0`` / ``True``, ``0.0`` / ``-0.0``)
    the first in input order represents the run, as ``dict.fromkeys``
    keeps it.  NaN equals nothing, so it would break runs and leave the
    order undefined: every NaN sorts after the other values, as one value
    represented by the first NaN.
    """
    nan = values != values if values.dtype == object else None
    if nan is not None and nan.any():
        regular = np.flatnonzero(~nan)
        order = np.concatenate(
            (regular[np.argsort(values[regular], kind="stable")], np.flatnonzero(nan))
        )
    else:
        regular = order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    first[1:] = ordered[1:] != ordered[:-1]
    first[len(regular) + 1 :] = False  # the NaN run
    codes = np.empty(len(ordered), dtype=np.int64)
    codes[order] = np.cumsum(first) - 1
    return ordered[first], codes


class _Dictionary:
    """What both flavours share: the values in code order, the value ->
    code map and the cached arrays derived from the values."""

    __slots__ = ("_values", "_codes", "_decode_table", "_int_values")

    def lookup(self, value) -> Optional[int]:
        """Return the code for ``value`` or ``None`` if absent (NULL -> None)."""
        if value is None:
            return None
        return self.finder()(value)

    def lookup_many(self, values: Iterable[object], default: int) -> List[int]:
        """Codes for a batch of values, ``default`` where absent or NULL."""
        get = self.code_map().get
        return [get(value, default) for value in values]

    def finder(self) -> Callable[[object], Optional[int]]:
        """A function from a value to its code, None where absent or NULL
        (callers that look up many keys skip :meth:`lookup`'s call)."""
        return self._codes.get

    def code_map(self) -> Mapping[object, int]:
        """The value -> code map itself, without NULL (read-only)."""
        return self._codes

    def decode(self, code: int):
        """Return the value for ``code`` (``NULL_CODE`` -> None)."""
        if code == NULL_CODE:
            return None
        return self._values[code]

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value) -> bool:
        return self.lookup(value) is not None

    def values(self) -> List[object]:
        """The distinct values in code order (a copy)."""
        return list(self._values)

    def decode_table(self) -> np.ndarray:
        """Cached decode LUT: ``table[code]`` -> value, ``table[-1]`` -> None.

        The trailing slot lets ``NULL_CODE`` (-1) wrap to None, so a whole
        code vector decodes in one fancy-indexing operation.  After a delta
        dictionary grows, the first call decodes only the new values, in
        place, into a buffer of doubling capacity, and hands out a view of
        it one slot longer than the values.  That slot is overwritten by
        the next value added, so a view is only good until the dictionary
        grows: reads hold the database's read lock and writes its write
        lock, so no read holds a view across a write.  Callers must treat
        the array as read-only.
        """
        table = self._decode_table
        size = len(self._values)
        if table is None or len(table) != size + 1:
            known = 0 if table is None else len(table) - 1
            buffer = _grown(table, size + 1, object)  # spare slots are None
            buffer[known:size] = np.fromiter(self._values[known:], object, size - known)
            table = self._decode_table = buffer[: size + 1]
        return table

    def int_values(self) -> Optional[np.ndarray]:
        """Cached ``int64`` array of the values in code order (``array[code]``
        is the value), or None once a value is not a plain ``int`` — not a
        ``bool`` — inside int64 range.

        It lets the merge sort integers as ``int64`` and two integer main
        dictionaries translate codes with one ``searchsorted``.  After a
        delta dictionary grows, the first call converts only the new values,
        in place, like :meth:`decode_table` — and like it, the view it
        hands out is good until the dictionary grows.  Callers must treat it
        as read-only.
        """
        ints = self._int_values
        if ints is None:
            return None
        size = len(self._values)
        known = 0 if ints is _UNSET else len(ints)
        if known == size and ints is not _UNSET:
            return ints
        fresh = _int64_array(self._values[known:])
        if fresh is None:
            self._int_values = None
            return None
        buffer = _grown(None if ints is _UNSET else ints, size, np.int64)
        buffer[known:size] = fresh
        ints = self._int_values = buffer[:size]
        return ints


class DeltaDictionary(_Dictionary):
    """Unsorted, append-order dictionary for write-optimized partitions."""

    __slots__ = ("_bounds",)

    def __init__(self):
        self._values: List[object] = []
        self._codes: Dict[object, int] = {}
        self._decode_table: Optional[np.ndarray] = None
        self._int_values = _UNSET
        #: (values covered, min, max): the running bounds of :meth:`_range`.
        self._bounds: Tuple[int, object, object] = (0, None, None)

    def encode(self, value) -> int:
        """Return the code for ``value``, inserting it if unseen."""
        if value is None:
            return NULL_CODE
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._values.append(value)
            self._codes[value] = code
        return code

    def encode_many(self, values: Sequence[object]) -> List[int]:
        """Codes for a batch of values, inserting the unseen ones in order
        (NULL -> ``NULL_CODE``): one hash probe per value, and one
        :meth:`encode` per value that missed."""
        if len(values) == 1:  # a single row's value: skip the batch set-up
            return [self.encode(values[0])]
        codes = list(map(self._codes.get, values))
        if None in codes:
            for position, code in enumerate(codes):
                if code is None:
                    codes[position] = self.encode(values[position])
        return codes

    def min_value(self):
        """Smallest stored value, or ``None`` for an empty dictionary."""
        return self._range()[0] if self._values else None

    def max_value(self):
        """Largest stored value, or ``None`` for an empty dictionary."""
        return self._range()[1] if self._values else None

    def _range(self) -> Tuple[object, object]:
        """``(min, max)`` of the values, kept as the dictionary grows: the
        values added since the last call are folded into the bounds of the
        ones before them — integers by one vectorized pass over their slice
        of :meth:`int_values`, anything else in Python, continuing the left
        fold ``min`` / ``max`` over the whole list would take.  A read after
        a write costs O(new values)."""
        known, low, high = self._bounds
        size = len(self._values)
        if known == size:
            return low, high
        ints = self.int_values()
        if ints is not None:
            fresh = ints[known:]
            fresh_low, fresh_high = int(fresh.min()), int(fresh.max())
            low = fresh_low if not known else min(low, fresh_low)
            high = fresh_high if not known else max(high, fresh_high)
        else:
            fresh = self._values[known:]
            low = min(fresh) if not known else min(low, *fresh)
            high = max(fresh) if not known else max(high, *fresh)
        self._bounds = (size, low, high)
        return low, high

    def nbytes(self) -> int:
        """Approximate heap bytes of the dictionary payload."""
        return sum(_value_bytes(v) for v in self._values)

    def __repr__(self) -> str:
        return f"DeltaDictionary(size={len(self._values)})"


class MainDictionary(_Dictionary):
    """Sorted dictionary for read-optimized main partitions.

    Codes are the ranks of the values in sorted order, which is what enables
    order-preserving compressed scans in a real column store.  Built once,
    by the merge or a restore, through :meth:`encode`'s one stable sort.
    An ``int64`` sort output is kept as it is: its values are a
    ``memoryview`` of the array, which indexes, slices, iterates and
    bisects to Python ints as the value list would, with no Python object
    per value, and a plain ``int`` is found by binary search
    (:meth:`finder`).  The value -> code map is built only by the first
    lookup of any other value, or in any other dictionary, so a column
    nobody looks such a value up in never builds one.
    """

    __slots__ = ()

    def __init__(self, values: Iterable[object] = ()):
        objects = np.fromiter((v for v in values if v is not None), dtype=object)
        self._adopt(_sort_distinct(objects)[0])

    @classmethod
    def encode(cls, values: np.ndarray) -> Tuple["MainDictionary", np.ndarray]:
        """The dictionary of ``values`` — an ``int64`` or object array, no
        NULL — and the code of each value (see :func:`_sort_distinct`)."""
        distinct, codes = _sort_distinct(values)
        dictionary = cls.__new__(cls)
        dictionary._adopt(distinct)
        return dictionary, codes

    def _adopt(self, distinct: np.ndarray) -> None:
        ints = distinct.dtype == np.int64
        self._values: Sequence[object] = memoryview(distinct) if ints else distinct.tolist()
        self._codes: Optional[Dict[object, int]] = None
        self._decode_table: Optional[np.ndarray] = None
        self._int_values = distinct if ints else _UNSET

    def code_map(self) -> Mapping[object, int]:
        codes = self._codes
        if codes is None:
            codes = self._codes = dict(zip(self._values, range(len(self._values))))
        return codes

    def lookup_many(self, values: Iterable[object], default: int) -> List[int]:
        codes = list(map(self.finder(), values))
        return [default if code is None else code for code in codes]

    def finder(self) -> Callable[[object], Optional[int]]:
        """A function from a value to its code, None where absent or NULL.

        In an ``int64`` dictionary a plain ``int`` is one ``bisect`` over the
        sorted values (a value above the largest answers at once); any
        other value — ``1.0``, ``True``, ``'1'`` — and any other dictionary
        probe the value -> code map, built at that first probe, so every
        value finds the code ``==`` and hashing give.
        """
        code_map = self.code_map
        if self.int_values() is None:
            return lambda value: code_map().get(value)
        values = self._values
        if not values:
            return lambda value: None
        top = values[-1]
        search = bisect.bisect_left

        def find(value):
            if type(value) is int:
                if value > top:
                    return None
                code = search(values, value)
                return code if values[code] == value else None
            return None if value is None else code_map().get(value)

        return find

    def rank(self, value, right: bool = False) -> int:
        """How many values sort below ``value`` (``right``: or equal it) —
        the code where a range predicate's allowed interval starts or ends."""
        return (bisect.bisect_right if right else bisect.bisect_left)(self._values, value)

    def min_value(self):
        """Smallest stored value (O(1) — first element), or ``None`` if empty."""
        return self._values[0] if self._values else None

    def max_value(self):
        """Largest stored value (O(1) — last element), or ``None`` if empty."""
        return self._values[-1] if self._values else None

    def nbytes(self) -> int:
        """Approximate heap bytes of the dictionary payload.

        Sorted integer dictionaries are modelled as delta-encoded (store the
        gaps between consecutive values, varint-sized), which is why main
        partitions compress better than deltas — the effect behind the
        10 % vs 13 % tid-column overhead of Section 6.2.  Monotonic ids and
        transaction ids compress particularly well this way.
        """
        if self._values and all(
            isinstance(v, int) and not isinstance(v, bool) for v in self._values
        ):
            total = 8  # the base value
            previous = self._values[0]
            for value in self._values[1:]:
                gap = value - previous
                previous = value
                total += max(1, (gap.bit_length() + 7) // 8)
            return total
        return sum(_value_bytes(v) for v in self._values)

    def __repr__(self) -> str:
        return f"MainDictionary(size={len(self._values)})"


def _value_bytes(value) -> int:
    """Crude per-value byte estimate used by the Section 6.2 memory bench."""
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    return 16
