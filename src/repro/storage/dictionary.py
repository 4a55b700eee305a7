"""Dictionary encoding for columnar storage.

Both partition kinds store each column as a dictionary of distinct values
plus a vector of integer value codes.  The two dictionary flavours mirror
the paper's storage model (Section 2):

* :class:`DeltaDictionary` — write-optimized: values are appended in first-
  seen order, lookup is a hash map.  Used by delta partitions.
* :class:`MainDictionary` — read-optimized: values are sorted, codes are
  ranks.  Built in bulk during the delta merge.  Sorted order makes the
  min/max needed by dynamic join pruning (Example 1 / Equation 5) O(1).

NULL is never stored in a dictionary; columns encode NULL as code ``-1``.
"""

from __future__ import annotations

import bisect
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

NULL_CODE = -1

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1

#: ``MainDictionary._int_values`` before its first computation.
_UNSET = object()


def _build_decode_table(values: Sequence[object]) -> np.ndarray:
    """Dense decode LUT: ``table[code]`` is the value, ``table[-1]`` is None.

    The extra trailing slot lets ``NULL_CODE`` (-1) wrap to a None entry, so
    a whole code vector decodes in one fancy-indexing operation without a
    separate NULL branch.
    """
    return np.fromiter(
        chain(values, (None,)), dtype=object, count=len(values) + 1
    )


class DeltaDictionary:
    """Unsorted, append-order dictionary for write-optimized partitions."""

    __slots__ = ("_values", "_codes", "_decode_table")

    def __init__(self):
        self._values: List[object] = []
        self._codes: Dict[object, int] = {}
        self._decode_table: Optional[np.ndarray] = None

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

    def lookup(self, value) -> Optional[int]:
        """Return the code for ``value`` or ``None`` if absent (NULL -> None)."""
        if value is None:
            return None
        return self._codes.get(value)

    def lookup_many(self, values: Iterable[object], default: int) -> List[int]:
        """Codes for a batch of values, ``default`` where absent or NULL."""
        get = self._codes.get
        return [get(value, default) for value in values]

    def decode(self, code: int):
        """Return the value for ``code`` (``NULL_CODE`` -> None)."""
        if code == NULL_CODE:
            return None
        return self._values[code]

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value) -> bool:
        return value in self._codes

    def values(self) -> List[object]:
        """The distinct values in code order (a copy)."""
        return list(self._values)

    def decode_table(self) -> np.ndarray:
        """Cached decode LUT: ``table[code]`` -> value, ``table[-1]`` -> None.

        Extended lazily after the dictionary grows — codes never change, so
        the old table's entries are copied and only the new values are
        decoded.  Callers must treat the array as read-only (it is shared
        across all decode calls; a grown dictionary hands out a new one).
        """
        table = self._decode_table
        size = len(self._values)
        if table is None or len(table) != size + 1:
            known = 0 if table is None else len(table) - 1
            fresh = np.empty(size + 1, dtype=object)
            fresh[:known] = table[:known] if known else ()
            fresh[known:] = _build_decode_table(self._values[known:])
            table = self._decode_table = fresh
        return table

    def min_value(self):
        """Smallest stored value, or ``None`` for an empty dictionary."""
        return min(self._values) if self._values else None

    def max_value(self):
        """Largest stored value, or ``None`` for an empty dictionary."""
        return max(self._values) if self._values else None

    def nbytes(self) -> int:
        """Approximate heap bytes of the dictionary payload."""
        return sum(_value_bytes(v) for v in self._values)

    def __repr__(self) -> str:
        return f"DeltaDictionary(size={len(self._values)})"


class MainDictionary:
    """Sorted dictionary for read-optimized main partitions.

    Codes are the ranks of the values in sorted order, which is what enables
    order-preserving compressed scans in a real column store.  Built once
    from the distinct values present at merge time.
    """

    __slots__ = ("_values", "_codes", "_decode_table", "_int_values")

    def __init__(self, values: Iterable[object] = ()):
        distinct = set(v for v in values if v is not None)
        self._values: List[object] = sorted(distinct)
        self._codes: Dict[object, int] = {v: i for i, v in enumerate(self._values)}
        self._decode_table: Optional[np.ndarray] = None
        self._int_values = _UNSET

    @classmethod
    def from_sorted(cls, sorted_values: Sequence[object]) -> "MainDictionary":
        """Build from an already-sorted, de-duplicated sequence (no checks)."""
        out = cls()
        out._values = list(sorted_values)
        out._codes = {v: i for i, v in enumerate(out._values)}
        return out

    def lookup(self, value) -> Optional[int]:
        """Return the code for ``value`` or ``None`` if absent (NULL -> None)."""
        if value is None:
            return None
        return self._codes.get(value)

    def lookup_many(self, values: Iterable[object], default: int) -> List[int]:
        """Codes for a batch of values, ``default`` where absent or NULL."""
        get = self._codes.get
        return [get(value, default) for value in values]

    def decode(self, code: int):
        """Return the value for ``code`` (``NULL_CODE`` -> None)."""
        if code == NULL_CODE:
            return None
        return self._values[code]

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value) -> bool:
        return value in self._codes

    def values(self) -> List[object]:
        """The distinct values in code (= sorted) order (a copy)."""
        return list(self._values)

    def rank(self, value, right: bool = False) -> int:
        """How many values sort below ``value`` (``right``: or equal it) —
        the code where a range predicate's allowed interval starts or ends."""
        return (bisect.bisect_right if right else bisect.bisect_left)(self._values, value)

    def decode_table(self) -> np.ndarray:
        """Cached decode LUT: ``table[code]`` -> value, ``table[-1]`` -> None.

        Main dictionaries are immutable between merges, so the LUT is built
        once; callers must treat the array as read-only.
        """
        table = self._decode_table
        if table is None or len(table) != len(self._values) + 1:
            table = _build_decode_table(self._values)
            self._decode_table = table
        return table

    def int_values(self) -> Optional[np.ndarray]:
        """Cached sorted ``int64`` array of the values (``array[code]`` is
        the value), or None unless every value is a plain ``int`` — not a
        ``bool`` — inside int64 range.

        It lets two integer dictionaries translate codes with one
        ``searchsorted`` instead of a hash lookup per value.  Built once,
        like :meth:`decode_table`; callers must treat it as read-only.
        """
        ints = self._int_values
        if ints is _UNSET:
            values = self._values
            ints = None
            if all(type(v) is int for v in values) and (
                not values or (_INT64_MIN <= values[0] and values[-1] <= _INT64_MAX)
            ):
                ints = np.array(values, dtype=np.int64)
            self._int_values = ints
        return ints

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
