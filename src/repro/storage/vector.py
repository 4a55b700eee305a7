"""A growable ``int64`` vector backed by a numpy array.

Delta partitions grow by batches of rows (often one); main partitions are
rebuilt in bulk during the delta merge.  :class:`IntVector` provides an append-friendly
``int64`` array with amortized O(1) growth so both access patterns are cheap,
and exposes the underlying numpy view for vectorized scans.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

_INITIAL_CAPACITY = 16


class IntVector:
    """An append-only vector of 64-bit signed integers.

    The vector doubles its backing buffer when full.  ``view()`` returns a
    zero-copy numpy slice of the live elements; the slice is invalidated by
    the next append that triggers a reallocation, so callers must not retain
    it across writes.
    """

    __slots__ = ("_data", "_size")

    def __init__(self, values: Iterable[int] = ()):
        self._data = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._size = 0
        self.extend(values)

    @classmethod
    def adopt(cls, array: np.ndarray) -> "IntVector":
        """Wrap a ready ``int64`` array without copying it.

        The vector takes ownership: the caller must not keep writing to
        ``array``.  This is how the delta merge hands over the code and
        stamp vectors it computed in bulk.
        """
        if array.dtype != np.int64 or array.ndim != 1:
            raise TypeError("IntVector.adopt needs a one-dimensional int64 array")
        out = cls.__new__(cls)
        out._data = array
        out._size = len(array)
        return out

    # ------------------------------------------------------------------
    def _ensure(self, extra: int) -> None:
        need = self._size + extra
        if need <= len(self._data):
            return
        capacity = max(len(self._data) * 2, need)
        grown = np.empty(capacity, dtype=np.int64)
        grown[: self._size] = self._data[: self._size]
        self._data = grown

    def append(self, value: int) -> None:
        """Append a single value."""
        self._ensure(1)
        self._data[self._size] = value
        self._size += 1

    def extend(self, values) -> None:
        """Append all ``values`` (any iterable or numpy array).

        A sized sequence — a list of codes, a numpy array — is written with
        one slice assignment (one element with one item store), without an
        ``np.asarray``; anything else (generators, ``map`` objects) is
        materialized first.
        """
        try:
            count = len(values)
        except TypeError:
            values = list(values)
            count = len(values)
        size = self._size
        if size + count > len(self._data):
            self._ensure(count)
        if count == 1:
            self._data[size] = values[0]
        else:
            self._data[size : size + count] = values
        self._size = size + count

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.view()[index].copy()
        if index < 0:
            index += self._size
        if index < 0 or index >= self._size:
            raise IndexError(f"index {index} out of range [0, {self._size})")
        return int(self._data[index])

    def __setitem__(self, index: int, value: int) -> None:
        if index < 0:
            index += self._size
        if index < 0 or index >= self._size:
            raise IndexError(f"index {index} out of range [0, {self._size})")
        self._data[index] = value

    def __iter__(self) -> Iterator[int]:
        return iter(self.view().tolist())

    def view(self) -> np.ndarray:
        """Zero-copy numpy view of the live elements (do not hold across appends)."""
        return self._data[: self._size]

    def to_numpy(self) -> np.ndarray:
        """A defensive copy of the live elements."""
        return self.view().copy()

    def copy(self) -> "IntVector":
        """Independent copy of the live elements."""
        out = IntVector()
        out._data = self._data[: self._size].copy()
        out._size = self._size
        return out

    def nbytes(self) -> int:
        """Bytes used by the live elements (not the spare capacity)."""
        return self._size * 8

    def __repr__(self) -> str:
        head = self.view()[:8].tolist()
        suffix = ", ..." if self._size > 8 else ""
        return f"IntVector({head}{suffix}, size={self._size})"

