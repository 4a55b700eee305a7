"""Packed bit vectors: a standalone bit set, 64 bits per ``uint64`` word.

The paper's consistent view manager (Section 2.2) represents the records of
a partition visible to a transaction as a bit vector.  This engine keeps
those snapshots as NumPy bool masks (``Partition.visibility``), which its
readers index directly; no engine path uses this class.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

import numpy as np

_WORD_BITS = 64


class BitVector:
    """A fixed-length vector of bits backed by a ``uint64`` array.

    Bits are addressed ``0 .. length-1``; out-of-range accesses raise
    ``IndexError``.  All binary operations require equal lengths except where
    documented otherwise (visibility snapshots of the same partition taken at
    different times may differ in length because the partition grew; see
    :meth:`and_not_padded`).
    """

    __slots__ = ("_words", "_length")

    def __init__(self, length: int = 0, fill: bool = False):
        if length < 0:
            raise ValueError("BitVector length must be non-negative")
        self._length = length
        n_words = (length + _WORD_BITS - 1) // _WORD_BITS
        if fill:
            self._words = np.full(n_words, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
            self._mask_tail()
        else:
            self._words = np.zeros(n_words, dtype=np.uint64)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_bools(cls, bools: Iterable[bool]) -> "BitVector":
        """Build a vector from an iterable of booleans."""
        arr = np.asarray(list(bools) if not isinstance(bools, np.ndarray) else bools, dtype=bool)
        bv = cls(len(arr))
        if len(arr):
            packed = np.packbits(arr, bitorder="little")
            padded = np.zeros(len(bv._words) * 8, dtype=np.uint8)
            padded[: len(packed)] = packed
            bv._words = padded.view(np.uint64).copy()
        return bv

    @classmethod
    def from_numpy_bool(cls, mask: np.ndarray) -> "BitVector":
        """Build a vector from a numpy boolean mask (no-copy semantics not guaranteed)."""
        return cls.from_bools(mask)

    @classmethod
    def from_indices(cls, length: int, indices: Iterable[int]) -> "BitVector":
        """Build a vector of ``length`` bits with the given ``indices`` set."""
        bv = cls(length)
        bv.set_many(indices)
        return bv

    def copy(self) -> "BitVector":
        """Independent copy."""
        out = BitVector(0)
        out._length = self._length
        out._words = self._words.copy()
        return out

    # ------------------------------------------------------------------
    # single-bit access
    # ------------------------------------------------------------------
    def _check(self, index: int) -> None:
        if index < 0 or index >= self._length:
            raise IndexError(f"bit index {index} out of range [0, {self._length})")

    def set(self, index: int) -> None:
        """Set the bit at ``index`` to 1."""
        self._check(index)
        self._words[index // _WORD_BITS] |= np.uint64(1) << np.uint64(index % _WORD_BITS)

    def clear(self, index: int) -> None:
        """Set the bit at ``index`` to 0."""
        self._check(index)
        self._words[index // _WORD_BITS] &= ~(np.uint64(1) << np.uint64(index % _WORD_BITS))

    def set_many(self, indices) -> None:
        """Set every bit in ``indices`` to 1 (vectorized bulk form of :meth:`set`).

        Accepts any iterable of indices, including numpy integer arrays;
        duplicates are allowed.  The whole batch is range-checked before any
        bit is written, so a failing call mutates nothing.
        """
        if not isinstance(indices, np.ndarray) and not hasattr(indices, "__len__"):
            indices = list(indices)
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return
        lo, hi = int(idx.min()), int(idx.max())
        if lo < 0 or hi >= self._length:
            bad = lo if lo < 0 else hi
            raise IndexError(f"bit index {bad} out of range [0, {self._length})")
        words = (idx // _WORD_BITS).astype(np.int64)
        bits = np.uint64(1) << (idx % _WORD_BITS).astype(np.uint64)
        # Unbuffered scatter-OR: duplicate word targets fold correctly.
        np.bitwise_or.at(self._words, words, bits)

    def get(self, index: int) -> bool:
        """Return the bit at ``index``."""
        self._check(index)
        word = self._words[index // _WORD_BITS]
        return bool((word >> np.uint64(index % _WORD_BITS)) & np.uint64(1))

    __getitem__ = get

    def get_many(self, indices: np.ndarray) -> np.ndarray:
        """The bits at ``indices`` as a boolean array (vectorized :meth:`get`;
        every index must be in range)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (int(idx.min()) < 0 or int(idx.max()) >= self._length):
            raise IndexError(f"bit index out of range [0, {self._length})")
        shifts = (idx % _WORD_BITS).astype(np.uint64)
        return ((self._words[idx // _WORD_BITS] >> shifts) & np.uint64(1)).astype(bool)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def pop_count(self) -> int:
        """Number of set bits."""
        if not len(self._words):
            return 0
        return int(np.unpackbits(self._words.view(np.uint8), bitorder="little").sum())

    def any(self) -> bool:
        """True if any bit is set."""
        return bool(np.any(self._words))

    def all(self) -> bool:
        """True if every bit is set."""
        return self.pop_count() == self._length

    # ------------------------------------------------------------------
    # bulk operations
    # ------------------------------------------------------------------
    def _require_same_length(self, other: "BitVector") -> None:
        if self._length != other._length:
            raise ValueError(
                f"BitVector length mismatch: {self._length} != {other._length}"
            )

    def __and__(self, other: "BitVector") -> "BitVector":
        self._require_same_length(other)
        out = self.copy()
        out._words &= other._words
        return out

    def __or__(self, other: "BitVector") -> "BitVector":
        self._require_same_length(other)
        out = self.copy()
        out._words |= other._words
        return out

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._require_same_length(other)
        out = self.copy()
        out._words ^= other._words
        return out

    def __invert__(self) -> "BitVector":
        out = self.copy()
        out._words = ~out._words
        out._mask_tail()
        return out

    def and_not(self, other: "BitVector") -> "BitVector":
        """Return ``self & ~other`` (bits set here but not in ``other``)."""
        self._require_same_length(other)
        out = self.copy()
        out._words &= ~other._words
        out._mask_tail()
        return out

    def and_not_padded(self, other: "BitVector") -> "BitVector":
        """Return ``self & ~other`` treating missing tail bits of ``other`` as 0.

        Used when comparing a stored visibility snapshot against a *longer*
        current snapshot of the same partition: positions beyond the stored
        snapshot's length did not exist at snapshot time.  The result has the
        length of ``self``.
        """
        if other._length > self._length:
            raise ValueError("padded operand must not be longer than self")
        out = self.copy()
        n = len(other._words)
        out._words[:n] &= ~other._words
        out._mask_tail()
        return out

    def extended(self, new_length: int, fill: bool = False) -> "BitVector":
        """Return a copy grown to ``new_length`` bits, new bits = ``fill``."""
        if new_length < self._length:
            raise ValueError("cannot shrink a BitVector via extended()")
        out = BitVector(new_length, fill=fill)
        if fill:
            # keep existing prefix, zero out then re-apply original bits
            n = len(self._words)
            if n:
                # Bits inside the last partial word of self beyond _length must
                # become `fill`; easiest is to rebuild from booleans.
                mask = self.to_numpy()
                grown = np.ones(new_length, dtype=bool)
                grown[: self._length] = mask
                return BitVector.from_bools(grown)
            return out
        n = len(self._words)
        out._words[:n] = self._words
        return out

    def iter_set(self) -> Iterator[int]:
        """Iterate indices of set bits in ascending order."""
        nz = np.flatnonzero(self.to_numpy())
        return iter(nz.tolist())

    def set_indices(self) -> List[int]:
        """Return indices of set bits as a list."""
        return np.flatnonzero(self.to_numpy()).tolist()

    def to_numpy(self) -> np.ndarray:
        """Return the bits as a numpy boolean array of length ``len(self)``."""
        if not self._length:
            return np.zeros(0, dtype=bool)
        bits = np.unpackbits(self._words.view(np.uint8), bitorder="little")
        return bits[: self._length].astype(bool)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def _mask_tail(self) -> None:
        """Zero out the bits beyond the logical length in the last word."""
        rem = self._length % _WORD_BITS
        if rem and len(self._words):
            keep = (np.uint64(1) << np.uint64(rem)) - np.uint64(1)
            self._words[-1] &= keep

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._length == other._length and bool(
            np.array_equal(self._words, other._words)
        )

    def __hash__(self):  # pragma: no cover - BitVectors are mutable
        raise TypeError("BitVector is unhashable (mutable)")

    def __repr__(self) -> str:
        if self._length <= 64:
            bits = "".join("1" if self.get(i) else "0" for i in range(self._length))
            return f"BitVector({bits!r})"
        return f"BitVector(length={self._length}, set={self.pop_count()})"
