"""Dictionary-encoded column fragments.

A *column fragment* is the physical storage of one column inside one
horizontal partition: a dictionary (delta- or main-flavoured) plus an
``int64`` code vector with one entry per row.  NULLs are encoded as
``NULL_CODE``.

The fragment also answers the two questions the object-aware optimizations
ask at run time (Section 5.1): the current ``min``/``max`` of the column's
dictionary (for the dynamic-pruning prefilter of Equation 5) and fast
decoded access to row ranges (for join/aggregation processing).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .dictionary import NULL_CODE, DeltaDictionary, MainDictionary
from .vector import IntVector

Dictionary = Union[DeltaDictionary, MainDictionary]


class ColumnFragment:
    """One column of one partition: dictionary + code vector."""

    __slots__ = ("name", "dictionary", "_codes")

    def __init__(self, name: str, dictionary: Optional[Dictionary] = None):
        self.name = name
        self.dictionary: Dictionary = dictionary if dictionary is not None else DeltaDictionary()
        self._codes = IntVector()

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def extend(self, values: Sequence[object]) -> None:
        """Append validated values (requires a writable :class:`DeltaDictionary`)."""
        if not isinstance(self.dictionary, DeltaDictionary):
            raise TypeError(
                f"column {self.name!r} uses a read-only main dictionary; "
                "appends are only valid on delta fragments"
            )
        self._codes.extend(self.dictionary.encode_many(values))

    @classmethod
    def build_main(cls, name: str, values: Sequence[object]) -> "ColumnFragment":
        """Bulk-build a read-optimized fragment from raw ``values``.

        Used where rows arrive decoded (checkpoint and snapshot restore):
        the non-NULL values are sorted and deduplicated by the merge's
        :meth:`MainDictionary.encode`, which also codes every row.  The
        delta merge stays in code space and uses :meth:`from_codes`.
        """
        objects = np.fromiter(values, dtype=object, count=len(values))
        present = np.flatnonzero(np.not_equal(objects, None))
        dictionary, present_codes = MainDictionary.encode(objects[present])
        codes = np.full(len(objects), NULL_CODE, dtype=np.int64)
        codes[present] = present_codes
        return cls.from_codes(name, dictionary, codes)

    @classmethod
    def from_codes(
        cls, name: str, dictionary: Dictionary, codes: np.ndarray
    ) -> "ColumnFragment":
        """A fragment over a ready dictionary and ``int64`` code array.

        The array is adopted, not copied; every code must be a valid index
        into ``dictionary`` or ``NULL_CODE``.
        """
        fragment = cls(name, dictionary)
        fragment._codes = IntVector.adopt(codes)
        return fragment

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._codes)

    def codes(self) -> np.ndarray:
        """Zero-copy view of the code vector (do not hold across appends)."""
        return self._codes.view()

    def codes_for(self, rows) -> np.ndarray:
        """Codes of the given row indices (one gather, no decoding)."""
        return self._codes.view()[np.asarray(rows, dtype=np.int64)]

    def value_at(self, row: int):
        """Decoded value of one row."""
        return self.dictionary.decode(self._codes[row])

    def decode_codes(self, codes: np.ndarray) -> np.ndarray:
        """Decoded values for an array of dictionary codes (object array).

        Decoding is one fancy-indexing pass over the dictionary's cached
        decode LUT — ``NULL_CODE`` (-1) wraps to the LUT's trailing None
        slot, so NULLs need no separate branch.
        """
        return self.dictionary.decode_table()[codes]

    def decode_rows(self, rows) -> np.ndarray:
        """Decoded values for the given row indices as an object array.

        ``rows`` may be a list or a numpy integer array.  Decoding goes
        through the dictionary's cached dense LUT so repeated values are
        decoded once, which is the usual column-store trick.
        """
        return self.decode_codes(self.codes_for(rows))

    def equality_mask(self, value) -> np.ndarray:
        """Boolean mask over all rows where the column equals ``value``.

        Comparison happens in *code space*: the value is looked up once in
        the dictionary; absence means an all-false mask without touching the
        rows.  NULL never matches.
        """
        code = self.dictionary.lookup(value)
        if code is None:
            return np.zeros(len(self._codes), dtype=bool)
        return self._codes.view() == code

    def min_value(self):
        """Dictionary minimum (the pruning prefilter input), None if empty."""
        return self.dictionary.min_value()

    def max_value(self):
        """Dictionary maximum (the pruning prefilter input), None if empty."""
        return self.dictionary.max_value()

    def nbytes(self) -> int:
        """Approximate bytes: packed code vector + dictionary payload.

        Codes are counted at the bit-packed width a column store would use
        (``ceil(log2(|dict|+1))`` bits per row), which is what makes the main
        store's better compression visible in the Section 6.2 experiment.
        """
        n_rows = len(self._codes)
        n_distinct = len(self.dictionary)
        bits = max(1, int(np.ceil(np.log2(n_distinct + 2))))
        return (n_rows * bits + 7) // 8 + self.dictionary.nbytes()

    def __repr__(self) -> str:
        kind = "main" if isinstance(self.dictionary, MainDictionary) else "delta"
        return f"ColumnFragment({self.name!r}, kind={kind}, rows={len(self._codes)})"
