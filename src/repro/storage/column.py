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
    """One column of one partition: dictionary + code vector.

    The code vector is either a resident :class:`IntVector` or — after the
    partition is demoted to the cold tier — a memory-mapped vector from
    :mod:`repro.storage.coldstore`.  The fragment object itself never
    changes identity across that swap.
    """

    __slots__ = ("name", "dictionary", "_codes", "_null_state")

    def __init__(self, name: str, dictionary: Optional[Dictionary] = None):
        self.name = name
        self.dictionary: Dictionary = dictionary if dictionary is not None else DeltaDictionary()
        self._codes = IntVector()
        # Cached (row_count, has_nulls) synopsis fact.  Code vectors are
        # append-only (invalidation touches only MVCC stamps), so a cached
        # verdict stays valid exactly while the length is unchanged.
        self._null_state: Optional[tuple] = None

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def append(self, value) -> None:
        """Append one value (requires a writable :class:`DeltaDictionary`)."""
        if not isinstance(self.dictionary, DeltaDictionary):
            raise TypeError(
                f"column {self.name!r} uses a read-only main dictionary; "
                "appends are only valid on delta fragments"
            )
        self._codes.append(self.dictionary.encode(value))

    @classmethod
    def build_main(cls, name: str, values: Sequence[object]) -> "ColumnFragment":
        """Bulk-build a read-optimized fragment from raw ``values``.

        Used where rows arrive decoded (checkpoint and snapshot restore):
        the sorted main dictionary is created from the distinct values and
        every row encoded against it in one batch lookup.  The delta merge
        stays in code space and uses :meth:`from_codes` instead.
        """
        dictionary = MainDictionary(values)
        codes = np.array(dictionary.lookup_many(values, NULL_CODE), dtype=np.int64)
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

    def has_nulls(self) -> bool:
        """True when any stored row is NULL.

        The dictionary ranges used for dynamic join pruning ignore NULLs;
        the pruner must know whether NULL rows exist when referential
        integrity is not enforced (a NULL-tid row may still join).  The
        verdict is cached per code-vector length (codes are append-only),
        so repeated prune checks — and mapped cold fragments, whose flag is
        seeded from the cold manifest — answer without scanning.
        """
        n_rows = len(self._codes)
        if self._null_state is not None and self._null_state[0] == n_rows:
            return self._null_state[1]
        verdict = bool((self._codes.view() == NULL_CODE).any())
        self._null_state = (n_rows, verdict)
        return verdict

    def min_value(self):
        """Dictionary minimum (the pruning prefilter input), None if empty."""
        return self.dictionary.min_value()

    def max_value(self):
        """Dictionary maximum (the pruning prefilter input), None if empty."""
        return self.dictionary.max_value()

    # ------------------------------------------------------------------
    # storage tiers
    # ------------------------------------------------------------------
    @property
    def is_mapped(self) -> bool:
        """True when the code vector lives in the memory-mapped cold tier."""
        return bool(getattr(self._codes, "is_mapped_store", False))

    def attach_mapped_codes(self, vector, has_nulls: bool) -> None:
        """Swap the code backing onto a mapped vector (demotion/reattach).

        ``has_nulls`` seeds the null-state cache from the cold manifest so
        the synopsis never has to fault the mapping in.
        """
        if len(vector) != len(self._codes):
            raise ValueError(
                f"mapped codes for {self.name!r} have {len(vector)} rows, "
                f"fragment has {len(self._codes)}"
            )
        self._codes = vector
        self._null_state = (len(vector), bool(has_nulls))

    def release(self) -> int:
        """Drop loaded cold handles (memmap + lazy dictionary payload).

        No-op on resident fragments.  Returns the resident bytes freed.
        """
        freed = 0
        release_codes = getattr(self._codes, "release", None)
        if self.is_mapped and release_codes is not None:
            release_codes()
        release_dict = getattr(self.dictionary, "release", None)
        if release_dict is not None:
            freed += release_dict()
        return freed

    def nbytes(self) -> int:
        """Approximate bytes: packed code vector + dictionary payload.

        Codes are counted at the bit-packed width a column store would use
        (``ceil(log2(|dict|+1))`` bits per row), which is what makes the main
        store's better compression visible in the Section 6.2 experiment.
        Mapped fragments are counted at their on-disk footprint instead —
        use :meth:`nbytes_resident`/:meth:`nbytes_mapped` where the tier
        split matters (eviction profit, budgets).
        """
        return self.nbytes_resident() + self.nbytes_mapped()

    def nbytes_resident(self) -> int:
        """Bytes held in RAM.  For a mapped fragment this is only the
        lazily loaded dictionary payload (0 when released); the mapped
        pages themselves are the OS page cache's problem, not the budget's.
        """
        if self.is_mapped:
            loaded = getattr(self.dictionary, "loaded_nbytes", None)
            return loaded() if loaded is not None else 0
        n_rows = len(self._codes)
        n_distinct = len(self.dictionary)
        bits = max(1, int(np.ceil(np.log2(n_distinct + 2))))
        return (n_rows * bits + 7) // 8 + self.dictionary.nbytes()

    def nbytes_mapped(self) -> int:
        """Bytes backed by cold files (0 for resident fragments)."""
        if not self.is_mapped:
            return 0
        mapped = self._codes.nbytes()
        loaded = getattr(self.dictionary, "loaded_nbytes", lambda: 0)()
        return mapped + max(0, self.dictionary.nbytes() - loaded)

    def __repr__(self) -> str:
        kind = "main" if isinstance(self.dictionary, MainDictionary) else "delta"
        tier = ", mapped" if self.is_mapped else ""
        return f"ColumnFragment({self.name!r}, kind={kind}, rows={len(self._codes)}{tier})"
