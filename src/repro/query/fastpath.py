"""Code-space filter evaluation — scanning compressed data.

A column store evaluates simple predicates against the *dictionary* rather
than the decoded rows: an equality looks the literal up once (absence means
an all-false mask without touching a single row), and a range comparison on
a sorted main dictionary reduces to a code-rank comparison.  This module
recognizes the predicate shapes that allow it —

    Col <op> Lit      and      Lit <op> Col

— and produces the row mask from the fragment's code vector directly.
Anything else falls back to the generic decoded-array evaluation.  The
paper's join predicate pushdown (Section 5.3: evaluating the derived tid
filters on the partitions) benefits the most: the pushed-down range is
evaluated without decompressing the column.
"""

from __future__ import annotations

import operator
from typing import Optional

import numpy as np

from ..storage.column import ColumnFragment
from ..storage.dictionary import NULL_CODE, MainDictionary
from .expr import Cmp, Col, Expr, Lit

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
_RANGE_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}

#: A range filter over explicit rows of an unsorted dictionary compares the
#: rows' own values when they are this many times fewer than the distinct
#: values, instead of building an allowed-code table over all of them.
_SPARSE_RANGE_FACTOR = 4


def _normalize(expr: Expr):
    """Return (column name, op, literal value) for a Col-vs-Lit comparison."""
    if not isinstance(expr, Cmp):
        return None
    if isinstance(expr.left, Col) and isinstance(expr.right, Lit):
        return expr.left.name, expr.op, expr.right.value
    if isinstance(expr.left, Lit) and isinstance(expr.right, Col):
        return expr.right.name, _FLIP[expr.op], expr.left.value
    return None


def fast_filter_mask(
    expr: Expr, partition, alias: Optional[str] = None, rows=None
) -> Optional[np.ndarray]:
    """Row mask for a simple comparison, or ``None`` if not applicable.

    The mask covers *all* physical rows of the partition (the caller
    intersects it with visibility), or — given a row-index array ``rows`` —
    exactly those rows, gathering only their codes.  NULL rows never pass
    (code ``-1`` maps to the always-false slot), matching SQL comparison
    semantics.
    """
    normalized = _normalize(expr)
    if normalized is None:
        return None
    name, op, value = normalized
    if value is None:
        return None  # comparisons against NULL are all-false, but rare; fall back
    refs = expr.column_refs()
    if alias is not None and any(a not in (None, alias) for a, _ in refs):
        return None
    try:
        fragment: ColumnFragment = partition.column(name)
    except Exception:
        return None
    codes = fragment.codes() if rows is None else fragment.codes_for(rows)
    dictionary = fragment.dictionary
    if op in ("=", "!="):
        code = dictionary.lookup(value)
        if op == "=":
            if code is None:
                return np.zeros(len(codes), dtype=bool)
            return codes == code
        if code is None:
            # Everything non-NULL differs from an absent value.
            return codes != -1
        return (codes != code) & (codes != -1)
    # Range operators: build an allowed-codes table from the dictionary.
    if not len(dictionary):
        return np.zeros(len(codes), dtype=bool)
    try:
        if isinstance(dictionary, MainDictionary):
            # Codes are ranks, so the allowed codes are one interval, found
            # by binary search (NULL's -1 lies below every bound).
            if op in ("<", "<="):
                return (codes >= 0) & (codes < dictionary.rank(value, op == "<="))
            return codes >= dictionary.rank(value, op == ">")
        table = dictionary.decode_table()
        if _SPARSE_RANGE_FACTOR * len(codes) < len(dictionary):
            # A handful of pinned rows (a compensation step's changed rows)
            # against a large unsorted dictionary: compare their own values.
            keep = codes != NULL_CODE
            out = np.zeros(len(codes), dtype=bool)
            out[keep] = _compare(table[codes[keep]], op, value)
            return out
        # lut[code]; the trailing slot is NULL's -1, always false.
        lut = np.zeros(len(dictionary) + 1, dtype=bool)
        lut[:-1] = _compare(table[:-1], op, value)
    except TypeError:
        return None  # incomparable literal type; fall back to generic eval
    return lut[codes]


def _compare(values: np.ndarray, op: str, value) -> np.ndarray:
    """``values <op> value`` elementwise over an object array (each element
    compared by Python's own operator, as a row-at-a-time filter would)."""
    return np.asarray(_RANGE_OPS[op](values, value), dtype=bool)
