"""Physical operators: partition scans, hash joins, grouped aggregation.

The operators work on *row-index sets* rather than materialized tuples:
an intermediate join result is a dict ``alias -> int array`` of parallel row
indices into each alias' partition.  Values are decoded through the column
dictionaries only where an expression needs them.

Main-sized joins and aggregations run in **dictionary-code space** (the
Krueger-et-al. "fast updates on read-optimized databases" template): the
build side of a hash join is grouped by its folded key codes, the probe
side is *bridged* into the build side's code space by translating
dictionaries (one lookup per distinct value, never per row), and match
multiplicities are expanded with ``np.repeat`` + prefix sums.  Where a
code range is within ``_DENSE_ROWS_FACTOR`` of the rows, ranking, grouping
and lookup go through arrays indexed by code (linear in rows plus range);
only sparse ranges pay the ``np.unique`` / ``searchsorted`` sorts.  That
setup is a fixed cost of a dozen NumPy calls, which delta-sized inputs never
pay back: a hash step whose build rows and probe tuples both number at most
``_SMALL_INPUT_ROWS`` runs a plain dictionary loop instead
(:func:`join_kernel`), as does an aggregation over fewer rows.  Both
kernels emit the same ``(probe position, build row)`` sequence — ascending
probe position, build order within a key — so a subjoin mixing them step by
step joins the same tuples in the same order; the parity suites in
``tests/query/`` pin that.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import QueryError
from ..storage.dictionary import NULL_CODE, MainDictionary
from ..storage.partition import Partition
from ..storage.schema import SqlType
from .aggregates import AggregateSpec, GroupedAggregates
from .expr import Col, Expr

# ---------------------------------------------------------------------------
# kernel selection
# ---------------------------------------------------------------------------

KERNEL_VECTORIZED = "vectorized"
KERNEL_ROWLOOP = "rowloop"

#: Inputs this small take the row-at-a-time paths: a hash step whose build
#: and probe sides both have at most this many rows, an aggregation over
#: fewer, a dictionary bridge translating at most this many values.  Below
#: it the code-space kernels' fixed NumPy setup costs more than the rows do.
_SMALL_INPUT_ROWS = 48

_KERNEL_OVERRIDE: Optional[str] = None


def join_kernel(build_rows: int, probe_rows: int) -> str:
    """The kernel for one hash step: :func:`kernel_override` if set, else the
    row loop when both sides have at most ``_SMALL_INPUT_ROWS`` rows."""
    if _KERNEL_OVERRIDE is not None:
        return _KERNEL_OVERRIDE
    if build_rows <= _SMALL_INPUT_ROWS and probe_rows <= _SMALL_INPUT_ROWS:
        return KERNEL_ROWLOOP
    return KERNEL_VECTORIZED


@contextmanager
def kernel_override(kernel: str):
    """Force one kernel for every join step and aggregation inside the block
    (the parity tests' seam)."""
    global _KERNEL_OVERRIDE
    if kernel not in (KERNEL_VECTORIZED, KERNEL_ROWLOOP):
        raise QueryError(f"unknown join kernel {kernel!r}")
    previous = _KERNEL_OVERRIDE
    _KERNEL_OVERRIDE = kernel
    try:
        yield
    finally:
        _KERNEL_OVERRIDE = previous


class PartitionProvider:
    """Column provider over selected rows of a single partition."""

    __slots__ = ("alias", "partition", "rows")

    def __init__(self, alias: str, partition: Partition, rows: np.ndarray):
        self.alias = alias
        self.partition = partition
        self.rows = rows

    def get(self, alias: Optional[str], name: str) -> np.ndarray:
        """Decoded values of a column over the selected rows."""
        if alias is not None and alias != self.alias:
            raise QueryError(
                f"expression references alias {alias!r} inside a scan of {self.alias!r}"
            )
        return self.partition.column(name).decode_rows(self.rows)

    def row_count(self) -> int:
        """Number of selected rows."""
        return len(self.rows)


class JoinedProvider:
    """Column provider over a joined tuple set.

    ``indices`` maps each alias to a row-index array; all arrays have equal
    length — position ``i`` across them is one joined tuple.
    """

    __slots__ = ("partitions", "indices", "_length")

    def __init__(
        self,
        partitions: Dict[str, Partition],
        indices: Dict[str, np.ndarray],
    ):
        self.partitions = partitions
        self.indices = indices
        lengths = {len(v) for v in indices.values()}
        if len(lengths) > 1:
            raise QueryError(f"unaligned joined index arrays: {lengths}")
        self._length = lengths.pop() if lengths else 0

    def get(self, alias: Optional[str], name: str) -> np.ndarray:
        """Decoded values of ``alias.name`` over the joined tuples."""
        if alias is None:
            alias = self._resolve_unqualified(name)
        partition = self.partitions[alias]
        return partition.column(name).decode_rows(self.indices[alias])

    def codes(self, alias: str, name: str):
        """Dictionary codes of a column over the tuple set, plus the fragment.

        The vectorized join/group-by kernels work on codes (dense small
        integers) instead of decoded values — the standard column-store
        optimization.
        """
        fragment = self.partitions[alias].column(name)
        return fragment.codes_for(self.indices[alias]), fragment

    def _resolve_unqualified(self, name: str) -> str:
        owners = [
            alias
            for alias, partition in self.partitions.items()
            if name in partition.column_names()
        ]
        if len(owners) != 1:
            raise QueryError(
                f"column {name!r} is {'ambiguous' if owners else 'unknown'} "
                f"across aliases {sorted(self.partitions)}"
            )
        return owners[0]

    def row_count(self) -> int:
        """Number of joined tuples."""
        return self._length

    def select(self, mask: np.ndarray) -> "JoinedProvider":
        """Restrict the tuple set to rows where ``mask`` is true."""
        return JoinedProvider(
            self.partitions,
            {alias: rows[mask] for alias, rows in self.indices.items()},
        )


def scan_partition(
    alias: str,
    partition: Partition,
    snapshot: int,
    filters: Sequence[Expr] = (),
) -> np.ndarray:
    """Visible row indices of ``partition`` that pass all local ``filters``.

    Simple comparisons are evaluated in dictionary-code space (see
    ``repro.query.fastpath``) before any row is decoded; only the remaining
    predicates touch decoded values, and only for rows that survived.
    """
    from .fastpath import fast_filter_mask

    mask = partition.visible_mask(snapshot)
    slow_filters: List[Expr] = []
    for expr in filters:
        if not mask.any():
            return np.flatnonzero(mask)
        fast = fast_filter_mask(expr, partition, alias)
        if fast is not None:
            mask &= fast
        else:
            slow_filters.append(expr)
    return filter_rows(alias, partition, np.flatnonzero(mask), slow_filters)


def filter_rows(
    alias: str,
    partition: Partition,
    rows: np.ndarray,
    filters: Sequence[Expr],
) -> np.ndarray:
    """The rows of an explicit row-index set that pass all local ``filters``.

    The pinned-row counterpart of :func:`scan_partition`: simple
    comparisons run in code space over the given rows only (one gather per
    filter, nothing decoded), the expressions the fast path declines are
    evaluated over the decoded survivors.  Row order is preserved.
    """
    from .fastpath import fast_filter_mask

    rows = np.asarray(rows, dtype=np.int64)
    slow_filters: List[Expr] = []
    for expr in filters:
        if not len(rows):
            return rows
        fast = fast_filter_mask(expr, partition, alias, rows)
        if fast is not None:
            rows = rows[fast]
        else:
            slow_filters.append(expr)
    if slow_filters and len(rows):
        provider = PartitionProvider(alias, partition, rows)
        keep = np.ones(len(rows), dtype=bool)
        for expr in slow_filters:
            keep &= expr.evaluate(provider).astype(bool)
        rows = rows[keep]
    return rows


# ---------------------------------------------------------------------------
# code-space join kernels
# ---------------------------------------------------------------------------

#: Bridged probe code for values absent from the build-side key space.
#: Distinct from NULL_CODE only for clarity — neither can ever match a
#: build code (build codes are >= 0 after NULL rows are masked out).
_NO_MATCH = -2

#: Mixed-radix folds re-compact through ``np.unique`` before the running
#: key domain would exceed this bound (safely inside int64).
_MAX_KEY_DOMAIN = 1 << 62

#: No array indexed by code ever has more slots than this, whatever the rows.
_DENSE_MAP_LIMIT = 1 << 20

#: A code range — a dictionary's size, a folded key domain — is *dense*
#: when it has at most this many slots per input row: the kernels then rank,
#: group and look keys up through arrays indexed by code, linear in rows plus
#: range.  A sparser range (a 50-row compensation term over a dictionary of
#: thousands) takes the sort path, ``np.unique`` / ``searchsorted``, which
#: costs rows × log rows and nothing per slot.  8 is the largest factor at
#: which the dense paths beat the sort paths in every kernel at 50 to
#: 30,000 rows; at 16 the group-by fold loses on large inputs.
_DENSE_ROWS_FACTOR = 8


def _dense_range(size: int, rows: int) -> bool:
    """Whether a code range of ``size`` slots over ``rows`` inputs is dense."""
    return size <= _DENSE_ROWS_FACTOR * rows and size <= _DENSE_MAP_LIMIT


def _rank_lut(codes: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(ucodes, lut)``: the distinct ``codes`` (all in ``[0, size)``) in
    ascending order, and a LUT mapping ``ucodes[i]`` to ``i`` and every
    other code to -1 — without a sort.  Two trailing slots also read -1, so
    a probe's NULL_CODE (-1) and _NO_MATCH (-2) index them from the end."""
    present = np.zeros(size, dtype=bool)
    present[codes] = True
    ucodes = np.flatnonzero(present)
    lut = np.full(size + 2, -1, dtype=np.int64)
    lut[ucodes] = np.arange(len(ucodes), dtype=np.int64)
    return ucodes, lut


class _CodeKeySpace:
    """Composite-key factorization over build-side dictionary codes.

    Each key column is compacted to ranks within the distinct codes actually
    present on the build side, then the columns are folded into one int64
    key per row with mixed-radix packing.  A column whose dictionary is
    dense (:func:`_dense_range`) is ranked by scattering its codes into a
    boolean array over the dictionary and gathering through a rank LUT; a
    sparse one by sort, adjacent dedup and ``searchsorted``.  Both yield the
    same ranks.  Whenever the running key domain would no longer fit int64,
    the running keys are re-compacted through ``np.unique`` first (their
    distinct count is bounded by the row count), so wide composite keys over
    large dictionaries can never silently wrap.  Every compaction step is
    recorded so :meth:`probe` can replay the identical fold over bridged
    probe codes: one LUT gather per dense column, ``searchsorted`` lookups
    otherwise.
    """

    __slots__ = ("steps", "domain", "combined")

    def __init__(self, code_cols: Sequence[np.ndarray], sizes: Sequence[int]):
        steps: List[Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]] = []
        combined: Optional[np.ndarray] = None
        domain = 1
        for codes, size in zip(code_cols, sizes):
            lut: Optional[np.ndarray] = None
            if _dense_range(size, len(codes)):
                ucodes, lut = _rank_lut(codes, size)
                ranks = lut[codes]
            else:
                # Sort + adjacent dedup: np.unique without an inverse does
                # the same through a several times slower path on NumPy 2.x.
                ucodes = np.sort(codes)
                distinct = np.ones(len(ucodes), dtype=bool)
                np.not_equal(ucodes[1:], ucodes[:-1], out=distinct[1:])
                ucodes = ucodes[distinct]
                ranks = np.searchsorted(ucodes, codes)
            radix = int(len(ucodes))
            compact: Optional[np.ndarray] = None
            if combined is None:
                combined = ranks.astype(np.int64, copy=False)
                domain = radix
            else:
                if domain > _MAX_KEY_DOMAIN // max(radix, 1):
                    compact, combined = np.unique(combined, return_inverse=True)
                    domain = len(compact)
                combined = combined * radix + ranks
                domain *= radix
            steps.append((ucodes, lut, compact))
        self.steps = steps
        self.domain = domain
        #: Per-row folded build keys; transient (dropped after grouping).
        self.combined = combined

    def probe(self, bridged_cols: Sequence[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        """Replay the fold over bridged probe codes.

        Returns ``(combined, valid)``: the folded probe keys plus the mask
        of rows whose codes exist column-wise in the build key space.
        Invalid rows carry meaningless keys (clipped or negative), so
        callers must apply ``valid``.  NULL (-1) and absent (-2) bridged
        codes fail the membership check, never matching anything.
        """
        combined: Optional[np.ndarray] = None
        valid: Optional[np.ndarray] = None
        for (ucodes, lut, compact), codes in zip(self.steps, bridged_cols):
            if lut is not None:
                pos = lut[codes]
                ok = pos >= 0
            else:
                pos = np.searchsorted(ucodes, codes)
                pos = np.minimum(pos, len(ucodes) - 1)
                ok = ucodes[pos] == codes
            valid = ok if valid is None else (valid & ok)
            if combined is None:
                combined = pos.astype(np.int64, copy=False)
            else:
                if compact is not None:
                    cpos = np.searchsorted(compact, combined)
                    cpos = np.minimum(cpos, len(compact) - 1)
                    valid &= compact[cpos] == combined
                    combined = cpos
                combined = combined * len(ucodes) + pos
        return combined, valid


def _dict_lookup_many(build_dict, values: np.ndarray) -> np.ndarray:
    """Build-side codes for an array of values (``_NO_MATCH`` where absent),
    one hash lookup per value."""
    return np.array(
        build_dict.lookup_many(values.tolist(), _NO_MATCH), dtype=np.int64
    )


def _int_pair(probe_dict, build_dict) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Both dictionaries' sorted int64 values when both are integer main
    dictionaries, else None: delta dictionaries and non-integer values take
    the hash path."""
    if type(probe_dict) is not MainDictionary or type(build_dict) is not MainDictionary:
        return None
    probe_ints = probe_dict.int_values()
    build_ints = build_dict.int_values() if probe_ints is not None else None
    return None if build_ints is None else (probe_ints, build_ints)


def _translate_codes(probe_dict, codes, build_dict) -> np.ndarray:
    """Build-dictionary codes of the probe dictionary's ``codes`` (an array
    of non-NULL codes, or ``slice(m)`` for all ``m``), ``_NO_MATCH`` where
    the value is absent.

    More than ``_SMALL_INPUT_ROWS`` values between two integer main
    dictionaries translate with one ``searchsorted`` over their int64
    arrays plus an equality check; every other case looks each value up in
    the build dictionary's hash map.
    """
    count = len(probe_dict) if isinstance(codes, slice) else len(codes)
    ints = _int_pair(probe_dict, build_dict) if count > _SMALL_INPUT_ROWS else None
    if ints is None:
        return _dict_lookup_many(build_dict, probe_dict.decode_table()[codes])
    probe_ints, build_ints = ints
    values = probe_ints[codes]
    if not len(build_ints):
        return np.full(len(values), _NO_MATCH, dtype=np.int64)
    pos = np.searchsorted(build_ints, values)
    np.minimum(pos, len(build_ints) - 1, out=pos)
    return np.where(build_ints[pos] == values, pos, _NO_MATCH)


#: ``_bridge_codes`` translates only the codes present among the probe rows
#: when the rows are this many times fewer than the probe dictionary's
#: values; a full-dictionary LUT would cost more to build than it saves
#: (the two break even near one row per value).
_SPARSE_BRIDGE_FACTOR = 2


def _bridge_codes(probe_fragment, probe_codes: np.ndarray, build_fragment) -> np.ndarray:
    """Translate probe-side dictionary codes into the build fragment's codes.

    When both sides share one dictionary object the codes pass through
    unchanged (NULL stays ``-1`` and never matches).  Otherwise only the
    probe *dictionary* is translated (:func:`_translate_codes`) — once per
    distinct value, never per row — which is where main/delta dictionary
    skew is bridged.  A probe with few rows against a large dictionary (a
    compensation subjoin probing from a handful of changed rows) translates
    just the distinct codes it carries instead of the whole dictionary.
    NULL and values absent from the build dictionary map to ``_NO_MATCH``.
    """
    build_dict = build_fragment.dictionary
    probe_dict = probe_fragment.dictionary
    if probe_dict is build_dict:
        return probe_codes
    m = len(probe_dict)
    if _SPARSE_BRIDGE_FACTOR * len(probe_codes) < m:
        present, inverse = np.unique(probe_codes, return_inverse=True)
        # NULL_CODE, if present, sorts first.
        start = int(len(present) > 0 and present[0] == NULL_CODE)
        lut = np.full(len(present), _NO_MATCH, dtype=np.int64)
        lut[start:] = _translate_codes(probe_dict, present[start:], build_dict)
        return lut[inverse]
    lut = np.full(m + 1, _NO_MATCH, dtype=np.int64)
    lut[:m] = _translate_codes(probe_dict, slice(m), build_dict)
    return lut[probe_codes]


#: Sideways information passing: a scan is semi-join-reduced by a
#: neighbour's key set only when the neighbour has at most ``1/row skew`` of
#: its rows (so finding the key set is cheap next to the join it thins)
#: *and* the distinct keys number at most ``1/key skew`` of the reduced
#: column's dictionary (so a fair share of the rows is expected to go).  The
#: second test runs before any dictionary is bridged or any pass is made
#: over the large side: a small dimension table whose keys span the whole
#: fact-table dictionary — a reduction that would keep every row — costs
#: one scatter over the small side.
_SEMI_JOIN_ROW_SKEW = 4
_SEMI_JOIN_KEY_SKEW = 2


def semi_join_reduce(
    key_partition: Partition,
    key_rows: np.ndarray,
    key_column: str,
    partition: Partition,
    rows: np.ndarray,
    column: str,
) -> np.ndarray:
    """``rows`` restricted to those whose ``column`` equals a key of ``key_rows``.

    Works on the exact key set in code space: the distinct non-NULL key
    codes are bridged into ``column``'s dictionary, marked in a boolean LUT
    over that dictionary, and ``rows`` is filtered with one code gather and
    one LUT gather.  Row order is preserved, NULL keys never match — the
    reduced set joins to exactly the tuples the full set would.  Returns
    ``rows`` itself (same object) when the skew guards decline or every
    row survives.
    """
    if not len(key_rows) * _SEMI_JOIN_ROW_SKEW <= len(rows):
        return rows
    key_fragment = key_partition.column(key_column)
    fragment = partition.column(column)
    # Distinct non-NULL key codes by scattering into a LUT over the key
    # dictionary (trailing slot: NULL_CODE) — no sort, no hashing.
    present = np.zeros(len(key_fragment.dictionary) + 1, dtype=bool)
    present[key_fragment.codes_for(key_rows)] = True
    keys = np.flatnonzero(present[:-1])
    n_values = len(fragment.dictionary)
    if not len(keys) * _SEMI_JOIN_KEY_SKEW <= n_values:
        return rows
    if key_fragment.dictionary is not fragment.dictionary:
        keys = _translate_codes(key_fragment.dictionary, keys, fragment.dictionary)
        keys = keys[keys != _NO_MATCH]
    member = np.zeros(n_values + 1, dtype=bool)  # trailing slot: NULL_CODE
    member[keys] = True
    keep = member[fragment.codes_for(rows)]
    return rows if keep.all() else rows[keep]


def _csr_layout(
    rows: np.ndarray, group_idx: np.ndarray, n_groups: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(group_rows, starts, counts)``: ``rows`` ordered by group id, build
    order within a group, addressed by prefix-sum ``starts``/``counts``."""
    group_rows = rows[np.argsort(group_idx, kind="stable")]
    counts = np.bincount(group_idx, minlength=n_groups).astype(np.int64, copy=False)
    starts = np.concatenate(([0], np.cumsum(counts[:-1])))
    return group_rows, starts, counts


def _expand_matches(
    groups: np.ndarray, group_rows: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(probe positions, build rows)`` for probe rows whose group ids are
    ``groups`` (-1 = no match): each hit repeated once per row of its group,
    in ascending probe position and build order within a group."""
    hit = groups >= 0
    safe = np.where(hit, groups, 0)
    reps = np.where(hit, counts[safe], 0)
    total = int(reps.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    positions = np.repeat(np.arange(len(groups), dtype=np.int64), reps)
    offsets = np.concatenate(([0], np.cumsum(reps)[:-1]))
    intra = np.arange(total, dtype=np.int64) - np.repeat(offsets, reps)
    matched = group_rows[np.repeat(starts[safe], reps) + intra]
    return positions, matched


class _CodeSpaceHashTable:
    """Build side of an equi-join, grouped in dictionary-code space.

    Rows are grouped by their folded key codes (:class:`_CodeKeySpace`).
    A one-column key's ranks already are its group ids, at build and probe.
    A wider key is grouped over a dense domain (:func:`_dense_range`)
    through a dense map from folded key to group id (:func:`_rank_lut`),
    which the probe then reads; over a sparse one by ``np.unique``, the
    probe searching ``unique_keys`` — unless the probe's rows make the
    domain dense for build plus probe rows, when the probe makes the map.
    Group ids are ascending keys in every case.  Per-group row lists live in
    one array addressed by prefix-sum ``starts``/``counts``, in build-row
    order within each key (what makes the expansion bit-identical to the
    row loop): a stable sort by group id, or — when every key is unique, as
    on any primary-key side — one scatter, and the probe then gathers one
    row per hit instead of expanding multiplicities.  Rows with a NULL in
    any key column are masked out wholesale up front.
    """

    kernel = KERNEL_VECTORIZED

    __slots__ = (
        "partition", "key_columns", "fragments", "key_space",
        "unique_keys", "group_rows", "starts", "counts", "dense",
    )

    def __init__(self, partition: Partition, rows, key_columns: Sequence[str]):
        self.partition = partition
        self.key_columns = tuple(key_columns)
        self.fragments = [partition.column(c) for c in key_columns]
        rows = np.asarray(rows, dtype=np.int64)
        code_cols = [frag.codes_for(rows) for frag in self.fragments]
        if rows.size:
            valid = code_cols[0] != NULL_CODE
            for codes in code_cols[1:]:
                valid &= codes != NULL_CODE
            if not valid.all():
                rows = rows[valid]
                code_cols = [codes[valid] for codes in code_cols]
        self.dense = None
        if rows.size == 0:
            self.key_space = None
            self.unique_keys = np.empty(0, dtype=np.int64)
            self.group_rows = np.empty(0, dtype=np.int64)
            self.starts = np.empty(0, dtype=np.int64)
            self.counts = np.empty(0, dtype=np.int64)
            return
        n = len(rows)
        space = _CodeKeySpace(code_cols, [len(frag.dictionary) for frag in self.fragments])
        combined = space.combined
        space.combined = None  # free the per-row fold; only the plan is kept
        self.key_space = space
        if len(code_cols) == 1:
            # One column's ranks already number its distinct codes 0..k-1:
            # they are the group ids, and the probe's ranks need no map.
            unique_keys, group_idx = np.arange(space.domain, dtype=np.int64), combined
        elif _dense_range(space.domain, n):
            unique_keys, self.dense = _rank_lut(combined, space.domain)
            group_idx = self.dense[combined]
        else:
            unique_keys, group_idx = np.unique(combined, return_inverse=True)
        self.unique_keys = unique_keys
        if len(unique_keys) == n:  # key-unique: group id g holds one row
            group_rows = np.empty(n, dtype=np.int64)
            group_rows[group_idx] = rows
            self.group_rows = group_rows
            self.counts = np.ones(n, dtype=np.int64)
            self.starts = np.arange(n, dtype=np.int64)
            return
        self.group_rows, self.starts, self.counts = _csr_layout(
            rows, group_idx, len(unique_keys)
        )

    def __len__(self) -> int:
        return len(self.unique_keys)

    def __bool__(self) -> bool:
        return len(self.unique_keys) > 0

    def _lookup_groups(self, combined: np.ndarray, valid: np.ndarray) -> np.ndarray:
        """Group id per probe row, ``-1`` for misses."""
        if len(self.key_columns) == 1:
            return np.where(valid, combined, -1)
        domain = self.key_space.domain
        if self.dense is None and _dense_range(domain, len(self.group_rows) + len(combined)):
            # A build too small for a map of its own, probed by enough rows
            # that one gather each beats searching ``unique_keys``.
            self.dense = _rank_lut(self.unique_keys, domain)[1]
        if self.dense is not None:
            found = self.dense[np.where(valid, combined, 0)]
            return np.where(valid, found, -1)
        pos = np.searchsorted(self.unique_keys, combined)
        pos = np.minimum(pos, len(self.unique_keys) - 1)
        hit = valid & (self.unique_keys[pos] == combined)
        return np.where(hit, pos, -1)

    def probe(self, current: "JoinedProvider", probe_columns) -> Tuple[np.ndarray, np.ndarray]:
        """Match the current tuple set; returns (probe positions, build rows).

        Both arrays are parallel and ordered by ascending probe position,
        with matches within one probe row in build-row order — the exact
        sequence the row loop emits.
        """
        n = current.row_count()
        if n == 0 or not self:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        bridged = []
        for (alias, col), build_frag in zip(probe_columns, self.fragments):
            probe_frag = current.partitions[alias].column(col)
            codes = probe_frag.codes_for(current.indices[alias])
            bridged.append(_bridge_codes(probe_frag, codes, build_frag))
        combined, valid = self.key_space.probe(bridged)
        groups = self._lookup_groups(combined, valid)
        if len(self.group_rows) == len(self.unique_keys):  # key-unique build
            positions = np.flatnonzero(groups >= 0)
            return positions, self.group_rows[groups[positions]]
        return _expand_matches(groups, self.group_rows, self.starts, self.counts)

    def as_dict(self) -> Dict[Tuple, List[int]]:
        """Decoded-key rendering for diagnostics/tests: key tuple -> rows."""
        out: Dict[Tuple, List[int]] = {}
        for gid in range(len(self.unique_keys)):
            start = int(self.starts[gid])
            rows = self.group_rows[start: start + int(self.counts[gid])]
            key = tuple(frag.value_at(int(rows[0])) for frag in self.fragments)
            out[key] = [int(r) for r in rows]
        return out


class _RowLoopHashTable:
    """Row-at-a-time build side over decoded tuple keys: the kernel for
    delta-sized steps, where one dict pass beats the code-space setup.

    Keys are decoded once per column; rows with a NULL in any key column
    are left out, so a probe key holding NULL simply finds nothing.
    """

    kernel = KERNEL_ROWLOOP

    __slots__ = ("partition", "key_columns", "table")

    def __init__(self, partition: Partition, rows, key_columns: Sequence[str]):
        self.partition = partition
        self.key_columns = tuple(key_columns)
        rows = np.asarray(rows, dtype=np.int64)
        columns = [partition.column(col).decode_rows(rows).tolist() for col in key_columns]
        table: Dict[Tuple, List[int]] = {}
        for key, row in zip(zip(*columns), rows.tolist()):
            if None in key:
                continue
            matches = table.get(key)
            if matches is None:
                table[key] = [row]
            else:
                matches.append(row)
        self.table = table

    def __len__(self) -> int:
        return len(self.table)

    def __bool__(self) -> bool:
        return bool(self.table)

    def probe(self, current: "JoinedProvider", probe_columns) -> Tuple[np.ndarray, np.ndarray]:
        """Row-at-a-time probe; same contract as the code-space kernel."""
        columns = [current.get(alias, col).tolist() for alias, col in probe_columns]
        lookup = self.table.get
        positions: List[int] = []
        matched: List[int] = []
        for i, key in enumerate(zip(*columns)):
            matches = lookup(key)
            if matches is None:
                continue
            if len(matches) == 1:
                positions.append(i)
                matched.append(matches[0])
            else:
                positions += [i] * len(matches)
                matched += matches
        return (
            np.array(positions, dtype=np.int64),
            np.array(matched, dtype=np.int64),
        )

    def as_dict(self) -> Dict[Tuple, List[int]]:
        """Decoded-key rendering for diagnostics/tests: key tuple -> rows."""
        return {key: list(rows) for key, rows in self.table.items()}


def build_hash_table(
    partition: Partition, rows: np.ndarray, key_columns: Sequence[str], kernel: str
):
    """Hash the given rows of ``partition`` on the composite key columns.

    Returns ``kernel``'s build-side table (the executor passes the one
    :func:`join_kernel` chose for the step).  Rows with a NULL in any key
    column never join and are dropped here.  The result is falsy when no
    row survives, so callers can short-circuit empty subjoins.
    """
    if kernel == KERNEL_ROWLOOP:
        return _RowLoopHashTable(partition, rows, key_columns)
    return _CodeSpaceHashTable(partition, rows, key_columns)


def probe_hash_join(
    current: JoinedProvider,
    probe_columns: Sequence[Tuple[str, str]],
    new_alias: str,
    new_partition: Partition,
    hash_table,
) -> JoinedProvider:
    """Join the current tuple set against a hashed partition.

    ``probe_columns`` lists the (alias, column) pairs on the *current* side,
    in the same order as the hash table's key columns.  Produces the expanded
    tuple set including ``new_alias``; both kernels emit identical index
    arrays (ascending probe position, build-row order within a key).
    """
    positions, matched = hash_table.probe(current, probe_columns)
    indices = {
        alias: rows[positions] for alias, rows in current.indices.items()
    }
    indices[new_alias] = matched
    partitions = dict(current.partitions)
    partitions[new_alias] = new_partition
    return JoinedProvider(partitions, indices)


# ---------------------------------------------------------------------------
# grouped aggregation
# ---------------------------------------------------------------------------

def aggregate_into(
    grouped: GroupedAggregates,
    provider: JoinedProvider,
    group_by: Sequence[Col],
    specs: Sequence[AggregateSpec],
    sign: int = 1,
) -> int:
    """Fold the provider's tuples into ``grouped``; returns rows aggregated.

    Large self-maintainable aggregations take a vectorized path: rows are
    grouped on dictionary *codes* (overflow-safe mixed-radix fold across the
    group-by columns) and reduced per group before the grouped state is
    touched once per group — the column-store way.  Inputs under
    ``_SMALL_INPUT_ROWS``, MIN/MAX aggregations, and a forced ``rowloop``
    kernel use the straightforward row loop.  Both paths produce
    bit-identical grouped state.
    """
    n = provider.row_count()
    if n == 0:
        return 0
    vectorizable = (
        _KERNEL_OVERRIDE != KERNEL_ROWLOOP
        and n >= _SMALL_INPUT_ROWS
        and all(spec.self_maintainable for spec in specs)
        and all(col.alias is not None for col in group_by)
    )
    if vectorizable:
        _aggregate_vectorized(grouped, provider, group_by, specs, sign, n)
        return n
    if group_by:
        key_arrays = [col.evaluate(provider) for col in group_by]
        keys = list(zip(*key_arrays))
    else:
        keys = [()] * n
    agg_columns: List[np.ndarray] = []
    empty = np.empty(0, dtype=object)
    for spec in specs:
        if spec.arg is None:
            agg_columns.append(empty)  # COUNT(*) ignores its value column
        else:
            agg_columns.append(spec.arg.evaluate(provider))
    grouped.accumulate(keys, agg_columns, sign=sign)
    return n


def _null_mask(values: np.ndarray) -> np.ndarray:
    """None mask over a decoded object array (generic-expression fallback;
    simple column references test ``codes == NULL_CODE`` instead)."""
    return np.frompyfunc(lambda v: v is None, 1, 1)(values).astype(bool)


def _fold_group_codes(
    code_cols: Sequence[np.ndarray], radices: Sequence[int]
) -> Tuple[np.ndarray, int]:
    """Dense group ids from per-column (NULL-shifted) code arrays.

    Mixed-radix packing ``combined = combined * radix + code`` is the fast
    path; whenever the running key domain would exceed int64 the running
    keys are re-compacted through ``np.unique`` first (their distinct count
    is bounded by the row count), so wide group-bys over large dictionaries
    can never wrap and silently merge unrelated groups.  Group ids number
    the distinct folded keys in ascending order: over a dense domain
    (:func:`_dense_range`) through a rank LUT (:func:`_rank_lut`), over a
    sparse one by ``np.unique``.
    """
    combined = code_cols[0].astype(np.int64, copy=False)
    domain = radices[0]
    for codes, radix in zip(code_cols[1:], radices[1:]):
        if domain > _MAX_KEY_DOMAIN // max(radix, 1):
            uniques, combined = np.unique(combined, return_inverse=True)
            domain = len(uniques)
        combined = combined * radix + codes
        domain *= radix
    if _dense_range(domain, len(combined)):
        uniques, lut = _rank_lut(combined, domain)
        return lut[combined], len(uniques)
    uniques, group_idx = np.unique(combined, return_inverse=True)
    return group_idx, len(uniques)


def _int_valued(values: np.ndarray, nulls: np.ndarray) -> bool:
    """Whether every non-null entry of a decoded column is a Python int.

    Used only for computed aggregate arguments — plain column references
    answer this from the schema type without touching the rows.
    """
    if nulls.all():
        return True
    sample = (values[~nulls] if nulls.any() else values).tolist()
    try:
        probe = np.array(sample)
    except (ValueError, TypeError):
        return False
    if probe.dtype.kind == "i":
        return True
    if probe.dtype.kind == "O":  # mixed or beyond int64 — inspect
        return all(type(v) is int for v in sample)
    return False


def _exact_int_group_sums(
    values: np.ndarray,
    nulls: np.ndarray,
    group_idx: np.ndarray,
    n_groups: int,
) -> np.ndarray:
    """Per-group sums of integer values, exact at any magnitude.

    Under a worst-case magnitude bound (``n * max|v|`` must fit int64) the
    non-null values are scatter-added in int64 (``np.add.at``: no partial
    sum can wrap, so the order of the adds cannot matter).  Anything bigger
    is grouped with a stable sort and reduced per segment in object dtype,
    i.e. Python's arbitrary-precision ints.  Returns int64 sums, or an
    object array of Python ints when they might not fit.
    """
    mask = ~nulls
    gi = group_idx[mask] if nulls.any() else group_idx
    if gi.size == 0:
        return np.zeros(n_groups, dtype=np.int64)
    vals = values[mask] if nulls.any() else values
    try:
        v64 = vals.astype(np.int64)
    except (OverflowError, TypeError, ValueError):
        v64 = None
    if v64 is not None:
        peak = int(np.abs(v64).max()) if v64.size else 0
        if 0 <= peak <= 1 or (peak > 1 and gi.size <= _MAX_KEY_DOMAIN // peak):
            sums = np.zeros(n_groups, dtype=np.int64)
            np.add.at(sums, gi, v64)
            return sums
    order = np.argsort(gi, kind="stable")
    counts = np.bincount(gi, minlength=n_groups)
    present = counts > 0
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    segments = np.add.reduceat(vals[order], starts[present])
    sums = np.zeros(n_groups, dtype=segments.dtype)
    sums[present] = segments
    return sums


def _aggregate_vectorized(
    grouped: GroupedAggregates,
    provider: JoinedProvider,
    group_by: Sequence[Col],
    specs: Sequence[AggregateSpec],
    sign: int,
    n: int,
) -> None:
    from .aggregates import AggFunc

    # ------------------------------------------------------------- grouping
    if group_by:
        code_cols = []
        fragments = []
        radices = []
        for col in group_by:
            codes, fragment = provider.codes(col.alias, col.name)
            code_cols.append(codes + 1)  # shift NULL (-1) into slot 0
            fragments.append(fragment)
            radices.append(len(fragment.dictionary) + 1)
        group_idx, n_groups = _fold_group_codes(code_cols, radices)
        # Decode keys from one representative row per group (its first
        # row), one LUT gather per column.  The row loop inserts groups in
        # first-appearance scan order and finalize() preserves insertion
        # order, so renumber the fold-order group ids to match — bit-identity
        # covers row order too.  Marking each group's first row and reading
        # the marks in row order yields that order without a sort.
        first = np.full(n_groups, n, dtype=np.int64)
        np.minimum.at(first, group_idx, np.arange(n, dtype=np.int64))
        marked = np.zeros(n, dtype=bool)
        marked[first] = True
        first_rows = np.flatnonzero(marked)
        remap = np.empty(n_groups, dtype=np.int64)
        remap[group_idx[first_rows]] = np.arange(n_groups, dtype=np.int64)
        group_idx = remap[group_idx]
        key_cols = [
            fragment.decode_codes(codes[first_rows] - 1)
            for fragment, codes in zip(fragments, code_cols)
        ]
        keys = list(zip(*(col.tolist() for col in key_cols)))
    else:
        group_idx = np.zeros(n, dtype=np.int64)
        n_groups = 1
        keys = [()]
    count_star = np.bincount(group_idx, minlength=n_groups)
    # ----------------------------------------------------------- reductions
    # One array per state component, in the grouped state's layout order.
    components: List[np.ndarray] = [count_star]
    for spec in specs:
        if spec.is_count_star:
            continue
        arg = spec.arg
        values: Optional[np.ndarray] = None
        int_typed: Optional[bool] = None
        if isinstance(arg, Col) and arg.alias is not None:
            # Code-level NULL test and typed-exactness answer — no decode
            # needed for COUNT, one LUT gather for SUM/AVG.
            codes, fragment = provider.codes(arg.alias, arg.name)
            nulls = codes == NULL_CODE
            schema = provider.partitions[arg.alias].schema
            if schema.has_column(arg.name):
                int_typed = schema.column(arg.name).sql_type is SqlType.INT
            if spec.func is not AggFunc.COUNT:
                values = fragment.decode_codes(codes)
        else:
            values = arg.evaluate(provider)
            nulls = _null_mask(values)
        nonnull = np.bincount(
            group_idx[~nulls] if nulls.any() else group_idx, minlength=n_groups
        )
        if spec.func is AggFunc.COUNT:
            components.append(nonnull)
            continue
        if int_typed is None:
            int_typed = _int_valued(values, nulls)
        if int_typed:
            sums = _exact_int_group_sums(values, nulls, group_idx, n_groups)
        else:
            safe = values.copy()
            safe[nulls] = 0.0
            # bincount's in-order accumulation is bit-identical to the row
            # loop's sequential adds into a fresh state.
            sums = np.bincount(
                group_idx, weights=safe.astype(np.float64), minlength=n_groups
            )
        components += (sums, nonnull)
    grouped.fold(keys, components, sign=sign)
