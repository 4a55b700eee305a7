"""Unit tests for physical operators: providers, hash joins, aggregation."""

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.query import AggFunc, AggregateSpec, Col, GroupedAggregates
from repro.query import operators
from repro.query.operators import (
    KERNEL_ROWLOOP,
    KERNEL_VECTORIZED,
    JoinedProvider,
    PartitionProvider,
    aggregate_into,
    build_hash_table,
    join_kernel,
    kernel_override,
    probe_hash_join,
)
from repro.storage import ColumnDef, Partition, Schema, SqlType
from repro.storage import dictionary as dictionary_module
from repro.storage.dictionary import MainDictionary

BOTH_KERNELS = pytest.mark.parametrize("kernel", [KERNEL_VECTORIZED, KERNEL_ROWLOOP])


def make_partition(name, columns, rows):
    schema = Schema([ColumnDef(n, t) for n, t in columns])
    part = Partition(name, "delta", schema)
    part.append(schema.validate_columns(rows), [1] * len(rows))
    return part


@pytest.fixture
def header_part():
    return make_partition(
        "hdelta",
        [("hid", SqlType.INT), ("year", SqlType.INT)],
        [{"hid": 1, "year": 2013}, {"hid": 2, "year": 2014}, {"hid": 3, "year": 2013}],
    )


@pytest.fixture
def item_part():
    return make_partition(
        "idelta",
        [("iid", SqlType.INT), ("hid", SqlType.INT), ("price", SqlType.FLOAT)],
        [
            {"iid": 10, "hid": 1, "price": 5.0},
            {"iid": 11, "hid": 1, "price": 6.0},
            {"iid": 12, "hid": 2, "price": 7.0},
            {"iid": 13, "hid": None, "price": 8.0},
        ],
    )


class TestProviders:
    def test_partition_provider_alias_check(self, header_part):
        provider = PartitionProvider("h", header_part, np.array([0, 2]))
        assert provider.get("h", "year").tolist() == [2013, 2013]
        assert provider.get(None, "year").tolist() == [2013, 2013]
        with pytest.raises(QueryError):
            provider.get("other", "year")

    def test_joined_provider_alignment(self, header_part, item_part):
        with pytest.raises(QueryError):
            JoinedProvider(
                {"h": header_part, "i": item_part},
                {"h": np.array([0]), "i": np.array([0, 1])},
            )

    def test_joined_provider_unqualified_resolution(self, header_part, item_part):
        provider = JoinedProvider(
            {"h": header_part, "i": item_part},
            {"h": np.array([0]), "i": np.array([0])},
        )
        assert provider.get(None, "price").tolist() == [5.0]
        with pytest.raises(QueryError):
            provider.get(None, "hid")  # ambiguous: both tables have it
        with pytest.raises(QueryError):
            provider.get(None, "missing")

    def test_select(self, header_part):
        provider = JoinedProvider({"h": header_part}, {"h": np.array([0, 1, 2])})
        narrowed = provider.select(np.array([True, False, True]))
        assert narrowed.row_count() == 2
        assert narrowed.indices["h"].tolist() == [0, 2]

    def test_codes_access(self, item_part):
        provider = JoinedProvider({"i": item_part}, {"i": np.array([0, 3])})
        codes, fragment = provider.codes("i", "hid")
        assert codes.tolist() == [0, -1]  # NULL encodes as -1
        assert fragment.dictionary.decode(0) == 1


class TestHashJoin:
    @BOTH_KERNELS
    def test_build_skips_null_keys(self, item_part, kernel):
        table = build_hash_table(item_part, np.arange(4), ["hid"], kernel)
        assert table.kernel == kernel
        assert len(table) == 2 and bool(table)
        grouped = table.as_dict()
        assert set(grouped) == {(1,), (2,)}
        assert grouped[(1,)] == [0, 1]

    @BOTH_KERNELS
    def test_empty_table_is_falsy(self, item_part, kernel):
        table = build_hash_table(item_part, np.array([3]), ["hid"], kernel)  # NULL key
        assert not table
        assert len(table) == 0
        assert table.as_dict() == {}

    @BOTH_KERNELS
    def test_probe_expands_matches(self, header_part, item_part, kernel):
        current = JoinedProvider({"h": header_part}, {"h": np.array([0, 1, 2])})
        table = build_hash_table(item_part, np.arange(4), ["hid"], kernel)
        joined = probe_hash_join(current, [("h", "hid")], "i", item_part, table)
        assert joined.row_count() == 3  # h1 matches twice, h2 once, h3 zero
        assert joined.indices["h"].tolist() == [0, 0, 1]
        assert joined.indices["i"].tolist() == [0, 1, 2]

    @BOTH_KERNELS
    def test_probe_null_keys_never_match(self, header_part, item_part, kernel):
        current = JoinedProvider({"i": item_part}, {"i": np.array([3])})
        table = build_hash_table(header_part, np.arange(3), ["hid"], kernel)
        joined = probe_hash_join(current, [("i", "hid")], "h", header_part, table)
        assert joined.row_count() == 0

    @BOTH_KERNELS
    def test_composite_key(self, kernel):
        left = make_partition(
            "l", [("a", SqlType.INT), ("b", SqlType.INT)],
            [{"a": 1, "b": 1}, {"a": 1, "b": 2}],
        )
        right = make_partition(
            "r", [("a", SqlType.INT), ("b", SqlType.INT)],
            [{"a": 1, "b": 2}, {"a": 1, "b": 3}],
        )
        current = JoinedProvider({"l": left}, {"l": np.arange(2)})
        table = build_hash_table(right, np.arange(2), ["a", "b"], kernel)
        joined = probe_hash_join(current, [("l", "a"), ("l", "b")], "r", right, table)
        assert joined.row_count() == 1
        assert joined.indices["l"].tolist() == [1]

    def test_kernel_selection_by_size(self):
        n = operators._SMALL_INPUT_ROWS
        assert join_kernel(n, n) == join_kernel(0, 1) == KERNEL_ROWLOOP
        assert join_kernel(n + 1, n) == join_kernel(n, n + 1) == KERNEL_VECTORIZED
        with kernel_override(KERNEL_VECTORIZED):
            assert join_kernel(1, 1) == KERNEL_VECTORIZED  # the override wins
        with kernel_override(KERNEL_ROWLOOP):
            assert join_kernel(n + 1, 10 * n) == KERNEL_ROWLOOP
        with pytest.raises(QueryError):
            with kernel_override("simd"):
                pass

    def test_main_delta_dictionary_bridging(self, header_part):
        """Probe codes are translated when build/probe dictionaries differ:
        a bulk-built main partition has sorted-rank codes, the probing delta
        has append-order codes, yet the join must agree with the row loop."""
        schema = Schema([ColumnDef("hid", SqlType.INT), ColumnDef("v", SqlType.INT)])
        rows = [
            {"hid": 3, "v": 30},
            {"hid": 1, "v": 10},
            {"hid": 2, "v": 20},
            {"hid": 1, "v": 11},
        ]
        columns = schema.validate_columns(rows)
        main = Partition.build_main("hmain", schema, columns, cts=[1] * 4, dts=[0] * 4)
        current = JoinedProvider({"h": header_part}, {"h": np.array([0, 1, 2])})
        results = {}
        for kernel in (KERNEL_VECTORIZED, KERNEL_ROWLOOP):
            table = build_hash_table(main, np.arange(4), ["hid"], kernel)
            joined = probe_hash_join(current, [("h", "hid")], "m", main, table)
            results[kernel] = {
                alias: idx.tolist() for alias, idx in joined.indices.items()
            }
        assert results[KERNEL_VECTORIZED] == results[KERNEL_ROWLOOP]
        # h.hid=1 matches main rows 1 and 3 (in build-row order), hid=2 row 2,
        # hid=3 row 0.
        assert results[KERNEL_VECTORIZED]["m"] == [1, 3, 2, 0]


def specs():
    return [
        AggregateSpec(AggFunc.SUM, Col("price", "i"), "s"),
        AggregateSpec(AggFunc.COUNT, None, "n"),
        AggregateSpec(AggFunc.AVG, Col("price", "i"), "a"),
    ]


class TestAggregationPaths:
    def test_small_input_uses_row_loop(self, item_part):
        provider = JoinedProvider({"i": item_part}, {"i": np.arange(4)})
        grouped = GroupedAggregates(specs())
        n = aggregate_into(grouped, provider, [Col("hid", "i")], specs())
        assert n == 4
        rows = {row[0]: row[1:] for row in grouped.finalize()}
        assert rows[1] == (11.0, 2, 5.5)
        assert rows[None] == (8.0, 1, 8.0)

    def test_empty_provider(self, item_part):
        provider = JoinedProvider({"i": item_part}, {"i": np.empty(0, dtype=np.int64)})
        grouped = GroupedAggregates(specs())
        assert aggregate_into(grouped, provider, [Col("hid", "i")], specs()) == 0


class TestExactnessRegressions:
    """Bugfix pins: these fail on the float64-bincount / raw mixed-radix
    implementations and must stay green on both kernels."""

    def _run_both(self, part, n_rows, group_by, sp):
        provider = JoinedProvider({"i": part}, {"i": np.arange(n_rows)})
        results = {}
        for kernel in (KERNEL_VECTORIZED, KERNEL_ROWLOOP):
            grouped = GroupedAggregates(sp)
            with kernel_override(kernel):
                aggregate_into(grouped, provider, group_by, sp)
            results[kernel] = sorted(grouped.finalize())
        return results

    def test_integer_sum_exact_beyond_2_53(self):
        """SUM/AVG of INT columns must not round through float64: one value
        at 2**53 plus 59 ones is exactly 2**53 + 59, which float64 cannot
        represent (spacing is 2 above 2**53)."""
        big = 2**53
        rows = [{"hid": 1, "val": big}] + [{"hid": 1, "val": 1}] * 59
        part = make_partition(
            "i", [("hid", SqlType.INT), ("val", SqlType.INT)], rows
        )
        sp = [
            AggregateSpec(AggFunc.SUM, Col("val", "i"), "s"),
            AggregateSpec(AggFunc.AVG, Col("val", "i"), "a"),
            AggregateSpec(AggFunc.COUNT, None, "n"),
        ]
        results = self._run_both(part, len(rows), [Col("hid", "i")], sp)
        assert results[KERNEL_VECTORIZED] == results[KERNEL_ROWLOOP]
        ((key, total, avg, count),) = results[KERNEL_VECTORIZED]
        assert key == 1 and count == 60
        assert type(total) is int and total == big + 59
        assert avg == (big + 59) / 60

    def test_integer_sum_exact_beyond_int64(self):
        """Sums past int64 range take the arbitrary-precision path."""
        big = 2**60 + 1
        rows = [{"hid": 1, "val": big}] * 60  # total = 60*(2**60+1) > 2**63
        part = make_partition(
            "i", [("hid", SqlType.INT), ("val", SqlType.INT)], rows
        )
        sp = [AggregateSpec(AggFunc.SUM, Col("val", "i"), "s")]
        results = self._run_both(part, len(rows), [Col("hid", "i")], sp)
        assert results[KERNEL_VECTORIZED] == results[KERNEL_ROWLOOP]
        ((_, total),) = results[KERNEL_VECTORIZED]
        assert type(total) is int and total == 60 * big

    def test_group_code_overflow_keeps_groups_distinct(self):
        """Nine group-by columns whose radix product is 3 * 256**8 > 2**64:
        the raw mixed-radix fold wraps int64 and merges (0, t, ..., t) with
        (1, t, ..., t); the overflow-safe fold must keep all 257 groups."""
        cols = [("a", SqlType.INT)] + [(f"c{j}", SqlType.INT) for j in range(8)]
        rows = [
            {"a": 0, **{f"c{j}": i for j in range(8)}} for i in range(255)
        ] + [
            {"a": 1, **{f"c{j}": t for j in range(8)}} for t in (0, 1)
        ]
        part = make_partition("i", cols, rows)
        group_by = [Col(name, "i") for name, _ in cols]
        sp = [AggregateSpec(AggFunc.COUNT, None, "n")]
        results = self._run_both(part, len(rows), group_by, sp)
        assert results[KERNEL_VECTORIZED] == results[KERNEL_ROWLOOP]
        out = results[KERNEL_VECTORIZED]
        assert len(out) == 257
        assert all(row[-1] == 1 for row in out)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(0, 4)),
            st.one_of(st.none(), st.floats(-50, 50, allow_nan=False)),
        ),
        min_size=1,
        max_size=120,
    )
)
def test_property_vectorized_equals_row_loop(rows):
    """The code-space vectorized aggregation must agree with the row loop
    regardless of size (the 48-row threshold picks the path)."""
    part = make_partition(
        "i",
        [("hid", SqlType.INT), ("price", SqlType.FLOAT)],
        [{"hid": h, "price": p} for h, p in rows],
    )
    provider = JoinedProvider({"i": part}, {"i": np.arange(len(rows))})

    vectorized = GroupedAggregates(specs())
    aggregate_into(vectorized, provider, [Col("hid", "i")], specs())

    original = operators._SMALL_INPUT_ROWS
    operators._SMALL_INPUT_ROWS = 10**9  # force the row loop
    try:
        looped = GroupedAggregates(specs())
        aggregate_into(looped, provider, [Col("hid", "i")], specs())
    finally:
        operators._SMALL_INPUT_ROWS = original

    left = {row[0]: row[1:] for row in vectorized.finalize()}
    right = {row[0]: row[1:] for row in looped.finalize()}
    assert set(left) == set(right)
    for key in left:
        for a, b in zip(left[key], right[key]):
            if a is None or b is None:
                assert a is None and b is None
            else:
                assert a == pytest.approx(b)


# ---------------------------------------------------------------------------
# main <-> main bridge: the int64 searchsorted path against the hash path
# ---------------------------------------------------------------------------

_INT64_EDGES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]

_int_value = st.one_of(
    st.integers(-40, 40),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from(_INT64_EDGES),
)


class _Fragment:
    """The two things the bridge reads of a column fragment."""

    def __init__(self, dictionary, codes=()):
        self.dictionary = dictionary
        self.codes = np.asarray(codes, dtype=np.int64)

    def codes_for(self, rows):
        return self.codes[rows]


class _Partition:
    def __init__(self, fragment):
        self.fragment = fragment

    def column(self, name):
        return self.fragment


def _hash_path():
    """Force every dictionary pair onto the per-value hash lookups."""
    return mock.patch.object(operators, "_int_pair", lambda probe, build: None)


def _search_path():
    """Let integer main dictionaries take ``searchsorted`` at every size."""
    return mock.patch.object(operators, "_SMALL_INPUT_ROWS", 0)


def _always_reduce():
    return mock.patch.multiple(
        operators, _SEMI_JOIN_ROW_SKEW=0, _SEMI_JOIN_KEY_SKEW=0
    )


@st.composite
def _int_dictionary_pair(draw):
    """Two sorted int main dictionaries drawn from one pool (so they
    overlap, or not: the pool may be split in two), possibly empty."""
    pool = draw(st.lists(_int_value, unique=True, max_size=40))
    probe = draw(st.lists(st.sampled_from(pool), unique=True) if pool else st.just([]))
    build = draw(st.lists(st.sampled_from(pool), unique=True) if pool else st.just([]))
    if draw(st.booleans()):  # disjoint
        build = [value for value in build if value not in set(probe)]
    return MainDictionary(probe), MainDictionary(build)


@st.composite
def _codes(draw, size):
    """Probe codes over a dictionary of ``size`` values (NULL included):
    dense (many rows per value) or sparse (few)."""
    length = draw(st.integers(0, 3 * size + 3))
    return np.array(
        draw(st.lists(st.integers(-1, size - 1), min_size=length, max_size=length)),
        dtype=np.int64,
    )


def _bridge(probe_dict, codes, build_dict):
    return operators._bridge_codes(
        _Fragment(probe_dict), codes, _Fragment(build_dict)
    )


def _reduce(key_dict, key_codes, dictionary, codes):
    key_part = _Partition(_Fragment(key_dict, key_codes))
    part = _Partition(_Fragment(dictionary, codes))
    rows = np.arange(len(codes), dtype=np.int64)
    with _always_reduce():
        return operators.semi_join_reduce(
            key_part, np.arange(len(key_codes), dtype=np.int64), "k", part, rows, "k"
        )


class TestMainBridgeParity:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_int_bridge_equals_hash_path(self, data):
        probe, build = data.draw(_int_dictionary_pair())
        assert probe.int_values() is not None and build.int_values() is not None
        codes = data.draw(_codes(len(probe)))
        with _search_path():
            searched = _bridge(probe, codes, build)
        with _hash_path():
            hashed = _bridge(probe, codes, build)
        assert searched.dtype == hashed.dtype == np.int64
        np.testing.assert_array_equal(searched, hashed)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_int_semi_join_equals_hash_path(self, data):
        keys, values = data.draw(_int_dictionary_pair())
        key_codes = data.draw(_codes(len(keys)))
        codes = data.draw(_codes(len(values)))
        with _search_path():
            searched = _reduce(keys, key_codes, values, codes)
        with _hash_path():
            hashed = _reduce(keys, key_codes, values, codes)
        np.testing.assert_array_equal(searched, hashed)

    @pytest.mark.parametrize("codes", [[-1], [-1, 9], [9, -1, -1]])
    def test_sparse_null_probe_never_matches(self, codes):
        """A sparse probe translates only the codes it carries; NULL is
        not one of them (its -1 would index the last value)."""
        probe, build = MainDictionary(range(10)), MainDictionary([9])
        codes = np.array(codes, dtype=np.int64)
        expected = [0 if code == 9 else -2 for code in codes.tolist()]
        with _search_path():
            assert _bridge(probe, codes, build).tolist() == expected
        with _hash_path():
            assert _bridge(probe, codes, build).tolist() == expected

    @pytest.mark.parametrize(
        "probe_values, build_values",
        [
            ([1, 2**63, 5], [1, 5, 7]),  # beyond int64
            ([1, 5, 7], [-(2**63) - 1, 1, 7]),
            ([False, True], [0, 1, 2]),  # bool against int
            ([0, 1, 2], [False, True]),
            ([1, 2, 3], [1.0, 2.5, 3.0]),  # int against float
            ([1.0, 2.0], [1, 2, 3]),
        ],
    )
    def test_fallbacks_take_the_hash_path(self, probe_values, build_values):
        probe, build = MainDictionary(probe_values), MainDictionary(build_values)
        assert operators._int_pair(probe, build) is None
        codes = np.array([-1, *range(len(probe)), *range(len(probe))], dtype=np.int64)
        expected = [
            -2 if code < 0 else build.lookup(probe.decode(code))
            for code in codes.tolist()
        ]
        expected = [-2 if code is None else code for code in expected]
        key_codes = np.arange(len(probe), dtype=np.int64)
        build_codes = np.arange(-1, len(build), dtype=np.int64)
        with _search_path():
            assert _bridge(probe, codes, build).tolist() == expected
            kept = _reduce(probe, key_codes, build, build_codes)
        matched = {code for code in expected if code >= 0}
        assert kept.tolist() == [
            row for row, code in enumerate(build_codes.tolist()) if code in matched
        ]

    def test_few_values_take_the_hash_path(self):
        """At most ``_SMALL_INPUT_ROWS`` values to translate: the hash path,
        and no int64 array is built for them."""
        probe, build = MainDictionary(range(1000)), MainDictionary(range(0, 2000, 2))
        few = np.arange(0, 2 * operators._SMALL_INPUT_ROWS, 2, dtype=np.int64)
        assert _bridge(probe, few, build).tolist() == (few // 2).tolist()
        assert probe._int_values is dictionary_module._UNSET
        many = np.arange(0, 1000, 2, dtype=np.int64)
        assert _bridge(probe, many, build).tolist() == (many // 2).tolist()
        assert probe._int_values is not dictionary_module._UNSET

    def test_int_values_are_cached_and_typed(self):
        dictionary = MainDictionary([3, -(2**63), 2**63 - 1])
        ints = dictionary.int_values()
        assert ints.dtype == np.int64
        assert ints.tolist() == [-(2**63), 3, 2**63 - 1]
        assert dictionary.int_values() is ints
        assert MainDictionary(["a"]).int_values() is None
        assert MainDictionary().int_values().tolist() == []


# ---------------------------------------------------------------------------
# code-space kernels: the dense-array paths against the sort paths
# ---------------------------------------------------------------------------


class _Columns:
    """A partition of named fragments: ``name -> (dictionary size, codes)``."""

    def __init__(self, columns):
        self.fragments = {
            name: _Fragment(range(size), codes) for name, (size, codes) in columns.items()
        }

    def column(self, name):
        return self.fragments[name]


def _dense_paths():
    """Every code range dense (up to ``_DENSE_MAP_LIMIT``)."""
    return mock.patch.object(operators, "_DENSE_ROWS_FACTOR", 1 << 40)


def _sort_paths():
    """Every code range sparse."""
    return mock.patch.object(operators, "_DENSE_ROWS_FACTOR", 0)


#: Each kernel path, plus the size rule picking per column and per domain.
_PATHS = {"dense": _dense_paths, "sort": _sort_paths, "rule": contextlib.nullcontext}


def _compacting(on):
    """A tiny ``_MAX_KEY_DOMAIN``: every fold after the first re-compacts."""
    return mock.patch.object(operators, "_MAX_KEY_DOMAIN", 4) if on else contextlib.nullcontext()


@st.composite
def _join_case(draw, unique=None):
    """Build and probe code columns over one to three key columns whose
    dictionaries lie on both sides of the dense bound, with unique or
    duplicate build keys (``unique`` forces key-unique builds), NULL build
    keys and NULL / absent probe codes."""
    n_cols = draw(st.integers(1, 3))
    n_build = draw(st.integers(1, 60))
    sizes = [
        draw(st.one_of(st.integers(1, 4), st.integers(1, 12 * n_build)))
        for _ in range(n_cols)
    ]
    build = [
        draw(st.lists(st.integers(-1, size - 1), min_size=n_build, max_size=n_build))
        for size in sizes
    ]
    if unique or (unique is None and draw(st.booleans())):
        # key-unique: keep the first row of each key
        seen = set()
        keep = [
            i for i, key in enumerate(zip(*build))
            if not (key in seen or seen.add(key))
        ]
        build = [[col[i] for i in keep] for col in build]
    n_probe = draw(st.integers(0, 80))
    probe = [
        draw(
            st.lists(
                st.one_of(st.sampled_from(col) if col else st.just(-1), st.integers(-2, size - 1)),
                min_size=n_probe,
                max_size=n_probe,
            )
        )
        for col, size in zip(build, sizes)
    ]
    return sizes, build, probe


def _join(sizes, build, probe):
    """The build's grouped arrays and the probe's ``(positions, matched)``,
    probe codes reaching the key space as drawn (no bridge)."""
    names = [f"k{i}" for i in range(len(sizes))]
    build_part = _Columns({n: (s, c) for n, s, c in zip(names, sizes, build)})
    probe_part = _Columns({n: (s, c) for n, s, c in zip(names, sizes, probe)})
    table = operators._CodeSpaceHashTable(
        build_part, np.arange(len(build[0]), dtype=np.int64), names
    )
    current = JoinedProvider({"p": probe_part}, {"p": np.arange(len(probe[0]), dtype=np.int64)})
    with mock.patch.object(operators, "_bridge_codes", lambda probe, codes, build: codes):
        positions, matched = table.probe(current, [("p", n) for n in names])
    grouped = [table.unique_keys, table.group_rows, table.starts, table.counts]
    return [a.tolist() for a in grouped], positions.tolist(), matched.tolist()


class TestDenseKernelParity:
    @settings(max_examples=300, deadline=None)
    @given(_join_case(), st.booleans())
    def test_hash_table_paths_agree(self, case, compact):
        results = {}
        for name, path in _PATHS.items():
            with path(), _compacting(compact):
                results[name] = _join(*case)
        assert results["dense"] == results["sort"] == results["rule"]
        # The probe against a reference: every (probe, build) pair of equal,
        # NULL-free keys, ascending probe position, build order within a key.
        sizes, build, probe = case
        build_keys = list(zip(*build))
        expected = [
            (p, b)
            for p, key in enumerate(zip(*probe))
            for b, other in enumerate(build_keys)
            if key == other and min(key) >= 0
        ]
        _, positions, matched = results["rule"]
        assert list(zip(positions, matched)) == expected

    @settings(max_examples=200, deadline=None)
    @given(_join_case(unique=True), st.booleans(), st.sampled_from(sorted(_PATHS)))
    def test_key_unique_shortcuts_match_the_general_path(self, case, compact, path):
        """A key-unique build's scatter layout and one-gather probe equal
        the stable-sort layout and the repeat expansion on the same input."""
        sizes, build, probe = case
        names = [f"k{i}" for i in range(len(sizes))]
        with _PATHS[path](), _compacting(compact):
            table = operators._CodeSpaceHashTable(
                _Columns({n: (s, c) for n, s, c in zip(names, sizes, build)}),
                np.arange(len(build[0]), dtype=np.int64),
                names,
            )
            if not table:
                return
            assert len(table.group_rows) == len(table)
            # Each NULL-free build row's group id, read back through the table.
            rows = np.flatnonzero(np.min(np.array(build), axis=0) >= 0)
            own = [np.array(col)[rows] for col in build]
            group_idx = table._lookup_groups(*table.key_space.probe(own))
            layout = operators._csr_layout(rows, group_idx, len(table))
            assert [a.tolist() for a in layout] == [
                table.group_rows.tolist(), table.starts.tolist(), table.counts.tolist()
            ]
            probed = [np.array(col, dtype=np.int64) for col in probe]
            groups = table._lookup_groups(*table.key_space.probe(probed))
            general = operators._expand_matches(
                groups, table.group_rows, table.starts, table.counts
            )
            _, positions, matched = _join(sizes, build, probe)
        assert (positions, matched) == tuple(a.tolist() for a in general)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.booleans())
    def test_fold_group_codes_paths_agree(self, data, compact):
        n = data.draw(st.integers(1, 120))
        radices = data.draw(
            st.lists(st.one_of(st.integers(1, 4), st.integers(1, 8 * n)), min_size=1, max_size=3)
        )
        code_cols = [
            np.array(
                data.draw(st.lists(st.integers(0, radix - 1), min_size=n, max_size=n)),
                dtype=np.int64,
            )
            for radix in radices
        ]
        results = {}
        for name, path in _PATHS.items():
            with path(), _compacting(compact):
                group_idx, n_groups = operators._fold_group_codes(code_cols, radices)
                results[name] = (group_idx.tolist(), n_groups)
        assert results["dense"] == results["sort"] == results["rule"]
        keys = list(zip(*(col.tolist() for col in code_cols)))
        ordered = sorted(set(keys))
        assert results["rule"] == ([ordered.index(key) for key in keys], len(ordered))

    def test_dense_map_is_bounded_by_the_build(self):
        """64 unique build rows over three 64-value key columns fold into a
        262,144-key domain: no array over that domain may be allocated."""
        rng = np.random.default_rng(7)
        names = ["a", "b", "c"]
        build = _Columns({n: (64, rng.permutation(64)) for n in names})
        rows = np.arange(64, dtype=np.int64)
        tracemalloc.start()
        try:
            table = operators._CodeSpaceHashTable(build, rows, names)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 ** 3  # an eighth of one int64 map over the domain
        assert table.key_space.domain == 64 ** 3
        bound = operators._DENSE_ROWS_FACTOR * 64
        assert table.dense is None or len(table.dense) <= bound
        current = JoinedProvider({"p": build}, {"p": rows[::-1].copy()})
        positions, matched = table.probe(current, [("p", n) for n in names])
        assert positions.tolist() == list(range(64))
        assert matched.tolist() == list(range(63, -1, -1))
        assert table.dense is None  # 128 build and probe rows: still sparse
