"""Unit tests for delta and main dictionaries."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage import DeltaDictionary, MainDictionary, NULL_CODE


class TestDeltaDictionary:
    def test_encode_assigns_first_seen_order(self):
        d = DeltaDictionary()
        assert d.encode("b") == 0
        assert d.encode("a") == 1
        assert d.encode("b") == 0
        assert len(d) == 2
        assert d.values() == ["b", "a"]

    def test_null_encodes_to_null_code(self):
        d = DeltaDictionary()
        assert d.encode(None) == NULL_CODE
        assert len(d) == 0

    def test_lookup(self):
        d = DeltaDictionary()
        d.encode(42)
        assert d.lookup(42) == 0
        assert d.lookup(43) is None
        assert d.lookup(None) is None

    def test_decode(self):
        d = DeltaDictionary()
        d.encode("x")
        assert d.decode(0) == "x"
        assert d.decode(NULL_CODE) is None

    def test_contains(self):
        d = DeltaDictionary()
        d.encode(1)
        assert 1 in d
        assert 2 not in d

    def test_min_max(self):
        d = DeltaDictionary()
        assert d.min_value() is None
        assert d.max_value() is None
        d.encode(5)
        d.encode(2)
        d.encode(9)
        assert d.min_value() == 2
        assert d.max_value() == 9

    def test_int_values_grow_with_the_dictionary(self):
        d = DeltaDictionary()
        assert d.int_values().tolist() == []
        for value in (7, -3, 7, 12):
            d.encode(value)
        first = d.int_values()
        assert first.dtype == np.int64 and first.tolist() == [7, -3, 12]
        assert d.int_values() is first  # cached until the dictionary grows
        d.encode(1 << 40)
        assert d.int_values().tolist() == [7, -3, 12, 1 << 40]
        assert type(d.min_value()) is int and d.min_value() == -3
        assert type(d.max_value()) is int and d.max_value() == 1 << 40

    @pytest.mark.parametrize("odd", ["x", 2.5, True, 1 << 63, -(1 << 63) - 1])
    def test_int_values_refused_once_a_value_is_not_an_int64(self, odd):
        d = DeltaDictionary()
        d.encode(3)
        assert d.int_values() is not None
        d.encode(odd)
        assert d.int_values() is None
        d.encode(4)
        assert d.int_values() is None


INT64 = st.integers(-(2**63), 2**63 - 1)


class TestGrowthInPlace:
    """``int_values()``, ``decode_table()`` and the running bounds grow with
    the dictionary; at every step they equal a rebuild from scratch."""

    @given(st.lists(st.lists(st.one_of(INT64, st.sampled_from(
        [0, -1, 1, 2**63 - 1, -(2**63)]
    )), max_size=20), max_size=12))
    def test_interleaved_appends_and_reads_equal_a_rebuild(self, batches):
        d = DeltaDictionary()
        values = []
        for batch in batches:
            d.encode_many(batch)
            values += [v for v in dict.fromkeys(batch) if v not in values]
            ints, table = d.int_values(), d.decode_table()
            assert ints.dtype == np.int64 and ints.tolist() == values
            assert table.tolist() == values + [None]
            assert table[NULL_CODE] is None
            if values:
                assert (d.min_value(), d.max_value()) == (min(values), max(values))
                assert type(d.min_value()) is int and type(d.max_value()) is int
            else:
                assert d.min_value() is None and d.max_value() is None

    def test_null_code_decodes_to_none_after_every_growth(self):
        d = DeltaDictionary()
        for value in range(100):
            d.encode(value * 3 - 50)
            table = d.decode_table()
            assert table[NULL_CODE] is None and len(table) == value + 2
            assert table[np.array([NULL_CODE, value])].tolist() == [None, value * 3 - 50]

    def test_a_late_non_int_value_turns_int_values_off_for_good(self):
        d = DeltaDictionary()
        for value in (5, -7, 2**62):
            d.encode(value)
        assert d.int_values().tolist() == [5, -7, 2**62]
        assert (d.min_value(), d.max_value()) == (-7, 2**62)
        d.encode(-7.5)
        assert d.int_values() is None
        assert (d.min_value(), d.max_value()) == (-7.5, 2**62)
        d.encode(2**63)  # past int64: still Python's own comparisons
        d.encode(3)
        assert d.int_values() is None
        assert (d.min_value(), d.max_value()) == (-7.5, 2**63)
        assert d.decode_table().tolist() == [5, -7, 2**62, -7.5, 2**63, 3, None]

    def test_text_bounds_fold_like_min_and_max(self):
        d = DeltaDictionary()
        seen = []
        for word in ("pear", "apple", "fig", "zucchini", "banana"):
            d.encode(word)
            seen.append(word)
            assert (d.min_value(), d.max_value()) == (min(seen), max(seen))


class TestMainDictionary:
    def test_sorted_codes(self):
        d = MainDictionary(["pear", "apple", "pear", "fig"])
        assert d.values() == ["apple", "fig", "pear"]
        assert d.lookup("apple") == 0
        assert d.lookup("pear") == 2

    def test_nulls_excluded(self):
        d = MainDictionary([None, 1, None])
        assert len(d) == 1
        assert d.lookup(None) is None

    def test_min_max_constant_time_ends(self):
        d = MainDictionary([5, 1, 3])
        assert d.min_value() == 1
        assert d.max_value() == 5

    def test_empty(self):
        d = MainDictionary()
        assert len(d) == 0
        assert d.min_value() is None
        assert d.max_value() is None

    def test_encode_codes_each_value(self):
        d, codes = MainDictionary.encode(np.array([3, 1, 2, 1], dtype=np.int64))
        assert d.values() == [1, 2, 3]
        assert codes.tolist() == [2, 0, 1, 0]
        assert d.int_values() is not None and d.int_values().tolist() == [1, 2, 3]
        assert d.lookup(2) == 1
        assert d.decode(0) == 1

    def test_nan_sorts_last_as_one_value(self):
        first, second = float("nan"), float("nan")
        values = np.array([2.0, first, -1.0, second, 2.0], dtype=object)
        d, codes = MainDictionary.encode(values)
        assert len(d) == 3 and d.values()[:2] == [-1.0, 2.0] and d.values()[2] is first
        assert codes.tolist() == [1, 2, 0, 2, 1]

    @given(st.lists(st.one_of(
        st.none(), st.integers(-2, 2), st.sampled_from([0.0, -0.0, 1.0, 2.5, True, False])
    )))
    def test_property_first_of_equal_values_is_kept(self, values):
        """As ``sorted(dict.fromkeys(...))``: ``1`` / ``1.0`` / ``True`` and
        ``0.0`` / ``-0.0`` are one value, the first seen represents it."""
        want = sorted(dict.fromkeys(v for v in values if v is not None))
        assert list(map(repr, MainDictionary(values).values())) == list(map(repr, want))

    def test_decode_null(self):
        d = MainDictionary([1])
        assert d.decode(NULL_CODE) is None

    @given(st.lists(st.integers()))
    def test_property_codes_are_ranks(self, values):
        d = MainDictionary(values)
        decoded = [d.decode(i) for i in range(len(d))]
        assert decoded == sorted(set(values))
        for value in set(values):
            assert d.decode(d.lookup(value)) == value


class TestMemoryEstimates:
    def test_nbytes_grows_with_values(self):
        d = DeltaDictionary()
        assert d.nbytes() == 0
        d.encode("hello")
        assert d.nbytes() == 5
        d.encode(7)
        assert d.nbytes() == 13

    def test_main_nbytes(self):
        assert MainDictionary(["ab", "c"]).nbytes() == 3


INT64_EDGES = [-(1 << 63), -(1 << 62), -3, 0, 1, 255, 256, 65_536, (1 << 62), (1 << 63) - 1]


class TestInt64MainKeepsOnlyItsArray:
    """An int64 main dictionary built by the merge's sort keeps no value
    list, only a ``memoryview`` of its array; every answer it gives equals
    the answer of the same values held as a list (a dictionary built from
    Python objects), Python ints included."""

    @given(st.lists(st.sampled_from(INT64_EDGES) | st.integers(-1000, 1000), max_size=40))
    def test_array_answers_equal_list_answers(self, values):
        array_only, _codes = MainDictionary.encode(np.array(values, dtype=np.int64))
        listed = MainDictionary(values)
        assert type(array_only._values) is memoryview and type(listed._values) is list
        assert len(array_only) == len(listed)
        assert array_only.values() == listed.values()
        assert array_only.min_value() == listed.min_value()
        assert array_only.max_value() == listed.max_value()
        assert array_only.nbytes() == listed.nbytes() == _loop_nbytes(listed.values())
        table = array_only.decode_table()
        assert table.tolist() == listed.decode_table().tolist()
        for code in range(len(listed)):
            assert type(array_only.decode(code)) is int is type(table[code])
            assert array_only.decode(code) == listed.decode(code)
        probes = [*INT64_EDGES, 1 << 63, -(1 << 63) - 1, 2**70, -7, 999, 1.0, 0.5, True]
        find_array, find_list = array_only.finder(), listed.finder()
        for probe in probes + ["1", None]:
            assert find_array(probe) == find_list(probe), probe
        for probe in probes:
            for right in (False, True):
                assert array_only.rank(probe, right) == listed.rank(probe, right), probe


def _loop_nbytes(values):
    """The delta-encoded size of sorted distinct ints, one gap at a time."""
    if not values:
        return 0
    return 8 + sum(max(1, ((b - a).bit_length() + 7) // 8) for a, b in zip(values, values[1:]))
