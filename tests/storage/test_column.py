"""Unit tests for dictionary-encoded column fragments."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage import ColumnFragment, MainDictionary


class TestDeltaFragment:
    def test_append_and_read(self):
        frag = ColumnFragment("city")
        frag.extend(["rome", "oslo", "rome", None])
        assert len(frag) == 4
        assert frag.value_at(0) == "rome"
        assert frag.value_at(3) is None
        assert frag.codes().tolist() == [0, 1, 0, -1]

    def test_decode_rows(self):
        frag = ColumnFragment("n")
        frag.extend([10, 20, 30])
        out = frag.decode_rows(np.array([2, 0]))
        assert out.tolist() == [30, 10]

    def test_decode_rows_with_nulls(self):
        frag = ColumnFragment("n")
        frag.extend([None, 5])
        assert frag.decode_rows([0, 1]).tolist() == [None, 5]

    def test_decode_all(self):
        frag = ColumnFragment("n")
        frag.extend([1, None, 1])
        assert frag.decode_codes(frag.codes()).tolist() == [1, None, 1]

    def test_equality_mask(self):
        frag = ColumnFragment("k")
        frag.extend(["a", "b", "a", None])
        assert frag.equality_mask("a").tolist() == [True, False, True, False]
        assert frag.equality_mask("zzz").tolist() == [False] * 4
        assert frag.equality_mask(None).tolist() == [False] * 4

    def test_min_max_through_dictionary(self):
        frag = ColumnFragment("t")
        assert frag.min_value() is None
        frag.extend([7, 3, 9])
        assert frag.min_value() == 3
        assert frag.max_value() == 9


class TestMainFragment:
    def test_build_main_sorted_dictionary(self):
        frag = ColumnFragment.build_main("c", ["b", "a", "b", None])
        assert len(frag) == 4
        assert frag.decode_codes(frag.codes()).tolist() == ["b", "a", "b", None]
        # codes are sorted ranks
        assert frag.codes().tolist() == [1, 0, 1, -1]

    def test_main_is_append_immutable(self):
        frag = ColumnFragment.build_main("c", [1])
        with pytest.raises(TypeError):
            frag.extend([2])

    def test_build_main_empty(self):
        frag = ColumnFragment.build_main("c", [])
        assert len(frag) == 0
        assert frag.min_value() is None


    def test_build_main_encodes_equal_values_of_different_type_alike(self):
        frag = ColumnFragment.build_main("c", [1.0, None, 1, 0.5, True])
        assert frag.dictionary.values() == [0.5, 1.0]
        assert type(frag.dictionary.values()[1]) is float  # first seen wins
        assert frag.codes().tolist() == [1, -1, 1, 0, 1]

    def test_from_codes_adopts_dictionary_and_codes(self):
        dictionary = MainDictionary(["b", "a"])
        codes = np.array([1, -1, 0], dtype=np.int64)
        frag = ColumnFragment.from_codes("c", dictionary, codes)
        assert frag.dictionary is dictionary
        assert np.shares_memory(frag.codes(), codes)
        assert frag.decode_codes(frag.codes()).tolist() == ["b", None, "a"]


class TestMemory:
    def test_nbytes_packs_codes(self):
        frag = ColumnFragment("c")
        frag.extend([i % 2 for i in range(100)])  # 2 distinct values -> 2 bits per code
        small = frag.nbytes()
        frag2 = ColumnFragment("c")
        frag2.extend(list(range(100)))  # 100 distinct -> 7 bits per code + larger dict
        assert frag2.nbytes() > small


@given(st.lists(st.one_of(st.none(), st.integers(-50, 50))))
def test_property_roundtrip_delta(values):
    frag = ColumnFragment("v")
    half = len(values) // 2
    frag.extend(values[:half])  # two batches: the second meets known values
    frag.extend(values[half:])
    assert frag.decode_codes(frag.codes()).tolist() == values


@given(st.lists(st.one_of(st.none(), st.text(max_size=5))))
def test_property_roundtrip_main(values):
    frag = ColumnFragment.build_main("v", values)
    assert frag.decode_codes(frag.codes()).tolist() == values
