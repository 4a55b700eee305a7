"""Unit tests for the packed visibility bit vector."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage import BitVector


class TestConstruction:
    def test_empty(self):
        bv = BitVector(0)
        assert len(bv) == 0
        assert bv.pop_count() == 0
        assert not bv.any()

    def test_zero_filled(self):
        bv = BitVector(100)
        assert len(bv) == 100
        assert bv.pop_count() == 0

    def test_one_filled(self):
        bv = BitVector(100, fill=True)
        assert bv.pop_count() == 100
        assert bv.all()

    def test_fill_exact_word_boundary(self):
        bv = BitVector(128, fill=True)
        assert bv.pop_count() == 128

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            BitVector(-1)

    def test_from_bools(self):
        bv = BitVector.from_bools([True, False, True, True])
        assert len(bv) == 4
        assert bv.get(0) and not bv.get(1) and bv.get(2) and bv.get(3)

    def test_from_indices(self):
        bv = BitVector.from_indices(10, [0, 5, 9])
        assert bv.set_indices() == [0, 5, 9]

    def test_from_numpy_bool(self):
        mask = np.array([False, True, False])
        bv = BitVector.from_numpy_bool(mask)
        assert bv.set_indices() == [1]


class TestBitAccess:
    def test_set_get_clear(self):
        bv = BitVector(70)
        bv.set(0)
        bv.set(63)
        bv.set(64)
        bv.set(69)
        assert bv.pop_count() == 4
        bv.clear(63)
        assert not bv.get(63)
        assert bv.pop_count() == 3

    def test_out_of_range(self):
        bv = BitVector(8)
        with pytest.raises(IndexError):
            bv.get(8)
        with pytest.raises(IndexError):
            bv.set(-1)

    def test_get_many_matches_get_across_word_boundaries(self):
        bv = BitVector.from_indices(200, [0, 63, 64, 130, 199])
        probes = np.array([199, 0, 1, 63, 64, 65, 130, 0])
        assert bv.get_many(probes).tolist() == [bv.get(int(i)) for i in probes]
        assert bv.get_many(np.empty(0, dtype=np.int64)).tolist() == []
        with pytest.raises(IndexError):
            bv.get_many(np.array([3, 200]))

    def test_getitem_alias(self):
        bv = BitVector.from_bools([True, False])
        assert bv[0] is True
        assert bv[1] is False


class TestAlgebra:
    def test_and_or_xor(self):
        a = BitVector.from_bools([1, 1, 0, 0])
        b = BitVector.from_bools([1, 0, 1, 0])
        assert (a & b).set_indices() == [0]
        assert (a | b).set_indices() == [0, 1, 2]
        assert (a ^ b).set_indices() == [1, 2]

    def test_invert_masks_tail(self):
        a = BitVector.from_bools([1, 0, 1])
        inv = ~a
        assert inv.set_indices() == [1]
        assert len(inv) == 3

    def test_and_not(self):
        stored = BitVector.from_bools([1, 1, 1, 0])
        current = BitVector.from_bools([1, 0, 1, 0])
        invalidated = stored.and_not(current)
        assert invalidated.set_indices() == [1]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            BitVector(3) & BitVector(4)

    def test_and_not_padded(self):
        current = BitVector.from_bools([1, 0, 1, 1, 1])
        stored = BitVector.from_bools([1, 1, 1])
        new_rows = current.and_not_padded(stored)
        assert new_rows.set_indices() == [3, 4]

    def test_and_not_padded_rejects_longer_operand(self):
        with pytest.raises(ValueError):
            BitVector(3).and_not_padded(BitVector(5))


class TestGrowth:
    def test_extended_zero_fill(self):
        bv = BitVector.from_bools([1, 0, 1])
        grown = bv.extended(10)
        assert len(grown) == 10
        assert grown.set_indices() == [0, 2]

    def test_extended_one_fill(self):
        bv = BitVector.from_bools([1, 0])
        grown = bv.extended(5, fill=True)
        assert grown.set_indices() == [0, 2, 3, 4]

    def test_extended_cannot_shrink(self):
        with pytest.raises(ValueError):
            BitVector(5).extended(4)


class TestConversion:
    def test_roundtrip_numpy(self):
        mask = np.array([True, False] * 50)
        assert np.array_equal(BitVector.from_numpy_bool(mask).to_numpy(), mask)

    def test_iter_set(self):
        bv = BitVector.from_indices(200, [3, 64, 199])
        assert list(bv.iter_set()) == [3, 64, 199]

    def test_equality(self):
        a = BitVector.from_bools([1, 0, 1])
        b = BitVector.from_bools([1, 0, 1])
        c = BitVector.from_bools([1, 0, 0])
        assert a == b
        assert a != c
        assert a != BitVector(3)

    def test_copy_is_independent(self):
        a = BitVector(10)
        b = a.copy()
        b.set(3)
        assert not a.get(3)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(BitVector(4))


@given(st.lists(st.booleans(), max_size=300))
def test_property_roundtrip(bools):
    bv = BitVector.from_bools(bools)
    assert bv.to_numpy().tolist() == bools
    assert bv.pop_count() == sum(bools)


@given(st.lists(st.booleans(), max_size=200), st.lists(st.booleans(), max_size=200))
def test_property_and_not_is_set_difference(a_bits, b_bits):
    n = min(len(a_bits), len(b_bits))
    a = BitVector.from_bools(a_bits[:n])
    b = BitVector.from_bools(b_bits[:n])
    expected = [i for i in range(n) if a_bits[i] and not b_bits[i]]
    assert a.and_not(b).set_indices() == expected


@given(st.lists(st.booleans(), max_size=200))
def test_property_double_invert_is_identity(bits):
    bv = BitVector.from_bools(bits)
    assert ~~bv == bv


class TestSetMany:
    def test_bulk_set_matches_loop(self):
        indices = [0, 5, 63, 64, 65, 199]
        bulk = BitVector(200)
        bulk.set_many(indices)
        loop = BitVector(200)
        for i in indices:
            loop.set(i)
        assert bulk == loop

    def test_duplicates_fold(self):
        bv = BitVector(70)
        bv.set_many([64, 64, 64, 3, 3])
        assert bv.set_indices() == [3, 64]

    def test_empty_batch(self):
        bv = BitVector(10)
        bv.set_many([])
        bv.set_many(np.empty(0, dtype=np.int64))
        assert bv.pop_count() == 0

    def test_generator_input(self):
        bv = BitVector(100)
        bv.set_many(i * 10 for i in range(5))
        assert bv.set_indices() == [0, 10, 20, 30, 40]

    def test_out_of_range_mutates_nothing(self):
        bv = BitVector(64)
        bv.set(1)
        with pytest.raises(IndexError):
            bv.set_many([2, 3, 64])
        with pytest.raises(IndexError):
            bv.set_many([-1, 5])
        assert bv.set_indices() == [1]

    def test_numpy_array_input(self):
        bv = BitVector(128)
        bv.set_many(np.array([127, 0], dtype=np.int64))
        assert bv.get(127) and bv.get(0)


@given(st.lists(st.integers(0, 199), max_size=60))
def test_property_set_many_equals_loop(indices):
    bulk = BitVector(200)
    bulk.set_many(indices)
    loop = BitVector(200)
    for i in indices:
        loop.set(i)
    assert bulk == loop
