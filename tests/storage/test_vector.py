"""Unit tests for growable typed vectors."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage import IntVector, ObjectVector


class TestIntVector:
    def test_empty(self):
        v = IntVector()
        assert len(v) == 0
        assert v.to_numpy().tolist() == []

    def test_init_from_iterable(self):
        v = IntVector([5, 6, 7])
        assert list(v) == [5, 6, 7]

    def test_append_growth_beyond_initial_capacity(self):
        v = IntVector()
        for i in range(1000):
            v.append(i)
        assert len(v) == 1000
        assert v[999] == 999
        assert v[0] == 0

    def test_extend(self):
        v = IntVector([1])
        v.extend([2, 3])
        v.extend(np.array([4, 5]))
        assert list(v) == [1, 2, 3, 4, 5]

    def test_getitem_negative(self):
        v = IntVector([10, 20, 30])
        assert v[-1] == 30
        assert v[-3] == 10

    def test_getitem_out_of_range(self):
        v = IntVector([1])
        with pytest.raises(IndexError):
            v[1]
        with pytest.raises(IndexError):
            v[-2]

    def test_setitem(self):
        v = IntVector([1, 2, 3])
        v[1] = 99
        assert list(v) == [1, 99, 3]
        with pytest.raises(IndexError):
            v[3] = 0

    def test_slice_returns_copy(self):
        v = IntVector([1, 2, 3, 4])
        sliced = v[1:3]
        sliced[0] = 42
        assert v[1] == 2

    def test_view_is_zero_copy(self):
        v = IntVector([1, 2, 3])
        view = v.view()
        view[0] = 7
        assert v[0] == 7

    def test_copy_is_independent(self):
        v = IntVector([1, 2])
        c = v.copy()
        c.append(3)
        assert len(v) == 2
        assert len(c) == 3

    def test_nbytes(self):
        assert IntVector([1, 2, 3]).nbytes() == 24

    def test_adopt_takes_the_array_without_copying(self):
        array = np.array([4, 5, 6], dtype=np.int64)
        v = IntVector.adopt(array)
        assert list(v) == [4, 5, 6]
        assert np.shares_memory(v.view(), array)
        v[0] = 9  # a main partition's dts is stamped in place
        v.append(7)  # and a vector stays growable, empty ones included
        assert list(v) == [9, 5, 6, 7]
        empty = IntVector.adopt(np.empty(0, dtype=np.int64))
        empty.append(1)
        assert list(empty) == [1]

    def test_adopt_refuses_other_dtypes_and_shapes(self):
        with pytest.raises(TypeError):
            IntVector.adopt(np.array([1, 2], dtype=np.int32))
        with pytest.raises(TypeError):
            IntVector.adopt(np.zeros((2, 2), dtype=np.int64))

    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62)))
    def test_property_roundtrip(self, values):
        v = IntVector()
        for value in values:
            v.append(value)
        assert list(v) == values


class TestObjectVector:
    def test_mixed_payloads(self):
        v = ObjectVector()
        v.append("a")
        v.append(3)
        v.append(None)
        v.extend([1.5, "z"])
        assert v.to_list() == ["a", 3, None, 1.5, "z"]
        assert len(v) == 5
        assert v[2] is None

    def test_to_numpy_object_dtype(self):
        arr = ObjectVector(["x", 1]).to_numpy()
        assert arr.dtype == object
        assert arr.tolist() == ["x", 1]

    def test_copy_is_independent(self):
        v = ObjectVector([1])
        c = v.copy()
        c.append(2)
        assert len(v) == 1


class TestExtendIterables:
    def test_extend_generator(self):
        """Regression: extend() used to raise on non-sized iterables because
        np.asarray wraps a generator in a 0-d object array."""
        v = IntVector([1])
        v.extend(i * i for i in range(5))
        assert list(v) == [1, 0, 1, 4, 9, 16]

    def test_extend_map_object(self):
        v = IntVector()
        v.extend(map(int, "123"))
        assert list(v) == [1, 2, 3]

    def test_extend_empty_generator(self):
        v = IntVector([7])
        v.extend(x for x in ())
        assert list(v) == [7]

    def test_extend_range_and_array_still_work(self):
        v = IntVector()
        v.extend(range(3))
        v.extend(np.array([5, 6], dtype=np.int64))
        assert list(v) == [0, 1, 2, 5, 6]
