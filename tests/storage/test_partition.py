"""Unit tests for partitions and MVCC visibility."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage import ColumnDef, ColumnFragment, Partition, Schema, SqlType


def schema():
    return Schema(
        [ColumnDef("k", SqlType.INT, nullable=False), ColumnDef("v", SqlType.TEXT)],
        primary_key="k",
    )


def make_delta(rows):
    part = Partition("delta", "delta", schema())
    part.append(
        schema().validate_columns([row for row, _ in rows]), [cts for _, cts in rows]
    )
    return part


class TestAppendAndRead:
    def test_append_rows(self):
        part = make_delta([({"k": 1, "v": "a"}, 1), ({"k": 2, "v": None}, 2)])
        assert part.row_count == 2
        assert part.get_row(0) == {"k": 1, "v": "a"}
        assert part.get_row(1) == {"k": 2, "v": None}
        assert part.cts_array().tolist() == [1, 2]
        assert part.dts_array().tolist() == [0, 0]

    def test_append_to_main_rejected(self):
        part = Partition("main", "main", schema())
        with pytest.raises(StorageError):
            part.append([[1], ["a"]], [1])

    def test_unknown_kind_rejected(self):
        with pytest.raises(StorageError):
            Partition("x", "weird", schema())

    def test_unknown_column(self):
        part = make_delta([])
        with pytest.raises(StorageError):
            part.column("zzz")


class TestVisibility:
    def test_snapshot_excludes_future_rows(self):
        part = make_delta([({"k": 1}, 1), ({"k": 2}, 5)])
        assert part.visible_mask(1).tolist() == [True, False]
        assert part.visible_mask(5).tolist() == [True, True]
        assert part.visible_count(4) == 1

    def test_invalidation(self):
        part = make_delta([({"k": 1}, 1), ({"k": 2}, 1)])
        part.invalidate(0, 3)
        # Before the invalidating transaction: still visible.
        assert part.visible_mask(2).tolist() == [True, True]
        # At and after: gone.
        assert part.visible_mask(3).tolist() == [False, True]
        assert part.visible_rows(3).tolist() == [1]

    def test_double_invalidation_rejected(self):
        part = make_delta([({"k": 1}, 1)])
        part.invalidate(0, 2)
        with pytest.raises(StorageError):
            part.invalidate(0, 3)

    def test_invalidate_out_of_range(self):
        part = make_delta([({"k": 1}, 1)])
        with pytest.raises(StorageError):
            part.invalidate(5, 2)

    def test_visibility_bitvector_matches_mask(self):
        part = make_delta([({"k": i}, i) for i in range(1, 8)])
        part.invalidate(2, 6)
        stored = part.visibility(6)
        assert stored.tolist() == part.visible_mask(6).tolist()
        stored[2] = True  # the caller owns its copy
        assert not part.visibility(6)[2]


class TestBuildMain:
    def test_bulk_build_preserves_stamps(self):
        rows = [{"k": 2, "v": "b"}, {"k": 1, "v": "a"}]
        columns = schema().validate_columns(rows)
        part = Partition.build_main("main", schema(), columns, cts=[1, 2], dts=[0, 4])
        assert part.kind == "main"
        assert part.get_row(0) == {"k": 2, "v": "b"}
        assert part.visible_mask(3).tolist() == [True, True]
        assert part.visible_mask(4).tolist() == [True, False]

    def test_bulk_build_length_mismatch(self):
        with pytest.raises(StorageError):
            Partition.build_main("main", schema(), [[1], [None]], [1], [0, 0])

    def test_main_dictionary_is_sorted(self):
        rows = [{"k": 3, "v": "z"}, {"k": 1, "v": "a"}]
        part = Partition.build_main(
            "main", schema(), schema().validate_columns(rows), [1, 1], [0, 0]
        )
        assert part.column("k").codes().tolist() == [1, 0]


class TestFromFragments:
    def fragments(self):
        return {
            "k": ColumnFragment.build_main("k", [2, 1]),
            "v": ColumnFragment.build_main("v", ["b", None]),
        }

    def test_adopts_fragments_and_stamps(self):
        cts = np.array([1, 2], dtype=np.int64)
        dts = np.array([0, 4], dtype=np.int64)
        fragments = self.fragments()
        part = Partition.from_fragments("main", schema(), fragments, cts, dts)
        assert part.kind == "main"
        assert part.column("k") is fragments["k"]
        assert part.get_row(1) == {"k": 1, "v": None}
        assert part.visible_mask(4).tolist() == [True, False]
        part.invalidate(0, 7)
        assert part.dts_array().tolist() == [7, 4]

    def test_length_mismatch(self):
        one = np.array([1], dtype=np.int64)
        two = np.array([1, 2], dtype=np.int64)
        with pytest.raises(StorageError):
            Partition.from_fragments("main", schema(), self.fragments(), one, one)
        with pytest.raises(StorageError):
            Partition.from_fragments("main", schema(), self.fragments(), two, one)


class TestStats:
    def test_min_max_from_dictionary(self):
        part = make_delta([({"k": 5}, 1), ({"k": 2}, 1)])
        assert part.min_value("k") == 2
        assert part.max_value("k") == 5

    def test_min_max_includes_invalidated_rows(self):
        # The paper reads min/max from the *current dictionaries*; an
        # invalidated row's value stays in the dictionary until the merge,
        # keeping pruning conservative.
        part = make_delta([({"k": 100}, 1), ({"k": 2}, 1)])
        part.invalidate(0, 2)
        assert part.max_value("k") == 100

    def test_nbytes_positive_and_additive(self):
        part = make_delta([({"k": 1, "v": "abc"}, 1)])
        assert part.nbytes() > 0
        assert part.nbytes_columns(["v"]) <= part.nbytes()

    def test_empty_partition(self):
        part = make_delta([])
        assert part.is_physically_empty()
        assert part.visible_count(100) == 0
        assert part.min_value("k") is None
