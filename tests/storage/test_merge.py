"""Unit tests for the delta-merge operation."""

import pytest

from repro.errors import StorageError
from repro.storage import (
    ColumnDef,
    MergeEvent,
    Schema,
    SqlType,
    Table,
    merge_table,
    threshold_aging,
)


def schema():
    return Schema(
        [ColumnDef("id", SqlType.INT, nullable=False), ColumnDef("year", SqlType.INT)],
        primary_key="id",
    )


class RecordingListener:
    def __init__(self):
        self.before = []
        self.after = []

    def before_merge(self, event: MergeEvent):
        # Pre-merge state must still be in place.
        self.before.append(
            (event.group_name, event.table.partition(event.delta_name).row_count)
        )

    def after_merge(self, event: MergeEvent):
        self.after.append(
            (event.group_name, event.table.partition(event.delta_name).row_count)
        )


class TestBasicMerge:
    def test_moves_delta_to_main(self):
        table = Table("t", schema())
        for i in range(5):
            table.insert({"id": i, "year": 2000 + i}, tid=i + 1)
        stats = merge_table(table, snapshot=5)
        assert stats.rows_moved == 5
        assert stats.rows_dropped == 0
        assert table.partition("main").row_count == 5
        assert table.partition("delta").row_count == 0
        # Main dictionary is sorted after rebuild.
        assert table.partition("main").column("year").codes().tolist() == list(range(5))

    def test_merge_preserves_visibility_stamps(self):
        table = Table("t", schema())
        table.insert({"id": 1}, tid=1)
        table.insert({"id": 2}, tid=4)
        merge_table(table, snapshot=4)
        main = table.partition("main")
        assert main.visible_mask(2).tolist() == [True, False]

    def test_invalidated_rows_dropped_by_default(self):
        table = Table("t", schema())
        table.insert({"id": 1}, tid=1)
        table.insert({"id": 2}, tid=2)
        table.delete(1, tid=3)
        stats = merge_table(table, snapshot=3)
        assert stats.rows_dropped == 1
        assert table.partition("main").row_count == 1
        assert table.get_row(2) is not None

    def test_keep_history_retains_invalidated_rows(self):
        table = Table("t", schema())
        table.insert({"id": 1}, tid=1)
        table.delete(1, tid=2)
        merge_table(table, snapshot=2, keep_history=True)
        main = table.partition("main")
        assert main.row_count == 1
        assert main.visible_count(2) == 0
        assert main.visible_count(1) == 1

    def test_update_then_merge_keeps_only_new_version(self):
        table = Table("t", schema())
        table.insert({"id": 1, "year": 2000}, tid=1)
        table.update(1, {"year": 2001}, tid=2)
        merge_table(table, snapshot=2)
        assert table.partition("main").row_count == 1
        assert table.get_row(1)["year"] == 2001

    def test_pk_index_rebuilt(self):
        table = Table("t", schema())
        table.insert({"id": 1}, tid=1)
        merge_table(table, snapshot=1)
        locator = table.pk_lookup(1)
        assert locator.partition == "main"
        assert table.get_row(1)["id"] == 1

    def test_future_row_raises(self):
        table = Table("t", schema())
        table.insert({"id": 1}, tid=10)
        with pytest.raises(StorageError):
            merge_table(table, snapshot=5)

    def test_double_merge_accumulates(self):
        table = Table("t", schema())
        table.insert({"id": 1}, tid=1)
        merge_table(table, snapshot=1)
        table.insert({"id": 2}, tid=2)
        merge_table(table, snapshot=2)
        assert table.partition("main").row_count == 2
        assert table.partition("delta").row_count == 0


class TestListeners:
    def test_two_phase_notification(self):
        table = Table("t", schema())
        table.insert({"id": 1}, tid=1)
        listener = RecordingListener()
        merge_table(table, snapshot=1, listeners=[listener])
        # before sees the populated delta, after sees the emptied one.
        assert listener.before == [("default", 1)]
        assert listener.after == [("default", 0)]


class TestNothingToMerge:
    def test_group_with_empty_delta_and_unstamped_main_is_passed_over(self):
        table = Table("t", schema())
        table.insert({"id": 1}, tid=1)
        merge_table(table, snapshot=1)
        main, version, index = table.partition("main"), table.version, dict(table._pk_index)
        listener = RecordingListener()
        stats = merge_table(table, snapshot=1, listeners=[listener])
        assert (stats.table, stats.groups_merged, stats.rows_moved) == ("t", 0, 0)
        assert listener.before == listener.after == []
        assert table.partition("main") is main
        assert (table.version, table._pk_index) == (version, index)

    def test_a_stamped_main_row_is_something_to_merge(self):
        table = Table("t", schema())
        table.insert({"id": 1}, tid=1)
        merge_table(table, snapshot=1)
        table.delete(1, tid=2)
        listener = RecordingListener()
        stats = merge_table(table, snapshot=2, listeners=[listener])
        assert (stats.groups_merged, stats.rows_dropped) == (1, 1)
        assert listener.before == [("default", 0)]
        assert table.partition("main").row_count == 0

    def test_only_the_idle_group_of_an_aged_table_is_passed_over(self):
        table = Table(
            "t", schema(), aging_rule=threshold_aging("year", hot_if_at_least=2014)
        )
        table.insert({"id": 1, "year": 2015}, tid=1)
        listener = RecordingListener()
        stats = merge_table(table, snapshot=1, listeners=[listener])
        assert stats.groups_merged == 1
        assert listener.before == [("hot", 1)]


class TestAgedMerge:
    def make(self):
        table = Table(
            "t", schema(), aging_rule=threshold_aging("year", hot_if_at_least=2014)
        )
        table.insert({"id": 1, "year": 2015}, tid=1)
        table.insert({"id": 2, "year": 2010}, tid=2)
        return table

    def test_merge_all_groups(self):
        table = self.make()
        stats = merge_table(table, snapshot=2)
        assert stats.groups_merged == 2
        assert table.partition("hot_main").row_count == 1
        assert table.partition("cold_main").row_count == 1

    def test_merge_single_group(self):
        table = self.make()
        stats = merge_table(table, snapshot=2, group_name="hot")
        assert stats.groups_merged == 1
        assert table.partition("hot_main").row_count == 1
        # Cold group untouched: row still in its delta.
        assert table.partition("cold_delta").row_count == 1
        assert table.partition("cold_main").row_count == 0


class CancellableListener(RecordingListener):
    def __init__(self, fail_on_group=None):
        super().__init__()
        self.cancelled = []
        self.fail_on_group = fail_on_group

    def before_merge(self, event: MergeEvent):
        super().before_merge(event)
        if event.group_name == self.fail_on_group:
            raise RuntimeError(f"listener rejects group {event.group_name}")

    def cancel_merge(self, event: MergeEvent):
        self.cancelled.append(event.group_name)


class TestAtomicity:
    """Phase-one failures leave the table exactly as it was."""

    def make(self):
        table = Table("t", schema())
        table.insert({"id": 0, "year": 2000}, tid=1)
        table.insert({"id": 1, "year": 2001}, tid=2)
        merge_table(table, snapshot=2)  # ids 0-1 into main
        table.insert({"id": 9, "year": 2009}, tid=5)  # fresh delta row
        return table

    def test_failing_listener_leaves_table_untouched(self):
        table = self.make()
        main_before = table.partition("main")
        delta_rows = table.partition("delta").row_count
        listener = CancellableListener(fail_on_group="default")
        with pytest.raises(RuntimeError):
            merge_table(table, snapshot=5, listeners=[listener])
        # Same partition objects, same contents, usable pk index.
        assert table.partition("main") is main_before
        assert table.partition("delta").row_count == delta_rows
        assert table.get_row(9)["year"] == 2009
        assert table.pk_lookup(0).partition == "main"
        # The listener was told to forget what it planned.
        assert listener.cancelled == ["default"]
        assert listener.after == []

    def test_future_row_failure_is_atomic(self):
        table = self.make()
        table.insert({"id": 50, "year": 2050}, tid=99)
        listener = CancellableListener()
        with pytest.raises(StorageError):
            merge_table(table, snapshot=5, listeners=[listener])
        assert listener.cancelled == ["default"]
        assert table.partition("delta").row_count > 0
        assert table.get_row(9) is not None

    def test_aged_table_cancels_every_announced_group(self):
        table = Table(
            "t", schema(), aging_rule=threshold_aging("year", hot_if_at_least=2014)
        )
        table.insert({"id": 1, "year": 2015}, tid=1)
        table.insert({"id": 2, "year": 2010}, tid=2)
        # Fail on the second group: the first was already announced and
        # staged, and must be cancelled too.
        failing = CancellableListener(fail_on_group="cold")
        with pytest.raises(RuntimeError):
            merge_table(table, snapshot=2, listeners=[failing])
        assert sorted(failing.cancelled) == ["cold", "hot"]
        assert table.partition("hot_main").row_count == 0
        assert table.partition("hot_delta").row_count == 1
        assert table.partition("cold_delta").row_count == 1

    def test_future_row_in_second_group_cancels_the_first(self):
        """The first group is announced and staged before the second one's
        stamps are looked at; nothing of it may show."""
        table = Table(
            "t", schema(), aging_rule=threshold_aging("year", hot_if_at_least=2014)
        )
        for key, year in enumerate([2015, 2010, 2016, 2011]):
            table.insert({"id": key, "year": year}, tid=key + 1)
        merge_table(table, snapshot=4)
        table.update(0, {"year": 2017}, tid=5)  # hot: main row invalidated
        table.insert({"id": 7, "year": 2009}, tid=6)  # cold delta
        table.insert({"id": 8, "year": 2008}, tid=99)  # cold delta, future

        def state():
            return {
                p.name: (
                    id(p),
                    p.cts_array().tolist(),
                    p.dts_array().tolist(),
                    {
                        c: (id(p.column(c).dictionary), p.column(c).dictionary.values(),
                            p.column(c).codes().tolist())
                        for c in p.column_names()
                    },
                )
                for p in table.partitions()
            }

        before = state()
        index_before = dict(table._pk_index)
        version_before = table.version
        listener = CancellableListener()
        with pytest.raises(StorageError, match="future transaction 99"):
            merge_table(table, snapshot=6, listeners=[listener])
        assert [group for group, _rows in listener.before] == ["hot", "cold"]
        assert listener.cancelled == ["hot", "cold"]
        assert listener.after == []
        assert state() == before
        assert table._pk_index == index_before
        assert table.version == version_before
        assert table.pk_lookup(0).partition == "hot_delta"

    def test_retry_after_failure_succeeds(self):
        table = self.make()
        with pytest.raises(RuntimeError):
            merge_table(
                table, snapshot=5, listeners=[CancellableListener(fail_on_group="default")]
            )
        stats = merge_table(table, snapshot=5)
        assert stats.groups_merged == 1
        assert table.partition("delta").row_count == 0
