"""Unit tests for tables: writes, PK index, aging routing."""

import pytest

from repro.errors import IntegrityError, SchemaError, StorageError
from repro.storage import (
    ColumnDef,
    RowLocator,
    Schema,
    SqlType,
    Table,
    threshold_aging,
)


def schema():
    return Schema(
        [
            ColumnDef("id", SqlType.INT, nullable=False),
            ColumnDef("year", SqlType.INT),
            ColumnDef("amount", SqlType.FLOAT),
        ],
        primary_key="id",
    )


class TestSimpleTable:
    def test_partition_layout(self):
        table = Table("t", schema())
        names = [p.name for p in table.partitions()]
        assert names == ["main", "delta"]
        assert not table.is_aged()

    def test_insert_goes_to_delta(self):
        table = Table("t", schema())
        locator = table.insert({"id": 1, "amount": 5.0}, tid=1)
        assert locator.partition == "delta"
        assert table.partition("delta").row_count == 1
        assert table.partition("main").row_count == 0

    def test_duplicate_pk_rejected(self):
        table = Table("t", schema())
        table.insert({"id": 1}, tid=1)
        with pytest.raises(IntegrityError):
            table.insert({"id": 1}, tid=2)

    def test_null_pk_rejected_by_not_null(self):
        table = Table("t", schema())
        with pytest.raises(SchemaError):
            table.insert({"id": None}, tid=1)

    def test_null_pk_rejected_even_when_nullable(self):
        nullable_pk = Schema([ColumnDef("id", SqlType.INT)], primary_key="id")
        table = Table("t", nullable_pk)
        with pytest.raises(IntegrityError):
            table.insert({"id": None}, tid=1)

    def test_get_row(self):
        table = Table("t", schema())
        table.insert({"id": 7, "year": 2013}, tid=1)
        assert table.get_row(7)["year"] == 2013
        assert table.get_row(999) is None

    def test_update_inserts_new_version(self):
        table = Table("t", schema())
        table.insert({"id": 1, "amount": 1.0}, tid=1)
        table.update(1, {"amount": 2.0}, tid=2)
        delta = table.partition("delta")
        assert delta.row_count == 2
        assert delta.dts_array().tolist() == [2, 0]
        assert table.get_row(1)["amount"] == 2.0

    def test_update_unknown_column(self):
        table = Table("t", schema())
        table.insert({"id": 1}, tid=1)
        with pytest.raises(SchemaError):
            table.update(1, {"bogus": 1}, tid=2)

    def test_update_pk_change_rejected(self):
        table = Table("t", schema())
        table.insert({"id": 1}, tid=1)
        with pytest.raises(IntegrityError):
            table.update(1, {"id": 2}, tid=2)

    def test_update_missing_row(self):
        table = Table("t", schema())
        with pytest.raises(IntegrityError):
            table.update(1, {"amount": 1.0}, tid=1)

    def test_delete(self):
        table = Table("t", schema())
        table.insert({"id": 1}, tid=1)
        table.delete(1, tid=2)
        assert table.get_row(1) is None
        assert table.visible_row_count(2) == 0
        assert table.visible_row_count(1) == 1
        # Key becomes reusable after delete.
        table.insert({"id": 1}, tid=3)
        assert table.get_row(1) is not None

    def test_delete_missing(self):
        table = Table("t", schema())
        with pytest.raises(IntegrityError):
            table.delete(42, tid=1)

    def test_counts(self):
        table = Table("t", schema())
        for i in range(5):
            table.insert({"id": i}, tid=i + 1)
        assert table.row_count() == 5
        assert table.visible_row_count(3) == 3
        assert table.nbytes() > 0


class TestAgedTable:
    def make(self):
        return Table(
            "t", schema(), aging_rule=threshold_aging("year", hot_if_at_least=2014)
        )

    def test_partition_layout(self):
        table = self.make()
        names = [p.name for p in table.partitions()]
        assert names == ["hot_main", "hot_delta", "cold_main", "cold_delta"]
        assert table.is_aged()

    def test_routing(self):
        table = self.make()
        hot = table.insert({"id": 1, "year": 2014}, tid=1)
        cold = table.insert({"id": 2, "year": 2010}, tid=2)
        null_year = table.insert({"id": 3, "year": None}, tid=3)
        assert hot.partition == "hot_delta"
        assert cold.partition == "cold_delta"
        assert null_year.partition == "cold_delta"

    def test_update_stays_in_group(self):
        table = self.make()
        table.insert({"id": 1, "year": 2010}, tid=1)
        # Update of a cold row lands in the cold delta, even if the new
        # values would route hot: versions of one object stay together.
        locator = table.update(1, {"amount": 9.0}, tid=2)
        assert locator.partition == "cold_delta"

    def test_unknown_group_from_rule(self):
        table = Table("t", schema(), aging_rule=lambda row: "lukewarm")
        with pytest.raises(StorageError):
            table.insert({"id": 1}, tid=1)

    def test_group_access(self):
        table = self.make()
        assert table.group("hot").delta.name == "hot_delta"
        with pytest.raises(StorageError):
            table.group("default")
        with pytest.raises(StorageError):
            table.partition("nope")


class TestRebuildPkIndex:
    def test_rebuild_after_manual_mutation(self):
        table = Table("t", schema())
        table.insert({"id": 1}, tid=1)
        table.insert({"id": 2}, tid=2)
        table.delete(2, tid=3)
        table.rebuild_pk_index()
        assert table.pk_lookup(1) is not None
        assert table.pk_lookup(2) is None

    def test_later_partition_wins(self):
        """A key live in two partitions (only reachable by hand) resolves to
        the later one, as one assignment per row in partition order would."""
        table = Table("t", schema(), separate_update_delta=True)
        row = table.schema.validate_row({"id": 1})
        for name in ("delta", "udelta"):
            table.partition(name).append_row(row, cts=1)
        table.rebuild_pk_index()
        assert table.pk_lookup(1) == RowLocator("udelta", 0)

    def test_update_finds_the_group_of_every_partition(self):
        table = Table(
            "t",
            schema(),
            aging_rule=threshold_aging("year", hot_if_at_least=2014),
            separate_update_delta=True,
        )
        table.insert({"id": 1, "year": 2010}, tid=1)
        assert table.update(1, {"amount": 1.0}, tid=2).partition == "cold_udelta"
        assert table.update(1, {"amount": 2.0}, tid=3).partition == "cold_udelta"
        with pytest.raises(StorageError):
            table._group_of_partition("warm_main")
