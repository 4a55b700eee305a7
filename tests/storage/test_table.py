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
        columns = table.schema.validate_columns([{"id": 1}])
        for name in ("delta", "udelta"):
            table.partition(name).append(columns, [1])
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


def _lookup_db(kind: str):
    """A one-key table of ``kind`` keys 0..11 with gaps at 3 and 7, plus a
    header/item pair whose matching dependency looks headers up by key."""
    from repro import Database

    key = int if kind == "INT" else str
    db = Database()
    db.create_table("t", [("k", kind), ("v", "INT")], primary_key="k")
    db.create_table("header", [("hid", kind)], primary_key="hid")
    db.create_table("item", [("iid", "INT"), ("hid", kind)], primary_key="iid")
    db.add_matching_dependency("header", "hid", "item", "hid")
    written = [key(k) for k in range(12) if k not in (3, 7)]
    db.insert_many("t", [{"k": k, "v": 0} for k in written])
    db.insert_many("header", [{"hid": k} for k in written])
    return db, key, {k: {"k": k, "v": 0} for k in written}


class TestKeyLookupParity:
    """The primary-key index answers every key as a dict of the live keys
    does — ``1.0`` and ``True`` find the int key ``1``, ``'1'`` does not —
    whether the key lives in the written-keys overlay or in a main, before
    and after a merge, and through every caller of the index."""

    PROBES = [1, 1.0, True, 5.0, 5.5, "1", 2**70, -3]

    def check(self, db, key, oracle):
        table = db.table("t")
        # A gap, a key above the largest (``'99'`` sorts above ``'9'``).
        for probe in self.PROBES + [key(3), key(99)] + list(oracle):
            want = oracle.get(probe)
            assert table.get_row(probe) == want, probe
            assert (table.pk_lookup(probe) is None) == (want is None), probe

    @pytest.mark.parametrize("kind", ["INT", "TEXT"])
    def test_lookups_before_and_after_a_merge(self, kind):
        db, key, oracle = _lookup_db(kind)
        self.check(db, key, oracle)
        db.merge()
        self.check(db, key, oracle)
        # Updated and deleted since the merge; an INT key spelled as a float.
        db.update("t", 5.0 if kind == "INT" else "5", {"v": 1})
        oracle[key(5)] = {"k": key(5), "v": 1}
        db.delete("t", key(1))
        del oracle[key(1)]
        self.check(db, key, oracle)
        db.merge()
        self.check(db, key, oracle)

    @pytest.mark.parametrize("kind", ["INT", "TEXT"])
    def test_errors_are_unchanged_by_the_index(self, kind):
        db, key, _oracle = _lookup_db(kind)
        db.merge()
        with pytest.raises(IntegrityError, match=f"duplicate primary key {key(4)!r} in table 't'"):
            db.insert("t", {"k": key(4), "v": 0})
        with pytest.raises(IntegrityError, match="no live row with primary key 3 in table 't'"):
            db.delete("t", 3)
        # The value check runs before the key check: a bad value in a later
        # row wins over a duplicate key in an earlier one.
        with pytest.raises(SchemaError):
            db.insert_many("t", [{"k": key(4), "v": 0}, {"k": key(20), "v": "x"}])
        # Matching-dependency stamping looks the parent up by key first.
        missing = "9" if kind == "INT" else 9
        with pytest.raises(IntegrityError, match=f"references missing 'header' row {missing!r}"):
            db.insert("item", {"iid": 1, "hid": missing})
        db.insert("item", {"iid": 2, "hid": key(9)})
        assert db.table("item").get_row(2)["hid"] == key(9)
