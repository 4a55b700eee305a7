"""Unit tests for matching dependencies and insert-time enforcement."""

import pytest

from repro import Database, IntegrityError, SchemaError
from repro.core import MatchingDependency, MDEnforcer, validate_md
from repro.storage import Catalog, ColumnDef, Schema, SqlType, tid_column

from ..conftest import make_erp_db


class TestMatchingDependencyDefinition:
    def test_canonical(self):
        md = MatchingDependency("header", "hid", "item", "hid", "tid_header")
        assert "header[hid]" in md.canonical()
        assert "tid_header" in md.canonical()

    def test_self_reference_rejected(self):
        with pytest.raises(SchemaError):
            MatchingDependency("t", "a", "t", "b", "tid_t")

    def test_covers_join_both_directions(self):
        md = MatchingDependency("header", "hid", "item", "hid_fk", "tid_header")
        assert md.covers_join("header", "hid", "item", "hid_fk")
        assert md.covers_join("item", "hid_fk", "header", "hid")
        assert not md.covers_join("header", "hid", "item", "other")
        assert not md.covers_join("header", "other", "item", "hid_fk")
        assert not md.covers_join("item", "hid_fk", "dim", "hid")


class TestValidation:
    def make_catalog(self, with_tid=True):
        catalog = Catalog()
        header_cols = [ColumnDef("hid", SqlType.INT, nullable=False)]
        item_cols = [
            ColumnDef("iid", SqlType.INT, nullable=False),
            ColumnDef("hid", SqlType.INT),
        ]
        if with_tid:
            header_cols.append(tid_column("tid_header"))
            item_cols.append(tid_column("tid_header"))
        catalog.create_table("header", Schema(header_cols, primary_key="hid"))
        catalog.create_table("item", Schema(item_cols, primary_key="iid"))
        return catalog

    def test_valid(self):
        catalog = self.make_catalog()
        validate_md(
            MatchingDependency("header", "hid", "item", "hid", "tid_header"), catalog
        )

    def test_parent_key_must_be_pk(self):
        catalog = self.make_catalog()
        with pytest.raises(SchemaError):
            validate_md(
                MatchingDependency("item", "hid", "header", "hid", "tid_header"),
                catalog,
            )

    def test_missing_tid_column(self):
        catalog = self.make_catalog(with_tid=False)
        with pytest.raises(SchemaError):
            validate_md(
                MatchingDependency("header", "hid", "item", "hid", "tid_header"),
                catalog,
            )

    def test_missing_fk_column(self):
        catalog = self.make_catalog()
        with pytest.raises(SchemaError):
            validate_md(
                MatchingDependency("header", "hid", "item", "nope", "tid_header"),
                catalog,
            )


class TestEnforcement:
    def test_parent_rows_stamped_with_txn_tid(self):
        db = make_erp_db()
        txn = db.begin()
        db.insert("header", {"hid": 1, "year": 2013}, txn=txn)
        txn.commit()
        assert db.table("header").get_row(1)["tid_header"] == txn.tid

    def test_child_copies_parent_tid(self):
        db = make_erp_db()
        txn = db.begin()
        db.insert("header", {"hid": 1, "year": 2013}, txn=txn)
        txn.commit()
        db.insert("category", {"cid": 7, "name": "x", "lang": "ENG"})
        db.insert("item", {"iid": 10, "hid": 1, "cid": 7, "price": 1.0})
        row = db.table("item").get_row(10)
        assert row["tid_header"] == txn.tid
        assert row["tid_category"] == db.table("category").get_row(7)["tid_category"]

    def test_same_transaction_object_shares_tid(self):
        db = make_erp_db()
        db.insert("category", {"cid": 0, "name": "c", "lang": "ENG"})
        db.insert_business_object(
            "header",
            {"hid": 5, "year": 2013},
            "item",
            [{"iid": 50, "hid": 5, "cid": 0, "price": 2.0}],
        )
        header_tid = db.table("header").get_row(5)["tid_header"]
        item_tid = db.table("item").get_row(50)["tid_header"]
        assert header_tid == item_tid

    def test_missing_parent_raises_with_ri(self):
        db = make_erp_db()
        with pytest.raises(IntegrityError):
            db.insert("item", {"iid": 1, "hid": 999, "cid": None, "price": 1.0})

    def test_null_fk_leaves_tid_null_without_lookup(self):
        db = make_erp_db()
        before = db.enforcer.stats.child_lookups
        db.insert("item", {"iid": 1, "hid": None, "cid": None, "price": 1.0})
        assert db.table("item").get_row(1)["tid_header"] is None
        assert db.enforcer.stats.child_lookups == before

    def test_lookup_counters(self):
        db = make_erp_db()
        db.insert("header", {"hid": 1, "year": 2013})
        db.insert("category", {"cid": 0, "name": "c", "lang": "ENG"})
        db.insert("item", {"iid": 1, "hid": 1, "cid": 0, "price": 1.0})
        # item insert performs one lookup per MD with non-null fk
        assert db.enforcer.stats.child_lookups == 2
        assert db.enforcer.stats.parent_stamps >= 2

    def test_lookup_works_after_parent_merge(self):
        db = make_erp_db()
        txn = db.begin()
        db.insert("header", {"hid": 1, "year": 2013}, txn=txn)
        txn.commit()
        db.merge("header")
        db.insert("item", {"iid": 1, "hid": 1, "cid": None, "price": 1.0})
        assert db.table("item").get_row(1)["tid_header"] == txn.tid

    def test_stamp_decodes_only_the_tid_column(self, monkeypatch):
        """The child's stamp is one primary-key probe and one decoded
        column (§6.3), for a parent in the main and one in the delta."""
        from repro.storage import Partition

        db = make_erp_db()
        db.insert("header", {"hid": 1, "year": 2013})
        db.merge("header")
        db.insert("header", {"hid": 2, "year": 2014})
        want = {hid: db.table("header").get_row(hid)["tid_header"] for hid in (1, 2)}

        def whole_row(*args, **kwargs):
            raise AssertionError("a parent row was decoded whole")

        monkeypatch.setattr(Partition, "get_row", whole_row)
        db.insert("item", {"iid": 1, "hid": 1, "cid": None, "price": 1.0})
        db.insert("item", {"iid": 2, "hid": 2, "cid": None, "price": 1.0})
        with pytest.raises(IntegrityError):
            db.insert("item", {"iid": 3, "hid": 999, "cid": None, "price": 1.0})
        monkeypatch.undo()
        assert db.enforcer.stats.lookups_failed == 1
        for iid, hid in ((1, 1), (2, 2)):
            assert db.table("item").get_row(iid)["tid_header"] == want[hid]

    def test_dependencies_listing(self):
        db = make_erp_db()
        deps = db.enforcer.dependencies()
        assert len(deps) == 2
        assert len(db.enforcer.dependencies_of_child("item")) == 2
        assert db.enforcer.dependencies_of_child("header") == []


class TestSchemaInstallation:
    def test_tid_columns_installed_on_both_tables(self):
        db = make_erp_db()
        assert db.table("header").schema.has_column("tid_header")
        assert db.table("item").schema.has_column("tid_header")
        assert db.table("item").schema.has_column("tid_category")
        assert db.table("category").schema.has_column("tid_category")

    def test_md_on_populated_table_rejected(self):
        db = Database()
        db.create_table("p", [("id", "INT")], primary_key="id")
        db.create_table("c", [("id", "INT"), ("pid", "INT")], primary_key="id")
        db.insert("p", {"id": 1})
        with pytest.raises(SchemaError):
            db.add_matching_dependency("p", "id", "c", "pid")

    def test_custom_tid_column_name(self):
        db = Database()
        db.create_table("p", [("id", "INT")], primary_key="id")
        db.create_table("c", [("id", "INT"), ("pid", "INT")], primary_key="id")
        md = db.add_matching_dependency("p", "id", "c", "pid", tid_column_name="t_p")
        assert md.tid_column == "t_p"
        assert db.table("c").schema.has_column("t_p")

    def test_tid_columns_are_not_business_columns(self):
        db = make_erp_db()
        assert "tid_header" not in db.table("item").schema.business_column_names()
        assert "tid_header" in db.table("item").schema.tid_column_names()
