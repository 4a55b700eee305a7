"""Tests for the Database facade."""

import pytest

from repro import (
    CatalogError,
    Database,
    ExecutionStrategy,
    IntegrityError,
    Schema,
    SchemaError,
    SqlType,
)
from repro.storage import ColumnDef

from ..conftest import HEADER_ITEM_SQL, load_erp, make_erp_db


class TestDDL:
    def test_create_table_from_tuples(self):
        db = Database()
        table = db.create_table("t", [("a", "INT"), ("b", "text")], primary_key="a")
        assert table.schema.column("b").sql_type is SqlType.TEXT
        assert db.table("t") is table

    def test_create_table_from_schema(self):
        db = Database()
        schema = Schema([ColumnDef("a", SqlType.INT)], primary_key="a")
        table = db.create_table("t", schema)
        assert table.schema is schema

    def test_create_table_from_columndefs(self):
        db = Database()
        table = db.create_table(
            "t", [ColumnDef("a", SqlType.INT, nullable=False)], primary_key="a"
        )
        assert not table.schema.column("a").nullable

    def test_bad_type_name(self):
        db = Database()
        with pytest.raises(ValueError):
            db.create_table("t", [("a", "BLOB")])

    def test_drop_table_evicts_only_referencing_entries(self):
        db = make_erp_db()
        load_erp(db, n_headers=2, merge=True)
        db.query(HEADER_ITEM_SQL, strategy=ExecutionStrategy.CACHED_FULL_PRUNING)
        assert db.cache.entry_count() == 1
        # The header/item entry does not reference category: it survives.
        db.drop_table("category")
        assert db.cache.entry_count() == 1
        with pytest.raises(CatalogError):
            db.table("category")
        # Dropping a referenced table evicts the entry.
        db.drop_table("item")
        assert db.cache.entry_count() == 0

    def test_declare_consistent_aging_requires_tables(self):
        db = Database()
        db.create_table("a", [("x", "INT")])
        with pytest.raises(CatalogError):
            db.declare_consistent_aging("a", "missing")


class TestDML:
    def test_insert_autocommit_assigns_tids(self):
        db = make_erp_db()
        db.insert("header", {"hid": 1, "year": 2013})
        db.insert("header", {"hid": 2, "year": 2013})
        t1 = db.table("header").get_row(1)["tid_header"]
        t2 = db.table("header").get_row(2)["tid_header"]
        assert t2 > t1

    def test_insert_many_single_transaction(self):
        db = make_erp_db()
        count = db.insert_many(
            "header", [{"hid": h, "year": 2013} for h in range(3)]
        )
        assert count == 3
        tids = {db.table("header").get_row(h)["tid_header"] for h in range(3)}
        assert len(tids) == 1  # one shared transaction

    def test_insert_business_object_returns_item_count(self):
        db = make_erp_db()
        n = db.insert_business_object(
            "header",
            {"hid": 1, "year": 2013},
            "item",
            [{"iid": k, "hid": 1, "cid": None, "price": 1.0} for k in range(4)],
        )
        assert n == 4

    def test_explicit_transaction_shared_across_calls(self):
        db = make_erp_db()
        txn = db.begin()
        db.insert("header", {"hid": 1, "year": 2013}, txn=txn)
        db.insert("header", {"hid": 2, "year": 2013}, txn=txn)
        txn.commit()
        assert (
            db.table("header").get_row(1)["tid_header"]
            == db.table("header").get_row(2)["tid_header"]
        )

    def test_update_delete_roundtrip(self):
        db = make_erp_db()
        db.insert("header", {"hid": 1, "year": 2013})
        db.update("header", 1, {"year": 2014})
        assert db.table("header").get_row(1)["year"] == 2014
        db.delete("header", 1)
        assert db.table("header").get_row(1) is None

    def test_closed_transaction_rejected(self):
        db = make_erp_db()
        txn = db.begin()
        txn.commit()
        with pytest.raises(Exception):
            db.insert("header", {"hid": 1}, txn=txn)


class TestQueries:
    def test_query_accepts_text_and_objects(self):
        db = make_erp_db()
        load_erp(db, n_headers=2, merge=True)
        text_result = db.query(HEADER_ITEM_SQL)
        object_result = db.query(db.parse(HEADER_ITEM_SQL))
        assert text_result == object_result

    def test_default_strategy_from_config(self):
        db = make_erp_db()
        load_erp(db, n_headers=2, merge=True)
        db.query(HEADER_ITEM_SQL)  # the default strategy
        assert db.last_report.strategy is ExecutionStrategy.CACHED_FULL_PRUNING

    def test_query_in_explicit_transaction_sees_snapshot(self):
        db = make_erp_db()
        load_erp(db, n_headers=2, merge=True)
        reader = db.begin()
        db.insert("header", {"hid": 700, "year": 2013})
        db.insert(
            "item", {"iid": 700, "hid": 700, "cid": 0, "price": 100.0}
        )
        old = db.query(HEADER_ITEM_SQL, txn=reader)
        new = db.query(HEADER_ITEM_SQL)
        assert sum(old.column_values("profit")) + 100.0 == pytest.approx(
            sum(new.column_values("profit"))
        )

    def test_listing1_shape(self):
        """The paper's Listing 1 runs end to end through the facade."""
        db = make_erp_db()
        load_erp(db, n_headers=4, merge=True)
        sql = (
            "SELECT d.name AS Category, SUM(i.price) AS Profit "
            "FROM header AS h, item AS i, category AS d "
            "WHERE i.hid = h.hid AND i.cid = d.cid "
            "AND d.lang = 'ENG' AND h.year = 2013 "
            "GROUP BY d.name"
        )
        result = db.query(sql)
        assert result.columns == ["Category", "Profit"]
        assert len(result) > 0

    def test_merge_returns_stats(self):
        db = make_erp_db()
        load_erp(db, n_headers=2, merge=False)
        stats = db.merge()
        moved = sum(s.rows_moved for s in stats)
        assert moved == 2 + 6 + 2  # categories + items + headers
