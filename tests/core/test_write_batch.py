"""One append path: a write is a column batch.

``Database.insert``, ``insert_many``, ``insert_business_object``,
``import_csv``, WAL replay and checkpoint restore all append through
``Table.check_rows`` / ``Table.append_rows``.  These tests pin the
contracts that path keeps: a refused batch appends nothing, a partition's
version moves by one per row, items copy their header's tid, listeners and
the WAL see one call / op per row, and a checkpoint never captures an open
transaction.
"""

import copy
import json
import zlib
from pathlib import Path

import pytest

from repro import Database, ExecutionStrategy
from repro.errors import IntegrityError, SchemaError, StorageError
from repro.storage import ColumnDef, SqlType, load_database, save_database
from repro.storage.aging import threshold_aging

from tests.conftest import PROFIT_SQL, load_erp, make_erp_db

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED


def make_db(path=None) -> Database:
    """Header / aged item with a NOT NULL column and an MD between them;
    hid 0..3 merged into the mains, hid 50..51 in the deltas."""
    db = Database(path=path)
    db.create_table("header", [("hid", "INT"), ("year", "INT")], primary_key="hid")
    db.create_table(
        "item",
        [
            ColumnDef("iid", SqlType.INT),
            ColumnDef("hid", SqlType.INT),
            ColumnDef("year", SqlType.INT),
            ColumnDef("price", SqlType.FLOAT, nullable=False),
        ],
        primary_key="iid",
        aging_rule=threshold_aging("year", 2014),
    )
    db.add_matching_dependency("header", "hid", "item", "hid")
    for hid in (0, 1, 2, 3, 50, 51):
        year = 2013 + hid % 2
        items = [item(hid * 100 + k, hid, year) for k in range(3)]
        db.insert_business_object("header", {"hid": hid, "year": year}, "item", items)
        if hid == 3:
            db.merge()
    return db


def item(iid, hid=0, year=2014, price=1.5, **extra):
    return {"iid": iid, "hid": hid, "year": year, "price": price, **extra}


def storage_state(db: Database, txn) -> dict:
    """Everything an append could move: per table its version and pk
    overlay; per partition its rows, version and dictionary sizes; and the
    transaction's buffered WAL ops."""
    state = {"wal_ops": copy.deepcopy(db._txn_ops.get(txn.tid))}
    for table in db.catalog.tables():
        state[table.name] = (
            table.version,
            dict(table._pk_written),
            [
                (
                    partition.name,
                    partition.row_count,
                    partition.version,
                    [len(partition.column(c).dictionary) for c in partition.column_names()],
                )
                for partition in table.partitions()
            ],
        )
    return state


#: One bad item per kind, with the error it must raise; the good item
#: before it in the same call (iid 900) must not be appended either.
BAD_ITEMS = {
    "duplicate_in_batch": (item(900), IntegrityError),
    "duplicate_of_main": (item(100), IntegrityError),
    "duplicate_of_overlay": (item(5000, hid=50), IntegrityError),
    "not_null": (item(901, price=None), SchemaError),
    "wrong_type": (item(901, price="free"), SchemaError),
    "unknown_column": (item(901, wat=1), SchemaError),
    "unknown_group": (item(901, year=1999), StorageError),
    "missing_parent": (item(901, hid=999), IntegrityError),
}


class TestRefusedBatchAppendsNothing:
    @pytest.mark.parametrize("via", ["insert_many", "business_object"])
    @pytest.mark.parametrize("kind", sorted(BAD_ITEMS))
    def test_one_bad_row_leaves_every_counter_alone(self, tmp_path, kind, via):
        db = make_db(tmp_path / "db")
        year_rule = db.table("item").aging_rule
        # Only year 1999 routes to a group the table does not have.
        db.table("item").aging_rule = lambda row: (
            "lukewarm" if row["year"] == 1999 else year_rule(row)
        )
        txn = db.begin()
        db.insert("header", {"hid": 60, "year": 2014}, txn=txn)  # buffered op
        before = storage_state(db, txn)
        bad, error = BAD_ITEMS[kind]
        rows = [item(900, hid=60), bad]
        with pytest.raises(error):
            if via == "insert_many":
                db.insert_many("item", rows, txn=txn)
            else:
                db.insert_business_object(
                    "header", {"hid": 61, "year": 2014}, "item", rows, txn=txn
                )
        assert storage_state(db, txn) == before
        assert txn.is_active
        txn.commit()
        db.close()
        reopened = Database.open(tmp_path / "db")
        assert reopened.table("header").get_row(60) is not None
        assert reopened.table("header").get_row(61) is None
        assert reopened.table("item").get_row(900) is None
        reopened.close()

    def test_duplicate_between_calls_of_one_transaction(self):
        db = make_db()
        with db.begin() as txn:
            db.insert_many("item", [item(900), item(901)], txn=txn)
            with pytest.raises(IntegrityError, match="duplicate primary key 901"):
                db.insert_many("item", [item(902), item(901)], txn=txn)
        assert db.table("item").get_row(902) is None

    def test_an_empty_batch_changes_nothing(self):
        db = make_db()
        table = db.table("item")
        versions = (table.version, [p.version for p in table.partitions()])
        assert db.insert_many("item", []) == 0
        header = {"hid": 70, "year": 2014}
        assert db.insert_business_object("header", header, "item", []) == 0
        assert db.table("header").get_row(70) is not None
        assert (table.version, [p.version for p in table.partitions()]) == versions

    def test_missing_parent_message_is_unchanged(self):
        db = make_db()
        with pytest.raises(IntegrityError, match="references missing 'header' row 999"):
            db.insert("item", item(901, hid=999))


class TestVersionContract:
    def test_partition_version_moves_by_one_per_row_and_per_invalidation(self):
        db = make_db()
        delta = db.table("header").group("default").delta
        version = delta.version
        db.insert_many("header", [{"hid": 70 + k, "year": 2014} for k in range(10)])
        assert delta.version == version + 10
        db.delete("header", 70)
        assert delta.version == version + 11

    def test_delete_then_batch_in_one_delta_keeps_the_memo_exact(self, erp_db):
        """A memo that read the version as "rows appended" alone would miss
        the delete hidden behind the batch's ten appends."""
        sql = PROFIT_SQL
        db = erp_db
        db.query(sql, strategy=FULL)
        delta = db.table("item").group("default").delta
        assert delta.row_count > 0
        victim = delta.get_row(0)["iid"]
        version = delta.version
        db.delete("item", victim)
        rows = [
            {"iid": 7000 + k, "hid": 0, "cid": k % 2, "price": float(k)}
            for k in range(10)
        ]
        db.insert_many("item", rows)
        assert delta.version == version + 11
        cached = db.query(sql, strategy=FULL)
        assert cached.report.delta_memo_mode == "incremental"
        assert cached.rows == db.query(sql, strategy=UNCACHED).rows


class _Recorder:
    def __init__(self):
        self.inserts = []

    def on_insert(self, table, row, tid):
        self.inserts.append((table, row, tid))


class TestObjectAwareStamping:
    def test_items_copy_the_header_tid_without_a_lookup(self):
        db = make_erp_db()
        load_erp(db, n_headers=2, merge=False)
        before = db.enforcer.stats.child_lookups
        items = [
            {"iid": 900 + k, "hid": 10, "cid": k % 2, "price": 1.0} for k in range(5)
        ]
        db.insert_business_object("header", {"hid": 10, "year": 2014}, "item", items)
        # No header lookup; one category lookup per distinct key (0 and 1).
        assert db.enforcer.stats.child_lookups == before + 2
        header_tid = db.table("header").get_row(10)["tid_header"]
        for k in range(5):
            assert db.table("item").get_row(900 + k)["tid_header"] == header_tid

    def test_other_parents_are_looked_up_once_per_distinct_key(self):
        db = make_erp_db()
        load_erp(db, n_headers=3, merge=True)
        before = db.enforcer.stats.child_lookups
        rows = [
            {"iid": 900 + k, "hid": k % 3, "cid": 0, "price": 1.0} for k in range(9)
        ]
        db.insert_many("item", rows)
        assert db.enforcer.stats.child_lookups == before + 3 + 1
        for row in rows:
            stored = db.table("item").get_row(row["iid"])
            parent = db.table("header").get_row(row["hid"])
            assert stored["tid_header"] == parent["tid_header"]

    def test_listener_sees_header_then_each_item_once(self):
        db = make_erp_db()
        load_erp(db, n_headers=1, merge=False)
        recorder = _Recorder()
        db.register_write_listener(recorder)
        items = [{"iid": 900 + k, "hid": 10, "cid": 0, "price": 1.0} for k in range(3)]
        txn = db.begin()
        db.insert_business_object(
            "header", {"hid": 10, "year": 2014}, "item", items, txn=txn
        )
        txn.commit()
        assert [(t, r.get("hid"), r.get("iid")) for t, r, _ in recorder.inserts] == [
            ("header", 10, None),
            ("item", 10, 900),
            ("item", 10, 901),
            ("item", 10, 902),
        ]
        assert {tid for _, _, tid in recorder.inserts} == {txn.tid}
        assert recorder.inserts[0][1]["tid_header"] == txn.tid
        assert all(row["tid_header"] == txn.tid for _, row, _ in recorder.inserts[1:])

    def test_header_and_items_in_one_table_are_refused(self):
        db = make_erp_db()
        with pytest.raises(Exception, match="two tables"):
            db.insert_business_object("header", {"hid": 1}, "header", [{"hid": 2}])
        assert db.table("header").row_count() == 0


class TestCheckpointWithOpenTransaction:
    def test_explicit_checkpoint_skips_and_the_directory_recovers(self, tmp_path):
        db = Database.open(tmp_path / "db")
        db.create_table("t", [("k", "INT")], primary_key="k")
        db.insert("t", {"k": 1})
        txn = db.begin()
        db.insert("t", {"k": 2}, txn=txn)
        assert db.checkpoint() is None
        txn.commit()
        db.close()
        reopened = Database.open(tmp_path / "db")
        assert sorted(
            reopened.table("t").get_row(k)["k"] for k in (1, 2)
        ) == [1, 2]
        assert reopened.checkpoint() is not None
        reopened.close()

    def test_merge_skips_its_checkpoint_and_the_directory_recovers(self, tmp_path):
        db = Database.open(tmp_path / "db")
        db.create_table("t", [("k", "INT")], primary_key="k")
        db.insert("t", {"k": 1})
        txn = db.begin()
        db.insert("t", {"k": 2}, txn=txn)
        db.merge()
        assert not any((tmp_path / "db" / "checkpoints").glob("checkpoint_*.json"))
        txn.commit()
        db.close()
        reopened = Database.open(tmp_path / "db")
        snapshot = reopened.transactions.global_snapshot()
        assert reopened.table("t").visible_row_count(snapshot) == 2
        reopened.close()


class TestRestoreValidates:
    @pytest.mark.parametrize("partition", ["main", "delta"])
    def test_a_crc_valid_checkpoint_with_a_wrong_type_is_refused(self, tmp_path, partition):
        db = make_erp_db()
        load_erp(db, n_headers=2, merge=True)
        load_erp(db, n_headers=1, start_hid=50, merge=False)
        save_database(db, tmp_path / "save")
        [path] = (tmp_path / "save").glob("checkpoint_*.json")
        state = json.loads(path.read_text())["state"]
        [spec] = [t for t in state["tables"] if t["name"] == "item"]
        [part] = [p for p in spec["partitions"] if p["name"] == partition]
        part["rows"][0]["price"] = "free"
        payload = json.dumps(state, sort_keys=True, separators=(",", ":"))
        document = {"crc": zlib.crc32(payload.encode("utf-8")), "state": state}
        path.write_text(json.dumps(document, sort_keys=True, separators=(",", ":")))
        with pytest.raises(SchemaError, match="expected FLOAT"):
            load_database(tmp_path / "save")


class TestCsvChunks:
    def test_each_chunk_is_one_batch(self, tmp_path):
        db = Database()
        db.create_table("t", [("k", "INT"), ("v", "TEXT")], primary_key="k")
        path = Path(tmp_path / "rows.csv")
        path.write_text("k,v\n1,a\n2,b\n3,c\n3,d\n5,e\n")
        with pytest.raises(IntegrityError):
            db.import_csv("t", path, batch_size=2)
        # The first chunk committed; the refused second chunk left nothing.
        keys = [k for k in range(1, 6) if db.table("t").get_row(k) is not None]
        assert keys == [1, 2]
