"""Shared fixtures: a miniature ERP database in the paper's schema shape."""

import pytest

from repro import Database, ExecutionStrategy
from repro.workloads.erp import ErpConfig, ErpWorkload


PROFIT_SQL = (
    "SELECT d.name AS category, SUM(i.price) AS profit, COUNT(*) AS n "
    "FROM header h, item i, category d "
    "WHERE h.hid = i.hid AND i.cid = d.cid "
    "GROUP BY d.name"
)

HEADER_ITEM_SQL = (
    "SELECT i.cid AS cid, SUM(i.price) AS profit, COUNT(*) AS n "
    "FROM header h, item i WHERE h.hid = i.hid GROUP BY i.cid"
)


def make_erp_db(separate_update_delta: bool = False, **db_kwargs) -> Database:
    """Empty header/item/category schema with both MDs installed."""
    db = Database(**db_kwargs)
    db.create_table(
        "category",
        [("cid", "INT"), ("name", "TEXT"), ("lang", "TEXT")],
        primary_key="cid",
        separate_update_delta=separate_update_delta,
    )
    db.create_table(
        "header",
        [("hid", "INT"), ("year", "INT")],
        primary_key="hid",
        separate_update_delta=separate_update_delta,
    )
    db.create_table(
        "item",
        [("iid", "INT"), ("hid", "INT"), ("cid", "INT"), ("price", "FLOAT")],
        primary_key="iid",
        separate_update_delta=separate_update_delta,
    )
    db.add_matching_dependency("header", "hid", "item", "hid")
    db.add_matching_dependency("category", "cid", "item", "cid")
    return db


def forget_memos(db: Database) -> None:
    """Drop every entry's compensation memo (and the remembered order tied
    to it): the next read of each entry steps from its birth, which is what
    a recompute of the whole compensation is."""
    for entry in db.cache.entries():
        entry.delta_memo = entry.result_order = None


def query_exhaustive(db: Database, sql: str, **kwargs):
    """``db.query`` with star-join reduction switched off for this one
    statement: every compensation variant is enumerated (the paper's
    exhaustive baseline)."""
    config = db.cache.config
    previous, config.star_join_reduction = config.star_join_reduction, False
    try:
        return db.query(sql, **kwargs)
    finally:
        config.star_join_reduction = previous


def load_erp(
    db: Database,
    n_headers: int = 6,
    items_per_header: int = 3,
    n_categories: int = 2,
    merge: bool = True,
    start_hid: int = 0,
) -> None:
    """Insert business objects; optionally merge them into the mains."""
    for cid in range(n_categories):
        if db.table("category").get_row(cid) is None:
            db.insert("category", {"cid": cid, "name": f"cat{cid}", "lang": "ENG"})
    iid = start_hid * 100
    for hid in range(start_hid, start_hid + n_headers):
        items = []
        for k in range(items_per_header):
            items.append(
                {
                    "iid": iid,
                    "hid": hid,
                    "cid": (hid + k) % n_categories,
                    "price": float((hid % 5) + k + 1),
                }
            )
            iid += 1
        db.insert_business_object(
            "header", {"hid": hid, "year": 2013 + hid % 2}, "item", items
        )
    if merge:
        db.merge()


def scatter_erp_writes(db: Database) -> dict:
    """A merged ERP load, then writes that leave every kind of key behind:
    main keys, main keys updated (new version in a delta), main and delta
    keys deleted, a deleted main key written again, delta-only keys.
    Returns every key ever written, per table."""
    load_erp(db, n_headers=4, merge=True)  # hid 0..3, iid 0..11
    load_erp(db, n_headers=2, start_hid=50, merge=False)  # iid 5000..5005
    db.update("item", 0, {"price": 9.0})
    db.update("item", 5000, {"price": 8.0})
    db.update("header", 1, {"year": 2020})
    for iid in (1, 2, 5001):
        db.delete("item", iid)
    db.insert("item", {"iid": 2, "hid": 51, "cid": 0, "price": 7.0})
    return {
        "category": [0, 1],
        "header": [0, 1, 2, 3, 50, 51],
        "item": list(range(12)) + list(range(5000, 5006)),
    }


def mid_stream_erp(statements):
    """An ERP stream between two merges (seed 3): 30 merged objects with
    ``statements`` cached, then 4 new objects (some items late) and
    re-priced and deleted merged items, so a read compensates its mains and
    its deltas.  Returns the database and its workload."""
    db = Database()
    erp = ErpWorkload(db, ErpConfig(late_item_rate=0.1, seed=3))
    erp.insert_objects(30, merge_after=True)
    for sql in statements:
        db.query(sql)
    erp.insert_objects(4)
    for item_id in (3, 17, 41):
        db.update("Item", item_id, {"Price": 2.5})
    db.delete("Item", 58)
    return db, erp


def assert_same_pk_lookups(actual: Database, expected: Database, keys: dict) -> None:
    """Every key of ``keys`` resolves to the same locator and row in both."""
    for name, table_keys in keys.items():
        for key in table_keys:
            got, want = actual.table(name), expected.table(name)
            assert got.pk_lookup(key) == want.pk_lookup(key), (name, key)
            assert got.get_row(key) == want.get_row(key), (name, key)


@pytest.fixture
def erp_db() -> Database:
    """ERP db with 6 objects in the mains and 2 fresh objects in the deltas."""
    db = make_erp_db()
    load_erp(db, n_headers=6, merge=True)
    load_erp(db, n_headers=2, start_hid=100, merge=False)
    return db


def all_strategies():
    return list(ExecutionStrategy)
