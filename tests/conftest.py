"""Shared fixtures: a miniature ERP database in the paper's schema shape."""

import pytest

from repro import Database, ExecutionStrategy


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


@pytest.fixture
def erp_db() -> Database:
    """ERP db with 6 objects in the mains and 2 fresh objects in the deltas."""
    db = make_erp_db()
    load_erp(db, n_headers=6, merge=True)
    load_erp(db, n_headers=2, start_hid=100, merge=False)
    return db


def all_strategies():
    return list(ExecutionStrategy)
