"""One scripted ERP history, written to a durable directory or replayed in memory.

``write_history(db)`` drives every kind of durable record: aged and
update-delta tables, matching dependencies, a consistent-aging declaration,
business objects, a merge (which writes the one checkpoint), then an
update, a delete, more inserts and DDL after the checkpoint, so recovery
restores the checkpoint *and* replays DDL and DML from the WAL.

``tests/reliability/data/parent_format`` holds a directory this script
wrote with an earlier revision of the engine; ``test_parent_format.py``
reopens it.  Regenerate (or write one to compare bytes across revisions)
with::

    PYTHONPATH=src python -m tests.reliability.durable_history OUT_DIR
"""

import sys

from repro import Database, threshold_aging

QUERIES = [
    "SELECT h.year, SUM(i.price) AS revenue, COUNT(*) AS n "
    "FROM header h JOIN item i ON h.hid = i.hid GROUP BY h.year",
    "SELECT c.name, SUM(i.price) AS revenue "
    "FROM category c JOIN item i ON c.cid = i.cid GROUP BY c.name",
    "SELECT a.region, SUM(p.amount) AS total, COUNT(*) AS n "
    "FROM account a JOIN posting p ON a.aid = p.aid GROUP BY a.region",
    "SELECT p.year, SUM(p.amount) AS total FROM posting p GROUP BY p.year",
]


def write_history(db: Database) -> None:
    """Apply the scripted history to an empty ``db``."""
    aging = threshold_aging("year", hot_if_at_least=2014)
    db.create_table(
        "category", [("cid", "INT"), ("name", "TEXT")], primary_key="cid"
    )
    db.create_table(
        "header", [("hid", "INT"), ("year", "INT")], primary_key="hid",
        aging_rule=aging,
    )
    db.create_table(
        "item",
        [("iid", "INT"), ("hid", "INT"), ("cid", "INT"), ("year", "INT"),
         ("price", "FLOAT")],
        primary_key="iid",
        aging_rule=aging,
    )
    db.add_matching_dependency("header", "hid", "item", "hid")
    db.add_matching_dependency("category", "cid", "item", "cid")
    db.declare_consistent_aging("header", "item")
    for cid in range(3):
        db.insert("category", {"cid": cid, "name": f"cat{cid}"})
    _business_objects(db, range(8))
    db.merge()  # logs the merge, then writes the directory's one checkpoint
    db.update("item", 4, {"price": 99.5})
    db.delete("item", 7)
    db.update("category", 1, {"name": "renamed"})
    _business_objects(db, range(8, 11))
    db.create_table(
        "account",
        [("aid", "INT"), ("year", "INT"), ("region", "TEXT")],
        primary_key="aid",
        aging_rule=aging,
        separate_update_delta=True,
    )
    db.create_table(
        "posting",
        [("pid", "INT"), ("aid", "INT"), ("year", "INT"), ("amount", "FLOAT")],
        primary_key="pid",
        aging_rule=aging,
        separate_update_delta=True,
    )
    db.add_matching_dependency("account", "aid", "posting", "aid")
    db.declare_consistent_aging("account", "posting")
    for aid in range(3):
        db.insert(
            "account",
            {"aid": aid, "year": 2013 + aid, "region": "EMEA" if aid % 2 else "APJ"},
        )
    for pid in range(9):
        db.insert(
            "posting",
            {"pid": pid, "aid": pid % 3, "year": 2013 + pid % 3, "amount": 1.5 * pid},
        )
    db.update("posting", 2, {"amount": -4.0})
    db.update("account", 0, {"region": "AMER"})
    db.delete("posting", 5)


def _business_objects(db: Database, hids) -> None:
    for hid in hids:
        year = 2012 + hid % 4
        items = [
            {"iid": hid * 3 + k, "hid": hid, "cid": (hid + k) % 3, "year": year,
             "price": float(hid % 4 + k) + 0.25}
            for k in range(3)
        ]
        db.insert_business_object("header", {"hid": hid, "year": year}, "item", items)


if __name__ == "__main__":
    durable = Database.open(sys.argv[1])
    write_history(durable)
    durable.close()
