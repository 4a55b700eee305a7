"""Section 6.3 — insert overhead of matching-dependency enforcement.

Paper results: inserting an Item row *without* the tidHeader lookup and
without referential-integrity checks takes about 50 % of the time of an
insert with RI checks; the tid look-up alone costs 20 % of the RI check
(rising towards 30 % as the Header table grows), and the two can be
combined into a single primary-key probe — which is exactly how this
engine implements enforcement.

Three modes are measured per Header-table size:

* ``plain``       — no MDs, no RI: the raw insert path;
* ``ri_check``    — a parent-existence probe before the plain insert;
* ``md_enforced`` — full enforcement: one probe serving both the RI check
  and the tid copy (the paper's "combined" design).
"""

import pytest

from repro import Database
from repro.workloads import ErpConfig, ErpWorkload

HEADER_COUNTS = [500, 2000, 8000]
INSERTS = 300


def build(with_mds: bool, n_headers: int):
    db = Database()
    workload = ErpWorkload(
        db,
        ErpConfig(seed=3, n_categories=10, items_per_header=1),
        install_mds=with_mds,
    )
    workload.insert_objects(n_headers, merge_after=True)
    return db


def item_rows(start: int, n_headers: int):
    return [
        {
            "ItemID": 10_000_000 + start + i,
            "HeaderID": (i % n_headers) + 1,
            "CategoryID": i % 10,
            "FiscalYear": 2013,
            "Amount": 1,
            "Price": 9.99,
        }
        for i in range(INSERTS)
    ]


def run_plain(db, rows):
    for row in rows:
        db.insert("Item", row)


def run_ri_check(db, rows):
    header = db.table("Header")
    for row in rows:
        if header.get_row(row["HeaderID"]) is None:  # referential integrity
            raise AssertionError("missing parent")
        db.insert("Item", row)


@pytest.mark.parametrize("n_headers", HEADER_COUNTS, ids=lambda n: f"headers{n}")
@pytest.mark.parametrize("mode", ["plain", "ri_check", "md_enforced"])
def test_sec63_insert_overhead(fastest_round, figures, mode, n_headers):
    counter = {"round": 0}

    def setup():
        db = build(with_mds=(mode == "md_enforced"), n_headers=n_headers)
        rows = item_rows(counter["round"] * INSERTS, n_headers)
        counter["round"] += 1
        return (db, rows), {}

    if mode == "ri_check":
        target = run_ri_check
    else:
        target = run_plain
    per_insert_us = fastest_round(target, setup=setup) / INSERTS * 1e6
    report = figures.report(
        "Sec. 6.3",
        "per-insert overhead of RI checks and tid lookup",
        "plain insert ~50% of RI-checked insert; tid lookup ~20-30% of the "
        "RI check and combinable with it",
        ["mode", "header_rows", "microseconds_per_insert"],
    )
    report.add_row(mode, n_headers, round(per_insert_us, 1))
