"""Answers checked by an engine that is not this one: the stdlib's sqlite3.

Every other oracle compares this engine with itself — UNCACHED shares the
parser, binder, kernels, visibility and aggregate semantics with every
cached strategy.  Here an ERP and a CH-benCHmark history (merges, late
items, updates, deletes) is stopped at several points; each table's rows
visible at the snapshot are copied into an in-memory sqlite database, and
the five ERP statements and the six CH templates must give the same rows
there as under every strategy, compared as multisets.  Prices and amounts
are multiples of 0.25, so every sum is exact and floats compare exactly.

UNCACHED never pins a row, so it never probes a primary key; the cached
strategies do, and this is the check of that path that does not rest on
the engine's own scans.  ``MIRROR_ROUNDS`` lengthens the histories (CI's
chaos job raises it); the default is short and fixed.
"""

import os
import random
import sqlite3
from collections import Counter

import pytest

from repro import Database, ExecutionStrategy
from repro.query import QueryExecutor
from repro.workloads import CH_QUERIES, ChBenchmark, ChConfig, ChTransactionDriver, ErpConfig, ErpWorkload

ROUNDS = int(os.environ.get("MIRROR_ROUNDS", "4"))
QUANTUM = 0.25


class QuantumRandom(random.Random):
    """``uniform`` draws multiples of :data:`QUANTUM`, so sums are exact."""

    def uniform(self, a: float, b: float) -> float:
        return a + QUANTUM * self.randint(0, int((b - a) / QUANTUM))


@pytest.fixture
def probes(monkeypatch):
    """How many subjoins gathered a partner main by primary key."""
    fired = Counter()
    original = QueryExecutor._probe

    def counting(self, call, combo, edge, *args):
        fired[edge.target] += 1
        return original(self, call, combo, edge, *args)

    monkeypatch.setattr(QueryExecutor, "_probe", counting)
    return fired


def mirror(db: Database, snapshot: int) -> sqlite3.Connection:
    """Each table's rows visible at ``snapshot``, in a fresh sqlite db."""
    con = sqlite3.connect(":memory:")
    for name in db.catalog.table_names():
        table = db.table(name)
        columns = table.schema.column_names
        con.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        for partition in table.partitions():
            rows = partition.visible_rows(snapshot)
            values = [partition.column(c).decode_rows(rows).tolist() for c in columns]
            con.executemany(
                f"INSERT INTO {name} VALUES ({', '.join('?' * len(columns))})",
                zip(*values),
            )
    return con


def assert_mirrored(db: Database, statements) -> None:
    snapshot = db.transactions.global_snapshot()
    con = mirror(db, snapshot)
    for sql in statements:
        want = Counter(map(tuple, con.execute(sql).fetchall()))
        assert want, sql
        for strategy in ExecutionStrategy:
            got = Counter(map(tuple, db.query(sql, strategy=strategy).rows))
            assert got == want, (strategy, sql)


#: No row qualifies: without GROUP BY, SQL still answers one row.
EMPTY_UNGROUPED = "SELECT COUNT(*), SUM(I.Price) FROM Item AS I WHERE I.Price < 0"


def erp_statements(w: ErpWorkload):
    return [
        w.profit_and_loss_sql(2013),
        w.profit_and_loss_sql(2014),
        w.header_item_sql(),
        w.single_table_sql(),
        w.doc_type_sql(),
        EMPTY_UNGROUPED,
    ]


@pytest.mark.parametrize("seed", [1, 2])
def test_erp_history_matches_sqlite(seed, probes):
    db = Database()
    workload = ErpWorkload(db, ErpConfig(items_per_header=4, late_item_rate=0.1, seed=seed))
    workload._rng = QuantumRandom(seed)  # the workload has no seam for its generator
    rng = QuantumRandom(seed + 1)
    _headers, items = workload.insert_objects(60)
    db.merge()
    statements = erp_statements(workload)
    assert_mirrored(db, statements)
    deleted = set()
    for round_no in range(1, ROUNDS + 1):
        workload.insert_objects(3)
        for _ in range(3):
            item = rng.randint(1, items)
            if item not in deleted:
                db.update("Item", item, {"Price": rng.uniform(1.0, 100.0)})
        item = rng.randint(1, items)
        if item not in deleted:
            deleted.add(item)
            db.delete("Item", item)
        db.update("Header", rng.randint(1, 60), {"FiscalYear": rng.choice([2012, 2013, 2014])})
        assert_mirrored(db, statements)
        if round_no % 2 == 0:
            db.merge()
    assert probes["H"]


def test_empty_ungrouped_aggregate_answers_one_row():
    """Under every strategy, also from a cached entry whose only group the
    compensation empties and then the merge retires — and on the repeated
    read that a remembered order would otherwise answer."""
    db = Database()
    workload = ErpWorkload(db, ErpConfig(items_per_header=2, seed=3))
    workload.insert_objects(4)
    db.merge()
    one_item = "SELECT COUNT(*) AS n, SUM(I.Price), AVG(I.Price) FROM Item AS I WHERE I.ItemID = 1"
    distinct = "SELECT COUNT(DISTINCT I.HeaderID), MAX(I.Price) FROM Item AS I WHERE I.ItemID = 1"
    statements = [EMPTY_UNGROUPED, one_item, distinct]
    assert_mirrored(db, statements)
    assert db.query(EMPTY_UNGROUPED).rows == [(0, None)]
    db.delete("Item", 1)
    assert_mirrored(db, statements)
    db.merge()
    for _ in range(2):
        assert_mirrored(db, statements)
        assert db.query(one_item).rows == [(0, None, None)]
    assert db.query(distinct).rows == [(0, None)]
    assert db.query(one_item + " HAVING n > 0").rows == []


@pytest.mark.parametrize("seed", [1])
def test_ch_history_matches_sqlite(seed, probes):
    db = Database()
    bench = ChBenchmark(
        db,
        ChConfig(
            warehouses=1,
            districts_per_warehouse=2,
            customers_per_district=10,
            orders_per_district=20,
            orderlines_per_order=4,
            items=60,
            suppliers=10,
            amount_quantum=QUANTUM,
            seed=seed,
        ),
    )
    bench.load()
    driver = ChTransactionDriver(bench, seed=seed + 1)
    driver._rng = QuantumRandom(seed + 1)  # no seam for its generator either
    statements = list(CH_QUERIES.values())
    assert_mirrored(db, statements)
    for round_no in range(1, ROUNDS + 1):
        for step in (driver.new_order, driver.payment, driver.new_order, driver.payment, driver.delivery):
            step()
        assert_mirrored(db, statements)
        if round_no % 2 == 0:
            db.merge()
    assert probes
