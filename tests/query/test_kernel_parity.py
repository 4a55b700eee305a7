"""Randomized vectorized-vs-rowloop kernel parity.

The code-space join/aggregation kernels must be *bit-identical* to the
row-at-a-time reference: same result rows, same row order, same Python value
types.  This suite drives both kernels over seeded random databases covering
NULL join keys, empty deltas, duplicate build keys, main/delta dictionary
skew, and the delta-memo execution modes.

Float prices are quantized to multiples of 0.25 so float64 sums are exact
and order-independent — without that, comparing different summation orders
bitwise would be testing IEEE rounding, not the kernels.
"""

import random

import numpy as np
import pytest

from repro import Database, ExecutionStrategy
from repro.query import (
    AggFunc,
    AggregateQuery,
    AggregateSpec,
    Col,
    JoinEdge,
    QueryExecutor,
    TableRef,
)
from repro.query import operators
from repro.query.operators import (
    KERNEL_ROWLOOP,
    KERNEL_VECTORIZED,
    kernel_override,
)
from repro.storage import Catalog, ColumnDef, Schema, SqlType, merge_table
from repro.txn import TransactionManager

from ..conftest import forget_memos

TAGS = ["alpha", "beta", "gamma", "delta", "epsilon"]


@pytest.fixture(autouse=True, params=[1, None], ids=["vec-agg", "default-threshold"])
def vectorize_threshold(request, monkeypatch):
    """Run every parity case twice: once with the vectorized *aggregation*
    forced on (threshold 1 — the seeded combos are smaller than the real
    48-row cutoff and would otherwise only exercise the join kernels), and
    once with the stock threshold so the fallback wiring stays covered."""
    if request.param is not None:
        monkeypatch.setattr(operators, "_SMALL_INPUT_ROWS", request.param)


def build_catalog(seed: int, empty_delta: bool = False):
    """A seeded header/item catalog with deliberate kernel hazards.

    * some item rows carry a NULL ``hid`` (NULL join keys);
    * several items share one ``hid`` (duplicate build-side keys);
    * a merge happens mid-load, so mains carry sorted-rank dictionaries
      while deltas carry append-order ones (dictionary skew);
    * ``empty_delta=True`` stops loading at the merge (empty delta combos).
    """
    rng = random.Random(seed)
    catalog = Catalog()
    txn = TransactionManager()
    header = catalog.create_table(
        "header",
        Schema(
            [
                ColumnDef("hid", SqlType.INT, nullable=False),
                ColumnDef("year", SqlType.INT),
                ColumnDef("tag", SqlType.TEXT),
            ],
            primary_key="hid",
        ),
    )
    item = catalog.create_table(
        "item",
        Schema(
            [
                ColumnDef("iid", SqlType.INT, nullable=False),
                ColumnDef("hid", SqlType.INT),
                ColumnDef("tag", SqlType.TEXT),
                ColumnDef("price", SqlType.FLOAT),
                ColumnDef("qty", SqlType.INT),
            ],
            primary_key="iid",
        ),
    )
    iid = 0

    def load(n_headers: int, hid_base: int) -> None:
        nonlocal iid
        for hid in range(hid_base, hid_base + n_headers):
            header.insert(
                {
                    "hid": hid,
                    "year": 2013 + hid % 3,
                    "tag": rng.choice(TAGS),
                },
                txn.begin().tid,
            )
            for _ in range(rng.randint(0, 5)):
                iid += 1
                item.insert(
                    {
                        "iid": iid,
                        # ~1/6 NULL keys, ~1/6 dangling keys that match no
                        # header, the rest joining (often many per header).
                        "hid": rng.choice([hid, hid, hid, hid_base, None, 10**6 + hid]),
                        "tag": rng.choice(TAGS),
                        "price": rng.randrange(0, 400) / 4.0,  # 0.25 quanta
                        "qty": rng.randint(0, 9) if rng.random() < 0.9 else None,
                    },
                    txn.begin().tid,
                )

    load(rng.randint(3, 8), hid_base=0)
    merge_table(header, txn.latest_tid)
    merge_table(item, txn.latest_tid)
    if not empty_delta:
        load(rng.randint(2, 6), hid_base=100)
    return catalog, txn


def parity_query() -> AggregateQuery:
    return AggregateQuery(
        tables=[TableRef("item", "i"), TableRef("header", "h")],
        aggregates=[
            AggregateSpec(AggFunc.SUM, Col("price", "i"), "revenue"),
            AggregateSpec(AggFunc.SUM, Col("qty", "i"), "units"),
            AggregateSpec(AggFunc.AVG, Col("price", "i"), "avg_price"),
            AggregateSpec(AggFunc.COUNT, Col("qty", "i"), "n_qty"),
            AggregateSpec(AggFunc.COUNT, None, "n"),
        ],
        group_by=[Col("tag", "i"), Col("year", "h")],
        join_edges=[JoinEdge("h", "hid", "i", "hid")],
    )


def assert_bit_identical(a, b):
    """Same rows, same order, same value *types* (int stays int, etc.)."""
    assert a == b
    for row_a, row_b in zip(a, b):
        for va, vb in zip(row_a, row_b):
            assert type(va) is type(vb), (va, vb)


# The executor's one execution mode: subjoins run serially, in combination
# order, on the calling thread.  The parity matrices name it in their case ids.
MODES = ["serial"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("empty_delta", [False, True], ids=["delta", "empty-delta"])
@pytest.mark.parametrize("seed", range(5))
def test_join_and_aggregation_parity(seed, empty_delta, mode):
    catalog, txn = build_catalog(seed, empty_delta=empty_delta)
    results = {}
    for kernel in (KERNEL_VECTORIZED, KERNEL_ROWLOOP):
        with kernel_override(kernel):
            grouped = QueryExecutor(catalog).execute(parity_query(), txn.latest_tid)
        results[kernel] = grouped.finalize()
    assert_bit_identical(results[KERNEL_VECTORIZED], results[KERNEL_ROWLOOP])
    assert results[KERNEL_VECTORIZED]  # non-degenerate: something joined


@pytest.mark.parametrize("seed", range(3))
def test_join_index_level_parity(seed):
    """Below aggregation: the joined index arrays themselves must match,
    combo by combo, including empty intersections."""
    from repro.query.executor import choose_join_order  # noqa: F401 (import check)
    from repro.query.operators import build_hash_table, probe_hash_join
    from repro.query.operators import JoinedProvider

    catalog, txn = build_catalog(seed)
    header = catalog.table("header")
    item = catalog.table("item")
    for hpart in ("main", "delta"):
        for ipart in ("main", "delta"):
            build_part = item.partition(ipart)
            probe_part = header.partition(hpart)
            build_rows = np.arange(build_part.row_count, dtype=np.int64)
            probe_rows = np.arange(probe_part.row_count, dtype=np.int64)
            current = JoinedProvider({"h": probe_part}, {"h": probe_rows})
            outputs = {}
            for kernel in (KERNEL_VECTORIZED, KERNEL_ROWLOOP):
                table = build_hash_table(build_part, build_rows, ["hid"], kernel)
                if not table:
                    outputs[kernel] = None
                    continue
                joined = probe_hash_join(current, [("h", "hid")], "i", build_part, table)
                outputs[kernel] = {
                    alias: idx.tolist() for alias, idx in joined.indices.items()
                }
            assert outputs[KERNEL_VECTORIZED] == outputs[KERNEL_ROWLOOP]


DB_SQL = (
    "SELECT i.tag AS tag, SUM(i.price) AS revenue, COUNT(*) AS n "
    "FROM header h, item i WHERE h.hid = i.hid GROUP BY i.tag"
)


def _load_db(db: Database, seed: int, hid_base: int, merge: bool) -> None:
    rng = random.Random(seed)
    iid = hid_base * 100 + 1
    for hid in range(hid_base, hid_base + 5):
        items = []
        for _ in range(rng.randint(1, 4)):
            items.append(
                {
                    "iid": iid,
                    "hid": hid,
                    "tag": rng.choice(TAGS),
                    "price": rng.randrange(0, 400) / 4.0,
                    "qty": rng.randint(1, 5),
                }
            )
            iid += 1
        db.insert_business_object(
            "header", {"hid": hid, "year": 2013 + hid % 2, "tag": rng.choice(TAGS)}, "item", items
        )
    if merge:
        db.merge()


@pytest.mark.parametrize("keep_memos", [True, False], ids=["memo", "no-memo"])
def test_database_cached_strategies_parity(keep_memos):
    """End to end through the aggregate cache: cached compensation scans
    (including the memo steps' RowRange scans) must agree between kernels
    and with the uncached oracle — stepping each entry's memo, or (memos
    dropped before every read) stepping from its birth."""
    results = {}
    for kernel in (KERNEL_VECTORIZED, KERNEL_ROWLOOP):
        db = Database()
        db.create_table(
            "header",
            [("hid", "INT"), ("year", "INT"), ("tag", "TEXT")],
            primary_key="hid",
        )
        db.create_table(
            "item",
            [
                ("iid", "INT"),
                ("hid", "INT"),
                ("tag", "TEXT"),
                ("price", "FLOAT"),
                ("qty", "INT"),
            ],
            primary_key="iid",
        )
        db.add_matching_dependency("header", "hid", "item", "hid")
        with kernel_override(kernel):
            _load_db(db, seed=7, hid_base=0, merge=True)
            # Prime the cache on the mains, then grow the delta in two
            # steps so the second cached hit exercises memo advancement.
            first = db.query(DB_SQL, strategy=ExecutionStrategy.CACHED_FULL_PRUNING)
            _load_db(db, seed=8, hid_base=50, merge=False)
            if not keep_memos:
                forget_memos(db)
            second = db.query(DB_SQL, strategy=ExecutionStrategy.CACHED_FULL_PRUNING)
            _load_db(db, seed=9, hid_base=90, merge=False)
            if not keep_memos:
                forget_memos(db)
            cached = db.query(DB_SQL, strategy=ExecutionStrategy.CACHED_FULL_PRUNING)
            oracle = db.query(DB_SQL, strategy=ExecutionStrategy.UNCACHED)
        assert cached.rows == oracle.rows
        results[kernel] = (first.rows, second.rows, cached.rows)
    for got, want in zip(results[KERNEL_VECTORIZED], results[KERNEL_ROWLOOP]):
        assert_bit_identical(got, want)
