"""Sideways information passing: semi-join reduction is invisible in results.

``QueryExecutor`` thins every skewed subjoin input to the rows whose join
key occurs on its smaller neighbour before any hash table is built.  The
reduction only drops rows that join nothing and the join order ranks the
*scanned* counts, so grouped state, stats and result order must be
bit-identical whether the module thresholds say "always reduce" or "never
reduce" — across the seeded random catalogs of the kernel-parity suite
(NULL keys, dangling FKs, duplicate keys, main/delta dictionary skew), a
cyclic join graph with a two-edge step, pinned ``fixed_rows`` arrays and
``RowRange`` sides, and both join kernels.  The thresholds are patched here only; there
is no runtime switch.
"""

import random

import numpy as np
import pytest

from repro.plan.cost import choose_join_order
from repro.query import (
    AggFunc,
    AggregateQuery,
    AggregateSpec,
    Col,
    ComboSpec,
    ExecutionStats,
    JoinEdge,
    QueryExecutor,
    TableRef,
)
from repro.query import operators
from repro.query.executor import RowRange, all_partition_combos
from repro.query.operators import (
    KERNEL_ROWLOOP,
    KERNEL_VECTORIZED,
    kernel_override,
    semi_join_reduce,
)
from repro.storage import Catalog, ColumnDef, Schema, SqlType, merge_table
from repro.txn import TransactionManager
from tests.query.test_kernel_parity import (
    MODES,
    assert_bit_identical,
    build_catalog,
    parity_query,
)

ALWAYS = (0, 0)
NEVER = (float("inf"), float("inf"))
KERNELS = [KERNEL_VECTORIZED, KERNEL_ROWLOOP]


def run(monkeypatch, skews, catalog, query, snapshot, combos=None):
    """One execution under the given (row skew, key skew) thresholds;
    returns (grouped state, stats, subjoin spans)."""
    monkeypatch.setattr(operators, "_SEMI_JOIN_ROW_SKEW", skews[0])
    monkeypatch.setattr(operators, "_SEMI_JOIN_KEY_SKEW", skews[1])
    stats, spans = ExecutionStats(), []
    grouped = QueryExecutor(catalog).execute(
        query, snapshot, combos=combos, stats=stats, span_sink=spans
    )
    return grouped, stats, spans


def assert_same_execution(a, b):
    """Grouped state, result order, value types and every counter."""
    (grouped_a, stats_a, _), (grouped_b, stats_b, _) = a, b
    assert list(grouped_a.keys()) == list(grouped_b.keys())
    states_a, states_b = grouped_a.state_columns(), grouped_b.state_columns()
    assert states_a[1].tolist() == states_b[1].tolist()
    for a, b in zip(states_a[2], states_b[2]):
        assert [x.tolist() for x in a] == [y.tolist() for y in b]
    assert_bit_identical(grouped_a.finalize(), grouped_b.finalize())
    assert stats_a == stats_b


def reduced_spans(spans):
    return [span for span in spans if "rows_after_reduction" in span.attrs]


# ---------------------------------------------------------------------------
# random header/item catalogs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(5))
def test_random_catalogs_always_equals_never(monkeypatch, seed, mode, kernel):
    catalog, txn = build_catalog(seed)
    with kernel_override(kernel):
        always = run(monkeypatch, ALWAYS, catalog, parity_query(), txn.latest_tid)
        never = run(monkeypatch, NEVER, catalog, parity_query(), txn.latest_tid)
    assert_same_execution(always, never)
    assert reduced_spans(always[2]) and not reduced_spans(never[2])
    for span in always[2]:
        scanned = span.attrs["rows_scanned"]  # reported as scanned, not as joined
        joined = span.attrs.get("rows_after_reduction", scanned)
        assert all(joined[alias] <= scanned[alias] for alias in scanned)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("mode", MODES)
def test_fixed_rows_and_row_ranges(monkeypatch, mode, kernel):
    """Pinned index arrays and RowRange sides reduce (and are reduced) like
    plain scans; array-pinned sides bypass visibility on both paths."""
    catalog, txn = build_catalog(3)
    header, item = catalog.table("header"), catalog.table("item")
    h_main, h_delta = header.partition("main"), header.partition("delta")
    i_main, i_delta = item.partition("main"), item.partition("delta")
    some_headers = np.array([0, h_main.row_count - 1], dtype=np.int64)
    odd_items = np.arange(1, i_main.row_count, 2, dtype=np.int64)

    def combos():
        return [
            ComboSpec({"h": h_main, "i": i_main}, fixed_rows={"h": some_headers}),
            ComboSpec({"h": h_main, "i": i_main}, fixed_rows={"i": odd_items}),
            ComboSpec(
                {"h": h_delta, "i": i_delta},
                fixed_rows={"h": RowRange(0, 1), "i": RowRange(0, i_delta.row_count)},
            ),
            ComboSpec(
                {"h": h_main, "i": i_delta},
                fixed_rows={"i": RowRange(1, i_delta.row_count)},
            ),
            ComboSpec({"h": h_delta, "i": i_main}, fixed_rows={"h": RowRange(5, 5)}),
        ]

    with kernel_override(kernel):
        always = run(
            monkeypatch, ALWAYS, catalog, parity_query(), txn.latest_tid,
            combos=combos(),
        )
        never = run(
            monkeypatch, NEVER, catalog, parity_query(), txn.latest_tid,
            combos=combos(),
        )
    assert_same_execution(always, never)
    assert always[1].combos_evaluated == 5
    assert always[1].combos_empty >= 1  # the empty RowRange(5, 5) side
    assert reduced_spans(always[2])


# ---------------------------------------------------------------------------
# a cyclic join graph: one step joins on two edges at once
# ---------------------------------------------------------------------------
def build_cycle_catalog(seed: int):
    """customer / orders / supplier with Q5's ``c_nation = su_nation`` cycle.

    NULL and dangling foreign keys on orders, NULL nations, a merge mid-load
    (sorted main dictionaries against append-order delta ones).
    """
    rng = random.Random(seed)
    catalog = Catalog()
    txn = TransactionManager()
    customer = catalog.create_table(
        "customer",
        Schema(
            [ColumnDef("ckey", SqlType.INT, nullable=False), ColumnDef("nation", SqlType.INT)],
            primary_key="ckey",
        ),
    )
    supplier = catalog.create_table(
        "supplier",
        Schema(
            [ColumnDef("skey", SqlType.INT, nullable=False), ColumnDef("nation", SqlType.INT)],
            primary_key="skey",
        ),
    )
    orders = catalog.create_table(
        "orders",
        Schema(
            [
                ColumnDef("okey", SqlType.INT, nullable=False),
                ColumnDef("ckey", SqlType.INT),
                ColumnDef("skey", SqlType.INT),
                ColumnDef("amount", SqlType.FLOAT),
            ],
            primary_key="okey",
        ),
    )
    okey = 0

    def load(n_parties: int, base: int) -> None:
        nonlocal okey
        for key in range(base, base + n_parties):
            customer.insert(
                {"ckey": key, "nation": rng.choice([0, 1, 2, None])}, txn.begin().tid
            )
            supplier.insert(
                {"skey": key, "nation": rng.choice([0, 1, 2, None])}, txn.begin().tid
            )
        def party():
            # mostly a loaded key (old or new), sometimes NULL or dangling
            known = rng.choice([rng.randrange(base, base + n_parties), rng.randrange(0, 5)])
            return rng.choice([known, known, known, None, 10**6])

        for _ in range(n_parties * 12):
            okey += 1
            orders.insert(
                {
                    "okey": okey,
                    "ckey": party(),
                    "skey": party(),
                    "amount": rng.randrange(0, 400) / 4.0,  # 0.25 quanta: exact sums
                },
                txn.begin().tid,
            )

    load(rng.randint(5, 9), base=0)
    for table in (customer, supplier, orders):
        merge_table(table, txn.latest_tid)
    load(rng.randint(2, 4), base=100)
    return catalog, txn


def cycle_query() -> AggregateQuery:
    return AggregateQuery(
        tables=[TableRef("customer", "c"), TableRef("orders", "o"), TableRef("supplier", "su")],
        aggregates=[
            AggregateSpec(AggFunc.SUM, Col("amount", "o"), "revenue"),
            AggregateSpec(AggFunc.COUNT, None, "n"),
        ],
        group_by=[Col("nation", "c")],
        join_edges=[
            JoinEdge("o", "ckey", "c", "ckey"),
            JoinEdge("o", "skey", "su", "skey"),
            JoinEdge("c", "nation", "su", "nation"),
        ],
    )


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(3))
def test_multi_edge_cycle_always_equals_never(monkeypatch, seed, mode, kernel):
    catalog, txn = build_cycle_catalog(seed)
    query = cycle_query()
    _first, steps = choose_join_order(query, {"c": 5, "o": 50, "su": 6})
    assert max(len(step.edges) for step in steps) == 2  # the cycle closes in one step
    with kernel_override(kernel):
        always = run(monkeypatch, ALWAYS, catalog, query, txn.latest_tid)
        never = run(monkeypatch, NEVER, catalog, query, txn.latest_tid)
    assert_same_execution(always, never)
    assert always[1].combos_evaluated == 8
    assert always[0].group_count() > 0
    assert reduced_spans(always[2])


# ---------------------------------------------------------------------------
# memo poisoning, empty subjoins
# ---------------------------------------------------------------------------
def build_chain_catalog():
    """region (4) — store (40, ten per region) — sale (400, ten per store)."""
    catalog = Catalog()
    txn = TransactionManager()
    region = catalog.create_table(
        "region",
        Schema(
            [ColumnDef("rid", SqlType.INT, nullable=False), ColumnDef("name", SqlType.TEXT)],
            primary_key="rid",
        ),
    )
    store = catalog.create_table(
        "store",
        Schema(
            [ColumnDef("sid", SqlType.INT, nullable=False), ColumnDef("rid", SqlType.INT)],
            primary_key="sid",
        ),
    )
    sale = catalog.create_table(
        "sale",
        Schema(
            [
                ColumnDef("xid", SqlType.INT, nullable=False),
                ColumnDef("sid", SqlType.INT),
                ColumnDef("amount", SqlType.INT),
            ],
            primary_key="xid",
        ),
    )
    for rid in range(4):
        region.insert({"rid": rid, "name": f"R{rid}"}, txn.begin().tid)
    for sid in range(40):
        store.insert({"sid": sid, "rid": sid % 4}, txn.begin().tid)
    for xid in range(400):
        sale.insert({"xid": xid, "sid": xid % 40, "amount": xid}, txn.begin().tid)
    for table in (region, store, sale):
        merge_table(table, txn.latest_tid)
    return catalog, txn


def chain_query() -> AggregateQuery:
    return AggregateQuery(
        tables=[TableRef("region", "r"), TableRef("store", "s"), TableRef("sale", "x")],
        aggregates=[
            AggregateSpec(AggFunc.SUM, Col("amount", "x"), "total"),
            AggregateSpec(AggFunc.COUNT, None, "n"),
        ],
        group_by=[Col("name", "r")],
        join_edges=[JoinEdge("s", "rid", "r", "rid"), JoinEdge("x", "sid", "s", "sid")],
    )


@pytest.mark.parametrize("mode", MODES)
def test_reduced_hash_table_never_enters_shared_memo(monkeypatch, mode):
    """Two subjoins of one ``execute`` call share the ``store`` partition
    under one hash-memo key; the first hashes it semi-join-reduced to one
    region's stores, the second needs all forty.  A reduced table stored
    under the shared key would silently drop thirty stores' sales."""
    catalog, txn = build_chain_catalog()
    partitions = {
        alias: catalog.table(name).partition("main")
        for alias, name in (("r", "region"), ("s", "store"), ("x", "sale"))
    }
    one_region = np.array([2], dtype=np.int64)

    def combos():
        return [
            ComboSpec(dict(partitions), fixed_rows={"r": one_region}),
            ComboSpec(dict(partitions)),
        ]

    # Stock thresholds: the pinned region reduces store and sale; all four
    # regions cover the whole store.rid dictionary, so the guard declines.
    stock = (operators._SEMI_JOIN_ROW_SKEW, operators._SEMI_JOIN_KEY_SKEW)
    default = run(
        monkeypatch, stock, catalog, chain_query(), txn.latest_tid,
        combos=combos(),
    )
    never = run(
        monkeypatch, NEVER, catalog, chain_query(), txn.latest_tid,
        combos=combos(),
    )
    assert_same_execution(default, never)
    pinned, full = default[2]
    assert pinned.attrs["rows_after_reduction"] == {"r": 1, "s": 10, "x": 100}
    assert "rows_after_reduction" not in full.attrs
    assert pinned.attrs["probe_side"] == full.attrs["probe_side"] == "x"
    assert default[0].finalize() == [
        ("R2", 2 * sum(range(2, 400, 4)), 200),
        ("R0", sum(range(0, 400, 4)), 100),
        ("R1", sum(range(1, 400, 4)), 100),
        ("R3", sum(range(3, 400, 4)), 100),
    ]


def test_empty_after_reduction_counts_as_empty_subjoin(monkeypatch):
    """A side reduced to nothing empties the subjoin before any hash table
    is built; it is counted exactly as the unreduced path counts it."""
    catalog, txn = build_chain_catalog()
    region = catalog.table("region")
    region.insert({"rid": 9, "name": "R9"}, txn.begin().tid)  # no store there
    query = chain_query()
    combos = [
        ComboSpec(partitions)
        for partitions in all_partition_combos(query, catalog)
        if partitions["r"].kind == "delta"
    ]
    built = []
    real_build = operators.build_hash_table

    def counting_build(*args):
        built.append(args)
        return real_build(*args)

    monkeypatch.setattr("repro.query.executor.build_hash_table", counting_build)
    always = run(monkeypatch, ALWAYS, catalog, query, txn.latest_tid, combos=combos)
    assert not built
    never = run(monkeypatch, NEVER, catalog, query, txn.latest_tid, combos=combos)
    assert built
    assert_same_execution(always, never)
    assert always[1].combos_evaluated == always[1].combos_empty == len(combos) > 0
    main_span = next(
        span for span in always[2] if span.attrs["combo"] == "(r:delta, s:main, x:main)"
    )
    assert main_span.attrs["status"] == "empty"
    assert main_span.attrs["rows_scanned"] == {"r": 1, "s": 40, "x": 400}
    assert main_span.attrs["rows_after_reduction"] == {"r": 1, "s": 0, "x": 400}


# ---------------------------------------------------------------------------
# the operator itself
# ---------------------------------------------------------------------------
class TestSemiJoinReduce:
    def test_guards_decline_without_copying(self):
        catalog, _txn = build_chain_catalog()
        region = catalog.table("region").partition("main")
        store = catalog.table("store").partition("main")
        stores = np.arange(40, dtype=np.int64)
        # Row skew: 20 key rows against 40 rows is not 4x.
        assert semi_join_reduce(store, stores[:20], "rid", store, stores, "rid") is stores
        # Key skew: four regions cover the whole four-value dictionary.
        regions = np.arange(4, dtype=np.int64)
        assert semi_join_reduce(region, regions, "rid", store, stores, "rid") is stores

    def test_keeps_order_and_skips_null_and_absent_keys(self, monkeypatch):
        monkeypatch.setattr(operators, "_SEMI_JOIN_ROW_SKEW", ALWAYS[0])
        monkeypatch.setattr(operators, "_SEMI_JOIN_KEY_SKEW", ALWAYS[1])
        catalog, _txn = build_catalog(1)
        header = catalog.table("header").partition("delta")
        item = catalog.table("item").partition("main")
        items = np.arange(item.row_count, dtype=np.int64)
        headers = np.arange(1, dtype=np.int64)  # one delta header: hid 100
        kept = semi_join_reduce(header, headers, "hid", item, items, "hid")
        # Main items never reference a delta-only header; NULL hids never match.
        assert kept.tolist() == []
        main_header = catalog.table("header").partition("main")
        one = np.array([0], dtype=np.int64)
        kept = semi_join_reduce(main_header, one, "hid", item, items, "hid")
        hid = main_header.column("hid").value_at(0)
        expected = [row for row in items.tolist() if item.column("hid").value_at(row) == hid]
        assert kept.tolist() == expected and expected
