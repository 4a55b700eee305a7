"""Per-step kernel choice is invisible in results.

The executor picks each hash step's kernel from the sizes it already holds
(``operators.join_kernel``): the row loop when the step's build rows and
the tuples probing them both number at most ``_SMALL_INPUT_ROWS``, code
space otherwise.  Both kernels emit the same ``(probe position, build
row)`` sequence, so a subjoin that mixes them step by step must give
exactly what forcing either kernel everywhere gives: grouped state, result
order, value types, stats (probe sides included) and every row count on
the subjoin spans.  The catalogs carry the hazards of the kernel-parity
suite — NULL, dangling and duplicate keys, main/delta dictionary skew —
plus a composite join key whose one half is a FLOAT column meeting an INT
one (``1`` vs ``1.0`` across dictionaries), sizes straddling the cutoff,
and pinned ``fixed_rows`` arrays and ``RowRange`` sides.
"""

import random
from contextlib import nullcontext

import numpy as np
import pytest

from repro.query import (
    AggregateQuery,
    Col,
    ComboSpec,
    ExecutionStats,
    JoinEdge,
    QueryExecutor,
    TableRef,
)
from repro.query import operators
from repro.query.executor import RowRange
from repro.query.operators import KERNEL_ROWLOOP, KERNEL_VECTORIZED, kernel_override
from repro.storage import Catalog, ColumnDef, Schema, SqlType, merge_table
from repro.txn import TransactionManager
from tests.query.test_kernel_parity import MODES, TAGS, parity_query
from tests.query.test_semi_join_reduction import assert_same_execution

N = operators._SMALL_INPUT_ROWS
DEFAULT = "default"
BOTH = {KERNEL_ROWLOOP, KERNEL_VECTORIZED}


def create(catalog, name, *columns):
    """A table keyed on its first column."""
    defs = [ColumnDef(col, sql_type, nullable=i > 0) for i, (col, sql_type) in enumerate(columns)]
    return catalog.create_table(name, Schema(defs, primary_key=columns[0][0]))


def build_catalog(seed, n_headers, n_items, merge_after=None, quantum=True):
    """header / item / region, all in deltas unless the first
    ``merge_after`` headers, with a proportional share of the items, are
    merged mid-load.

    ``item.hid`` is FLOAT against ``header.hid`` INT and the items join on
    ``(hid, year)``; a sixth of the item keys are NULL, a third dangle, the
    rest repeat their header's key — a NULL ``year`` on both sides included,
    which must never match.  Five regions take the headers' ``rid``.
    """
    rng = random.Random(seed)
    catalog, txn = Catalog(), TransactionManager()
    region = create(catalog, "region", ("rid", SqlType.INT), ("name", SqlType.TEXT))
    header = create(
        catalog, "header", ("hid", SqlType.INT), ("year", SqlType.INT), ("rid", SqlType.INT)
    )
    item = create(
        catalog, "item", ("iid", SqlType.INT), ("hid", SqlType.FLOAT), ("year", SqlType.INT),
        ("tag", SqlType.TEXT), ("price", SqlType.FLOAT), ("qty", SqlType.INT),
    )
    for rid in range(5):
        region.insert({"rid": rid, "name": f"R{rid}"}, txn.begin().tid)
    merge_table(region, txn.latest_tid)
    years = {}

    def load_items(start, stop):
        for iid in range(start, stop):
            hid, kind = rng.choice(list(years)), rng.randrange(6)
            row = {
                "iid": iid,
                "hid": None if kind == 0 else (10**6 + hid if kind < 3 else hid),
                "year": years[hid] if rng.random() < 0.9 else None,
                "tag": rng.choice(TAGS),
                "price": rng.randrange(400) / 4.0 if quantum else rng.uniform(0, 100),
                "qty": rng.randint(0, 9) if rng.random() < 0.9 else None,
            }
            item.insert(row, txn.begin().tid)

    merged_items = 0
    for hid in range(n_headers):
        years[hid] = 2013 + rng.randrange(3) if rng.random() < 0.9 else None
        row = {"hid": hid, "year": years[hid], "rid": rng.choice([0, 1, 2, 3, 4, None])}
        header.insert(row, txn.begin().tid)
        if hid + 1 == merge_after:
            merged_items = n_items * merge_after // n_headers
            load_items(0, merged_items)
            merge_table(header, txn.latest_tid)
            merge_table(item, txn.latest_tid)
    load_items(merged_items, n_items)
    return catalog, txn


ITEM_HEADER = [JoinEdge("i", "hid", "h", "hid"), JoinEdge("i", "year", "h", "year")]


def pair_query() -> AggregateQuery:
    return AggregateQuery(
        tables=[TableRef("item", "i"), TableRef("header", "h")],
        aggregates=parity_query().aggregates,
        group_by=[Col("tag", "i"), Col("year", "h")],
        join_edges=ITEM_HEADER,
    )


def chain_query(group_by=(Col("tag", "i"), Col("name", "r"))) -> AggregateQuery:
    return AggregateQuery(
        tables=[TableRef("item", "i"), TableRef("header", "h"), TableRef("region", "r")],
        aggregates=parity_query().aggregates,
        group_by=group_by,
        join_edges=ITEM_HEADER + [JoinEdge("h", "rid", "r", "rid")],
    )


def tuple_order_query() -> AggregateQuery:
    """Every item joins at most one header and one region, so grouping by
    the item key makes the result order the joined tuple order."""
    return chain_query(group_by=[Col("iid", "i"), Col("name", "r")])


def run(catalog, query, snapshot, kernel, combos=None):
    """One execution under the default rule (``kernel=DEFAULT``) or with a
    kernel forced; returns (grouped state, stats, subjoin spans)."""
    stats, spans = ExecutionStats(), []
    with nullcontext() if kernel == DEFAULT else kernel_override(kernel):
        grouped = QueryExecutor(catalog).execute(
            query, snapshot, combos=combos, stats=stats, span_sink=spans
        )
    return grouped, stats, spans


def check_default(catalog, query, snapshot, combos=None, forced=tuple(BOTH)):
    """The default rule against each forced kernel: everything but the
    ``kernels`` span attribute must be identical.  Returns the default
    run's spans."""
    default = run(catalog, query, snapshot, DEFAULT, combos and combos())
    for kernel in forced:
        other = run(catalog, query, snapshot, kernel, combos and combos())
        assert_same_execution(other, default)
        assert [counts(span) for span in other[2]] == [counts(span) for span in default[2]]
        assert set().union(*(kernels(span) for span in other[2])) <= {kernel}
    return default[2]


def counts(span):
    return {key: value for key, value in span.attrs.items() if key != "kernels"}


def kernels(span):
    return set(span.attrs.get("kernels", {}).values())


@pytest.mark.parametrize(
    "n_headers,n_items,expected",
    [
        (N, N, KERNEL_ROWLOOP),
        (N, N + 1, KERNEL_VECTORIZED),  # the probe side crosses the cutoff
        (N + 1, N + 1, KERNEL_VECTORIZED),  # both sides do
    ],
)
def test_sizes_at_the_cutoff(n_headers, n_items, expected):
    """One hash step over delta-only inputs of exactly N and N + 1 rows."""
    catalog, txn = build_catalog(11, n_headers, n_items)
    header, item = catalog.table("header"), catalog.table("item")

    def combos():
        return [ComboSpec({"i": item.partition("delta"), "h": header.partition("delta")})]

    (span,) = check_default(catalog, pair_query(), txn.latest_tid, combos)
    assert span.attrs["rows_scanned"] == {"h": n_headers, "i": n_items}
    assert "rows_after_reduction" not in span.attrs
    assert span.attrs["probe_side"] == "i"
    assert span.attrs["kernels"] == {"h": expected}
    assert span.attrs["rows_aggregated"] > 0


def test_hash_memo_is_keyed_on_the_kernel(monkeypatch):
    """Two subjoins of one call hash the same full header scan, the first
    probed by 45 pinned items, the second by all 100: each step gets a
    table of the kernel it chose, never the other subjoin's."""
    catalog, txn = build_catalog(3, 40, 100)
    header, item = catalog.table("header"), catalog.table("item")
    built = []
    real_build = operators.build_hash_table

    def recording_build(*args):
        built.append(real_build(*args))
        return built[-1]

    monkeypatch.setattr("repro.query.executor.build_hash_table", recording_build)
    partitions = {"i": item.partition("delta"), "h": header.partition("delta")}
    combos = [
        ComboSpec(dict(partitions), fixed_rows={"i": np.arange(45, dtype=np.int64)}),
        ComboSpec(dict(partitions)),
    ]
    _, _, spans = run(catalog, pair_query(), txn.latest_tid, DEFAULT, combos)
    assert [span.attrs["kernels"]["h"] for span in spans] == [KERNEL_ROWLOOP, KERNEL_VECTORIZED]
    assert [table.kernel for table in built] == [KERNEL_ROWLOOP, KERNEL_VECTORIZED]


@pytest.mark.parametrize("quantum", [True, False], ids=["quantum", "non-quantum"])
@pytest.mark.parametrize("query", [chain_query, tuple_order_query])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", range(4))
def test_random_catalogs_mix_kernels(seed, mode, query, quantum):
    """Every partition combination of a three-table chain over mains and
    deltas: in the all-main subjoin the 82 items probe the headers in code
    space and the few dozen joined tuples probe the regions in the row
    loop.  Non-quantum float prices make sums depend on summation order;
    they are compared against forced code space only, whose aggregation
    path is the default's (the size cutoff decides it in both), so the join
    kernels are all that differs."""
    catalog, txn = build_catalog(seed, 60, 110, merge_after=45, quantum=quantum)
    spans = check_default(
        catalog, query(), txn.latest_tid,
        forced=tuple(BOTH) if quantum else (KERNEL_VECTORIZED,),
    )
    assert set().union(*map(kernels, spans)) == BOTH
    assert any(kernels(span) == BOTH for span in spans)


@pytest.mark.parametrize("query", [chain_query, tuple_order_query])
@pytest.mark.parametrize("mode", MODES)
def test_fixed_rows_and_row_ranges(mode, query):
    """Pinned index arrays and RowRange sides of N and N + 1 rows, as the
    compensation terms pin them."""
    catalog, txn = build_catalog(5, 120, 260, merge_after=100)
    header, item = catalog.table("header"), catalog.table("item")
    h_main, h_delta = header.partition("main"), header.partition("delta")
    i_main, i_delta = item.partition("main"), item.partition("delta")
    r_main = catalog.table("region").partition("main")
    first_n = np.arange(N, dtype=np.int64)
    spread = np.arange(0, 2 * (N + 1), 2, dtype=np.int64)

    def combos():
        mains = {"i": i_main, "h": h_main, "r": r_main}
        return [
            ComboSpec(dict(mains), fixed_rows={"h": first_n}),
            ComboSpec(dict(mains), fixed_rows={"i": first_n}),
            ComboSpec(dict(mains), fixed_rows={"i": spread}),
            ComboSpec(
                {"i": i_delta, "h": h_delta, "r": r_main},
                fixed_rows={"i": RowRange(0, N), "h": RowRange(0, N + 1)},
            ),
            ComboSpec(
                {"i": i_main, "h": h_delta, "r": r_main}, fixed_rows={"i": RowRange(N, 2 * N + 1)}
            ),
            ComboSpec(
                {"i": i_delta, "h": h_main, "r": r_main},
                fixed_rows={"h": spread, "i": RowRange(0, 0)},
            ),
        ]

    spans = check_default(catalog, query(), txn.latest_tid, combos)
    assert set().union(*map(kernels, spans)) == BOTH
