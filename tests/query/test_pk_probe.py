"""A pinned input probes its partners' primary keys instead of scanning them.

When a subjoin pins an alias to given rows and a join edge runs from that
alias to another alias' single-column primary key on a main partition, the
executor gathers the partner's rows through the main's pk array
(``Table.pk_rows``) instead of scanning the whole main.  The probe is exact
or it does not run: every case here compares the cached answer with
``ExecutionStrategy.UNCACHED`` (which pins nothing, so never probes) and
checks whether the probe fired.  The executor-level half compares the probe
with the scan path it replaces on the kernel-parity catalogs.
"""

import random

import numpy as np
import pytest

from repro import ExecutionStrategy
from repro.query import ComboSpec, QueryExecutor
from repro.query import operators
from repro.query.executor import RowRange
from repro.query.operators import pk_probe
from repro.query.sql import parse_sql
from repro.storage import threshold_aging
from tests.conftest import HEADER_ITEM_SQL, PROFIT_SQL, forget_memos, load_erp, make_erp_db
from tests.query.test_kernel_parity import build_catalog, parity_query

CACHED = [s for s in ExecutionStrategy if s.uses_cache]
UNCACHED = ExecutionStrategy.UNCACHED

#: The header year a read filters on — a local filter on the probed alias.
YEAR_SQL = (
    "SELECT i.cid AS cid, SUM(i.price) AS profit, COUNT(*) AS n "
    "FROM header h, item i WHERE h.hid = i.hid AND h.year = 2014 GROUP BY i.cid"
)


@pytest.fixture
def probed(monkeypatch):
    """Every alias a probe gathered, in order, while the test runs."""
    fired = []
    original = QueryExecutor._probe

    def recording(self, call, combo, edge, *args):
        fired.append(edge.target)
        return original(self, call, combo, edge, *args)

    monkeypatch.setattr(QueryExecutor, "_probe", recording)
    return fired


def scan_only(monkeypatch):
    """Take the probe out: every partner main is scanned and reduced."""
    monkeypatch.setattr(QueryExecutor, "_gatherable", lambda self, *args: {})


def check(db, sql, fired, **read):
    """Every cached strategy, each read stepping from the entry's birth
    (so every term pins its rows), equals UNCACHED; returns the aliases
    the cached reads probed."""
    truth = db.query(sql, strategy=UNCACHED, **read).rows
    del fired[:]
    for strategy in CACHED:
        db.query(sql, strategy=strategy)  # the entry exists before the read
        forget_memos(db)
        assert db.query(sql, strategy=strategy, **read).rows == truth, strategy
    return set(fired)


def merged_erp():
    db = make_erp_db()
    load_erp(db, n_headers=8, items_per_header=3, merge=True)
    return db


def late_items(db, hid, count, start):
    """``count`` items of a merged header, each in its own transaction."""
    for k in range(count):
        db.insert("item", {"iid": start + k, "hid": hid, "cid": k % 2, "price": 1.25 * (k + 1)})


class TestProbeFires:
    def test_partner_invalidated_after_the_merge_read_before_and_after(self, probed):
        db = merged_erp()
        for sql in (HEADER_ITEM_SQL, PROFIT_SQL):
            db.query(sql)
        late_items(db, hid=2, count=2, start=900)
        reader = db.begin()
        before = db.transactions.global_snapshot()
        db.delete("header", 2)
        for sql in (HEADER_ITEM_SQL, PROFIT_SQL):
            assert "h" in check(db, sql, probed, as_of=before)
            assert "h" in check(db, sql, probed, txn=reader)
            assert "h" in check(db, sql, probed)
        # Before the delete the late items join their header; after, not.
        old = db.query(HEADER_ITEM_SQL, as_of=before).rows
        assert old != db.query(HEADER_ITEM_SQL).rows

    def test_partner_key_updated_into_the_delta(self, probed):
        db = merged_erp()
        db.query(YEAR_SQL)
        late_items(db, hid=2, count=2, start=900)
        db.update("header", 2, {"year": 2014})  # new version in the delta
        assert "h" in check(db, YEAR_SQL, probed)
        db.update("item", 1, {"price": 4.5})  # a main term pins item 1
        assert "h" in check(db, YEAR_SQL, probed)

    def test_pinned_null_foreign_key(self, probed):
        db = merged_erp()
        db.query(HEADER_ITEM_SQL)
        db.insert("item", {"iid": 900, "hid": None, "cid": 0, "price": 2.0})
        late_items(db, hid=1, count=1, start=901)
        assert "h" in check(db, HEADER_ITEM_SQL, probed)

    def test_pinned_key_absent_from_the_partner_main(self, probed):
        db = merged_erp()
        db.query(HEADER_ITEM_SQL)
        # A header and items written after the merge: their key is in the
        # header delta only; the probe of the header main finds nothing.
        load_erp(db, n_headers=1, items_per_header=2, start_hid=40, merge=False)
        assert "h" in check(db, HEADER_ITEM_SQL, probed)

    def test_several_pinned_rows_share_one_key(self, probed):
        db = merged_erp()
        db.query(PROFIT_SQL)
        late_items(db, hid=5, count=4, start=900)
        db.update("item", 15, {"price": 3.75})
        db.update("item", 16, {"price": 0.5})
        assert "h" in check(db, PROFIT_SQL, probed)

    def test_hot_and_cold_mains_of_an_aged_table(self, probed):
        db = make_erp_db()
        db.create_table(
            "aged",
            [("hid", "INT"), ("year", "INT")],
            primary_key="hid",
            aging_rule=threshold_aging("year", 2014),
        )
        for hid in range(12):
            db.insert("aged", {"hid": hid, "year": 2012 + hid % 4})
        load_erp(db, n_headers=12, items_per_header=1, merge=False)
        db.merge()
        sql = (
            "SELECT a.year AS y, SUM(i.price) AS s, COUNT(*) AS n "
            "FROM aged a, item i WHERE a.hid = i.hid GROUP BY a.year"
        )
        db.query(sql)
        # Main compensation pins the old versions of a cold key's and a hot
        # key's item; each term probes one of the two mains of ``aged``.
        db.update("item", 1, {"price": 6.25})
        db.update("item", 3, {"price": 7.5})
        late_items(db, hid=1, count=1, start=900)
        db.update("aged", 2, {"year": 2015})  # moves to the hot delta
        assert "a" in check(db, sql, probed)

    def test_pushdown_filters_on_the_probed_alias(self, probed):
        db = merged_erp()
        db.query(HEADER_ITEM_SQL, strategy=ExecutionStrategy.CACHED_FULL_PRUNING)
        late_items(db, hid=6, count=2, start=900)
        trace = db.explain_analyze(HEADER_ITEM_SQL, strategy=ExecutionStrategy.CACHED_FULL_PRUNING)
        spans = [s for s in trace.root.walk() if s.attrs.get("probed")]
        assert spans
        assert all("h" in s.attrs.get("pushdown_filters", {}) for s in spans)
        assert trace.result.rows == db.query(HEADER_ITEM_SQL, strategy=UNCACHED).rows


class TestProbeFallsBack:
    def test_keep_history_main_is_scanned(self, probed):
        db = make_erp_db()
        load_erp(db, n_headers=8, merge=False)
        db.update("header", 1, {"year": 2016})
        db.merge(keep_history=True)  # two versions of header 1 in its main
        header = db.table("header")
        assert header.pk_rows(header.partition("main")) is None
        db.query(HEADER_ITEM_SQL)
        late_items(db, hid=1, count=2, start=900)
        assert "h" not in check(db, HEADER_ITEM_SQL, probed)

    def test_edge_that_ends_in_no_primary_key(self, probed):
        db = merged_erp()
        db.query(HEADER_ITEM_SQL)
        # Pinned headers reach item by item.hid, not item's key: item's main
        # is scanned.  (The pinned side holds the primary key.)
        db.update("header", 2, {"year": 2019})
        fired = check(db, HEADER_ITEM_SQL, probed)
        assert "i" not in fired

    def test_pinned_side_not_smaller_than_the_partner_main(self, probed):
        db = merged_erp()  # two categories in the category main
        db.query(PROFIT_SQL)
        late_items(db, hid=4, count=3, start=900)
        fired = check(db, PROFIT_SQL, probed)
        assert "h" in fired and "d" not in fired


class TestExecutorParity:
    """The probe against the scan path it replaces, on random catalogs."""

    @pytest.mark.parametrize("small", [True, False], ids=["row-lookups", "arrays"])
    @pytest.mark.parametrize("seed", range(6))
    def test_probe_gathers_every_main_row_holding_a_pinned_key(self, monkeypatch, seed, small):
        if not small:
            monkeypatch.setattr(operators, "_SMALL_INPUT_ROWS", 0)
        catalog, txn = build_catalog(seed)
        header, item = catalog.table("header"), catalog.table("item")
        h_main = header.partition("main")
        pk_rows = header.pk_rows(h_main)
        assert pk_rows is not None
        rng = random.Random(seed)
        for part in (item.partition("main"), item.partition("delta")):
            for _ in range(5):
                keys = np.array(sorted(rng.sample(range(part.row_count), rng.randint(1, part.row_count))))
                got = pk_probe(part, keys, "hid", h_main, "hid", pk_rows)
                wanted = set(part.column("hid").decode_rows(keys).tolist()) - {None}
                want = [r for r in range(h_main.row_count) if h_main.column("hid").value_at(r) in wanted]
                assert got.tolist() == want

    @pytest.mark.parametrize("seed", range(6))
    def test_pinned_subjoins_equal_the_scan_path(self, monkeypatch, probed, seed):
        catalog, txn = build_catalog(seed)
        query = parity_query()
        item = catalog.table("item")
        h_main = catalog.table("header").partition("main")
        i_main, i_delta = item.partition("main"), item.partition("delta")
        rng = random.Random(seed)
        combos = [
            ComboSpec({"h": h_main, "i": i_delta}, fixed_rows={"i": RowRange(1, 3)}),
            ComboSpec(
                {"h": h_main, "i": i_main},
                fixed_rows={"i": np.array(sorted(rng.sample(range(i_main.row_count), 3)))},
                sign=-1,
            ),
            ComboSpec({"h": h_main, "i": i_delta}, fixed_rows={"i": RowRange(0, i_delta.row_count)}),
        ]
        gathered = QueryExecutor(catalog).execute(query, txn.latest_tid, combos=combos)
        assert "h" in probed
        scan_only(monkeypatch)
        scanned = QueryExecutor(catalog).execute(query, txn.latest_tid, combos=combos)
        assert sorted(gathered.finalize(), key=repr) == sorted(scanned.finalize(), key=repr)

    def test_a_main_scanned_earlier_in_the_call_is_not_probed(self, monkeypatch, probed):
        """Two terms share the header main: the first pins more item rows
        than the main has and scans it; the second, pinned to two rows,
        reduces that memoized scan instead of probing the main."""
        db = merged_erp()
        query = parse_sql(HEADER_ITEM_SQL)
        snapshot = db.transactions.global_snapshot()
        h_main = db.table("header").partition("main")
        i_main = db.table("item").partition("main")
        assert i_main.row_count > h_main.row_count
        wide = ComboSpec({"h": h_main, "i": i_main}, fixed_rows={"i": RowRange(0, i_main.row_count)})
        narrow = ComboSpec({"h": h_main, "i": i_main}, fixed_rows={"i": np.array([0, 4])}, sign=-1)
        both = db.executor.execute(query, snapshot, combos=[wide, narrow])
        assert probed == []
        alone = db.executor.execute(query, snapshot, combos=[narrow])
        assert probed == ["h"]
        scan_only(monkeypatch)
        assert both.finalize() == db.executor.execute(query, snapshot, combos=[wide, narrow]).finalize()
        assert alone.finalize() == db.executor.execute(query, snapshot, combos=[narrow]).finalize()
