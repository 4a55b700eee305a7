"""Model-based check of the pure hit: random histories of the engine's real
operations over a CH-shaped and an ERP-shaped database.

Invariant: every ``query()`` returns exactly the rows of the same call at
``ExecutionStrategy.UNCACHED`` as a multiset (ORDER BY ties differ between
strategies — ROADMAP's oracle item), and a read answered from a remembered
output order returns the identical row *sequence* as the read that
remembered it.  Each machine must also see ``result_reused`` at least once,
so the test cannot pass by never taking the path under test.

The same machine guards the cancelling of silent updates
(``repro.core.effective_rows``): ``touch`` gives one key several versions in
a row — changing a column no join statement reads, one they do, writing a
value back, deleting — inside and outside open transactions, with merges,
refreshes and older readers in between, and each machine must see
``silent_rows_cancelled`` at least once.

Plans are keyed on the tables' structural epochs: DML re-derives a cached
plan's prune verdicts over its skeleton, and a star-join exclusion flip
rebuilds it.  Each machine must see both, and ``clear_plan_cache`` mixes
fresh builds in between.

Compensation memos advance by a visibility step (``repro.core.delta_memo``)
over every write.  Each machine must see a step over a main row that left
(an update or delete of a merged row), over a delta row that left, and over
a delta row below the memo's watermark that entered — one a newer
transaction had appended before an older reader advanced the memo past it.
A read the entry's memo cannot serve steps from the entry's birth instead,
and each machine must see that for every reason: no memo (a new entry, or
one whose memo a shed or merge dropped), a ``stale`` memo (an older open
transaction stamped a row the memo counted), an ``older_reader``, and
``not_cached``: ``cap`` shrinks the cache to one entry or none, so a miss
can build an entry that eviction drops at once and that answers its read
all the same.  A memo's anchor never moves back: an older reader's step from birth
leaves the entry's memo as it was.
"""

import os
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro import Database, ExecutionStrategy
from repro.core import manager
from repro.workloads import CH_QUERIES, ChBenchmark, ChConfig

from ..conftest import HEADER_ITEM_SQL, PROFIT_SQL, load_erp, make_erp_db

CACHED = [s for s in ExecutionStrategy if s.uses_cache]
UNCACHED = ExecutionStrategy.UNCACHED
QUANTUM = 0.25  # every amount a multiple: sums are exact in any fold order
HOWS = ["silent", "silent", "relevant", "same", "delete"]


class ErpShape:
    """header / item / category with both matching dependencies."""

    statements = [
        PROFIT_SQL,
        PROFIT_SQL + " HAVING n > 2 ORDER BY profit DESC, category LIMIT 2",
        HEADER_ITEM_SQL,
        HEADER_ITEM_SQL + " ORDER BY n DESC, cid",
        "SELECT h.year AS year, COUNT(*) AS n FROM header h GROUP BY h.year",
        # Reads no price: every price update is silent for it, and its memo
        # (one table, so no main epoch in it) advances across them.
        "SELECT i.cid AS cid, COUNT(*) AS n FROM item i GROUP BY i.cid",
    ]
    tables = ["header", "item", "category"]

    def __init__(self):
        self.db = make_erp_db()
        load_erp(self.db, n_headers=6, n_categories=3, merge=True)
        self.items = list(range(18))  # load_erp numbers them from 0
        self.next_id = 5000

    def insert(self, k, txn):
        """A header with two items, or (k odd) one late item of an old header."""
        db = self.db
        self.next_id += 1
        if k % 2:
            row = {"iid": self.next_id, "hid": k % 6, "cid": k % 3, "price": QUANTUM * k}
            db.insert("item", row, txn=txn)
            self.items.append(self.next_id)
            return
        hid = self.next_id
        db.insert("header", {"hid": hid, "year": 2013 + k % 2}, txn=txn)
        for j in range(2):
            self.next_id += 1
            db.insert(
                "item",
                {"iid": self.next_id, "hid": hid, "cid": (k + j) % 3, "price": QUANTUM * (k + j)},
                txn=txn,
            )
            self.items.append(self.next_id)

    def update(self, k, txn):
        if k % 5 == 0:  # a dimension row: every joined group renames
            self.db.update("category", k % 3, {"name": f"cat{k % 4}"}, txn=txn)
        elif self.items:
            iid = self.items[k % len(self.items)]
            self.db.update("item", iid, {"price": QUANTUM * (k % 40)}, txn=txn)

    def delete(self, k, txn, newest=False):
        if self.items:
            at = -1 if newest else k % len(self.items)
            self.db.delete("item", self.items.pop(at), txn=txn)

    def touch(self, k, how, txn):
        """One more version (or the end) of the key ``k`` picks.  A header's
        year is silent for the joins and relevant for the header statement;
        an item has no column every statement ignores."""
        db = self.db
        if k % 3 == 0:
            column = "lang" if how == "silent" else "name"
            value = f"v{k % 4}"
            if how == "same":
                value = db.table("category").get_row(k % 3)[column]
            db.update("category", k % 3, {column: value}, txn=txn)
        elif k % 3 == 1:
            hid = k % 6
            year = db.table("header").get_row(hid)["year"]
            db.update("header", hid, {"year": year if how == "same" else 2013 + k % 3}, txn=txn)
        elif self.items:
            iid = self.items[k % len(self.items)]
            if how == "delete":
                self.items.remove(iid)
                db.delete("item", iid, txn=txn)
                return
            price = db.table("item").get_row(iid)["price"]
            db.update("item", iid, {"price": QUANTUM * (k % 40) if how == "relevant" else price}, txn=txn)


class ChShape:
    """A tiny CH-benCHmark database, fully merged."""

    statements = [CH_QUERIES[name] for name in ("Q3", "Q5", "Q8", "Q10")] + [
        CH_QUERIES["Q10"].replace("ORDER BY revenue DESC", "HAVING revenue > 50 ORDER BY c_key LIMIT 4"),
        # One table: its memo never sees a main epoch (see ErpShape).
        "SELECT c.c_state AS state, COUNT(*) AS n FROM customer c GROUP BY c.c_state",
    ]
    tables = ["orders", "orderline", "customer", "neworder"]

    def __init__(self):
        self.db = Database()
        self.bench = ChBenchmark(
            self.db,
            ChConfig(
                warehouses=1,
                districts_per_warehouse=2,
                customers_per_district=4,
                orders_per_district=6,
                orderlines_per_order=3,
                items=12,
                suppliers=4,
                delta_fraction=0.0,
                amount_quantum=QUANTUM,
                seed=7,
            ),
        )
        self.bench.load()
        self.db.merge()
        snapshot = self.db.transactions.global_snapshot()
        self.orders = self._keys("orders", "o_key", snapshot)
        self.orderlines = self._keys("orderline", "ol_key", snapshot)
        self.customers = self._keys("customer", "c_key", snapshot)
        self.stock = self._keys("stock", "s_key", snapshot)
        self.next_id = 90000

    def _keys(self, table, column, snapshot):
        keys = []
        for partition in self.db.table(table).partitions():
            for row in partition.visible_rows(snapshot):
                keys.append(partition.get_row(int(row))[column])
        return sorted(keys)

    def _orderline(self, o_key, k):
        self.next_id += 1
        s_key = self.stock[k % len(self.stock)]
        stock = self.db.table("stock").get_row(s_key)
        self.orderlines.append(self.next_id)
        return {
            "ol_key": self.next_id,
            "ol_o_key": o_key,
            "ol_i_id": stock["s_i_id"],
            "ol_s_key": s_key,
            "ol_quantity": 1 + k % 5,
            "ol_amount": QUANTUM * (k % 400),
            "ol_delivery_d": "2014-03-01",
        }

    def insert(self, k, txn):
        """A new order with two lines (and its neworder row), or (k odd) a
        late orderline of an existing order."""
        db = self.db
        if k % 2:
            o_key = self.orders[k % len(self.orders)]
            db.insert("orderline", self._orderline(o_key, k), txn=txn)
            return
        self.next_id += 1
        o_key = self.next_id
        db.insert(
            "orders",
            {
                "o_key": o_key, "o_w_id": 1, "o_d_id": 1, "o_id": o_key,
                "o_c_key": self.customers[k % len(self.customers)],
                "o_entry_d": "2014-03-01", "o_year": 2014, "o_carrier_id": None,
            },
            txn=txn,
        )
        self.orders.append(o_key)
        self.next_id += 1
        db.insert("neworder", {"no_key": self.next_id, "no_o_key": o_key}, txn=txn)
        for j in range(2):
            db.insert("orderline", self._orderline(o_key, k + j), txn=txn)

    def update(self, k, txn):
        if k % 4 == 0:
            c_key = self.customers[k % len(self.customers)]
            state = ("CA", "NY", "TX", "WA")[k % 4 if k % 8 else 1]
            self.db.update("customer", c_key, {"c_state": state}, txn=txn)
        else:
            ol_key = self.orderlines[k % len(self.orderlines)]
            self.db.update("orderline", ol_key, {"ol_amount": QUANTUM * (k % 300)}, txn=txn)

    def delete(self, k, txn, newest=False):
        if len(self.orderlines) > 4:
            ol_key = self.orderlines.pop(-1 if newest else k % len(self.orderlines))
            self.db.delete("orderline", ol_key, txn=txn)

    def touch(self, k, how, txn):
        """One more version (or the end) of the key ``k`` picks: the payment
        and delivery columns no statement reads, or one some statement does."""
        db = self.db
        table, keys, silent, relevant = (
            ("customer", self.customers, ("c_balance", QUANTUM * (k % 90)), ("c_state", "CANYTXWA"[k % 4 * 2:][:2])),
            ("orders", self.orders, ("o_carrier_id", 1 + k % 9), ("o_year", 2012 + k % 3)),
            ("orderline", self.orderlines, ("ol_delivery_d", f"2014-04-{1 + k % 28:02d}"), ("ol_amount", QUANTUM * (k % 300))),
        )[k % 3]
        key = keys[k % len(keys)]
        if how == "delete":
            if table == "orderline" and len(keys) > 4:
                keys.remove(key)
                db.delete(table, key, txn=txn)
            return
        column, value = silent if how == "silent" else relevant
        if how == "same":
            value = db.table(table).get_row(key)[column]
        db.update(table, key, {column: value}, txn=txn)


class PureHitMachine(RuleBasedStateMachine):
    shape_class = None
    reuses = 0  # per machine class, across all examples
    cancelled = 0
    rederived = 0
    flips = 0
    births = Counter()  # steps from birth, by delta_memo_reason

    def __init__(self):
        super().__init__()
        self.shape = self.shape_class()
        self.db = self.shape.db
        self.open = []  # explicitly begun, not yet finished transactions
        #: id(ResultOrder) -> (the order, the rows of the read that remembered it)
        self.remembered = {}
        #: id(entry) -> (the entry, the anchor of the last memo seen on it)
        self.anchors = {}
        self.last = 0  # index of the statement read last

    def teardown(self):
        for txn in self.open:
            txn.abort()
        stats = self.db.plan_cache.stats()
        type(self).rederived += stats["rederived"]
        type(self).flips += stats["exclusion_flips"]
        self.db.close()

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _txn(self, pick):
        """None (auto-commit) or one of the open transactions."""
        if not self.open or pick % 3 == 0:
            return None
        return self.open[pick % len(self.open)]

    @rule(k=st.integers(0, 10_000), pick=st.integers(0, 50))
    def insert(self, k, pick):
        self.shape.insert(k, self._txn(pick))

    @rule(k=st.integers(0, 10_000), pick=st.integers(0, 50))
    def update(self, k, pick):
        self.shape.update(k, self._txn(pick))

    @rule(k=st.integers(0, 10_000), pick=st.integers(0, 50), newest=st.booleans())
    def delete(self, k, pick, newest):
        """Any row, or the one inserted last (still in a delta, below the
        watermark of a memo that stepped over its insert)."""
        self.shape.delete(k, self._txn(pick), newest)

    @rule(
        k=st.integers(0, 10_000),
        hows=st.lists(st.sampled_from(HOWS), min_size=1, max_size=3),
        picks=st.lists(st.integers(0, 50), min_size=3, max_size=3),
    )
    def touch(self, k, hows, picks):
        """Up to three versions of one key in a row, each in a transaction
        of its own choosing."""
        for how, pick in zip(hows, picks):
            self.shape.touch(k, how, self._txn(pick))

    @precondition(lambda self: len(self.open) < 3)
    @rule()
    def begin(self):
        self.open.append(self.db.begin())

    @precondition(lambda self: self.open)
    @rule(pick=st.integers(0, 50), commit=st.booleans())
    def finish(self, pick, commit):
        txn = self.open.pop(pick % len(self.open))
        txn.commit() if commit else txn.abort()

    # ------------------------------------------------------------------
    # maintenance and configuration
    # ------------------------------------------------------------------
    @rule()
    def merge_all(self):
        self.db.merge()

    @rule(pick=st.integers(0, 50))
    def merge_one(self, pick):
        self.db.merge(self.shape.tables[pick % len(self.shape.tables)])

    @rule()
    def refresh(self):
        """What a refresh installs on an entry only shows in the next read
        of that entry, so every statement is read right after it."""
        self.db.refresh_cache()
        for sql in self.shape.statements:
            self._read(sql, None, {})

    @rule()
    def shed_everything(self):
        self.db.cache.shed_to_budget(0)

    @rule(cap=st.sampled_from([None, 1, 0]))
    def cap(self, cap):
        """No bound, one entry at most, or none: under a cap an admission
        evicts an entry — at 1 often, at 0 always, the one just built."""
        self.db.cache.config.max_entries = cap

    @rule()
    def clear_plan_cache(self):
        self.db.plan_cache.clear()

    @rule(flag=st.sampled_from(["star_join_reduction", "predicate_pushdown"]))
    def toggle(self, flag):
        config = self.db.cache.config
        setattr(config, flag, not getattr(config, flag))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @rule(
        # None: the statement of the previous read again, so that "read,
        # write, read the same" histories are common rather than lucky.
        which=st.none() | st.integers(0, 50),
        strategy=st.sampled_from(CACHED),
        reader=st.sampled_from(["fresh", "fresh", "fresh", "txn", "as_of"]),
        back=st.integers(0, 6),
        no_star=st.booleans(),
        repeat=st.integers(1, 3),
    )
    def query(self, which, strategy, reader, back, no_star, repeat):
        if which is not None:
            self.last = which % len(self.shape.statements)
        sql = self.shape.statements[self.last]
        kwargs = {}
        if no_star:
            kwargs["star_join_tables"] = ()
        if reader == "txn" and self.open:
            kwargs["txn"] = self.open[back % len(self.open)]
        elif reader == "as_of":
            # Around the remembered anchors: a few tids back, or just ahead.
            latest = self.db.transactions.global_snapshot()
            kwargs["as_of"] = max(1, latest + 1 - back)
        for _ in range(repeat):
            self._read(sql, strategy, kwargs)

    @rule(k=st.integers(0, 10_000), which=st.integers(0, 50))
    def delete_what_a_memo_covers(self, k, which):
        """Insert and read, so that the memo steps over the new rows, then
        delete the newest: the next read steps over a delta row leaving."""
        self.last = which % len(self.shape.statements)
        self.shape.insert(k, None)
        self._read(self.shape.statements[self.last], None, {})
        self.shape.delete(k, None, newest=True)

    @rule(k=st.integers(0, 10_000), which=st.integers(0, 50))
    def stamp_below_the_anchor(self, k, which):
        """An open transaction deletes a row after a newer read stepped the
        memo past its snapshot: the anchor's own state changed, so the next
        read of that statement steps from birth (``stale``)."""
        self.last = which % len(self.shape.statements)
        writer = self.db.begin()
        self.shape.insert(k, None)
        self._read(self.shape.statements[self.last], None, {})
        self.shape.delete(k, writer)
        writer.commit()

    @rule(k=st.integers(0, 10_000), which=st.integers(0, 50))
    def read_older_than_the_memo(self, k, which):
        """A transaction begun after the entry existed reads once a newer
        read stepped the memo past it: it steps from birth
        (``older_reader``) and installs nothing."""
        self.last = which % len(self.shape.statements)
        sql = self.shape.statements[self.last]
        self._read(sql, None, {})
        txn = self.db.begin()
        self.shape.insert(k, None)
        self._read(sql, None, {})
        self._read(sql, None, {"txn": txn})
        txn.commit()

    @rule(k=st.integers(0, 10_000), strategy=st.sampled_from(CACHED))
    def read_behind_a_newer_writer(self, k, strategy):
        """A transaction reads the last statement after a newer one wrote:
        its step carries the memo's watermark past rows it cannot see, and
        the next fresh read must find them below it."""
        txn = self.db.begin()
        self.shape.insert(k, None)
        self._read(self.shape.statements[self.last], strategy, {"txn": txn})
        txn.commit()

    @invariant()
    def last_statement_still_equals_uncached(self):
        """After every step — each write, merge, shed, toggle — the
        statement read last is read again by a fresh reader."""
        self._read(self.shape.statements[self.last], None, {})

    def _read(self, sql, strategy, kwargs):
        truth = self.db.query(sql, strategy=UNCACHED, **kwargs).rows
        entries = self.db.cache.entries_for(self.db.parse(sql))
        memos = [(entry, entry.delta_memo) for entry in entries]
        result = self.db.query(sql, strategy=strategy, **kwargs)
        assert Counter(result.rows) == Counter(truth), (sql, kwargs, strategy)
        report = result.report
        type(self).cancelled += report.silent_rows_cancelled
        if report.delta_memo_mode == "full":
            type(self).births[report.delta_memo_reason] += 1
            if report.delta_memo_reason == "older_reader":
                for entry, memo in memos:
                    assert entry.delta_memo is memo, (sql, kwargs)
        self._check_sequence(sql, result)
        self._check_anchor(sql)

    def _check_anchor(self, sql):
        for entry in self.db.cache.entries_for(self.db.parse(sql)):
            if entry.delta_memo is None:
                continue
            _entry, anchor = self.anchors.get(id(entry), (entry, 0))
            assert entry.delta_memo.anchor >= anchor, (sql, anchor, entry.delta_memo.anchor)
            self.anchors[id(entry)] = (entry, entry.delta_memo.anchor)

    def _check_sequence(self, sql, result):
        entries = self.db.cache.entries_for(self.db.parse(sql))
        order = entries[0].result_order if len(entries) == 1 else None
        if result.report.result_reused:
            type(self).reuses += 1
            assert result.rows == self.remembered[id(order)][1]
        elif order is not None and id(order) not in self.remembered:
            # Every read of this machine passes through here and only reads
            # install orders, so an unseen order is this read's own.  (The
            # object is kept alongside so its id cannot be recycled.)
            self.remembered[id(order)] = (order, result.rows)


class ErpMachine(PureHitMachine):
    shape_class = ErpShape


class ChMachine(PureHitMachine):
    shape_class = ChShape


SETTINGS = settings(
    # CI's chaos job raises the budget (STATEFUL_EXAMPLES).
    max_examples=int(os.environ.get("STATEFUL_EXAMPLES", "30")),
    stateful_step_count=40,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)


@pytest.fixture
def counted_steps(monkeypatch):
    """Record, per machine class, what the memos' visibility steps moved."""
    real = manager.visibility_step
    counts = Counter()

    def counted(memo, entry, snapshot):
        step = real(memo, entry, snapshot)
        for pid, shift in (step.shifts if step is not None else {}).items():
            kind = memo.partitions[pid].kind
            for sign, rows in shift.parts:
                if isinstance(rows, np.ndarray):
                    if sign < 0:
                        counts[f"{kind}_left"] += 1
                    elif kind == "delta":
                        counts["entered_below"] += 1
        return step

    monkeypatch.setattr(manager, "visibility_step", counted)
    return counts


def _run(machine, steps):
    machine.reuses = machine.cancelled = 0
    machine.rederived = machine.flips = 0
    machine.births = Counter()
    run_state_machine_as_test(machine, settings=SETTINGS)
    assert machine.reuses > 0
    assert machine.cancelled > 0
    assert machine.rederived > 0
    assert machine.flips > 0
    for moved in ("main_left", "delta_left", "entered_below"):
        assert steps[moved] > 0, moved
    for reason in ("", "stale", "older_reader", "not_cached"):
        assert machine.births[reason] > 0, (reason, machine.births)


def test_erp_histories_equal_uncached_and_do_reuse(counted_steps):
    _run(ErpMachine, counted_steps)


def test_ch_histories_equal_uncached_and_do_reuse(counted_steps):
    _run(ChMachine, counted_steps)
