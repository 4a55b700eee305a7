"""Unit tests for transactions and the consistent view manager."""

import pytest

from repro.errors import TransactionError
from repro.storage import ColumnDef, Schema, SqlType, Table
from repro.txn import ConsistentViewManager, Transaction, TransactionManager


def make_table():
    return Table(
        "t",
        Schema([ColumnDef("id", SqlType.INT, nullable=False)], primary_key="id"),
    )


class TestTransactionManager:
    def test_monotonic_tids(self):
        mgr = TransactionManager()
        tids = [mgr.begin().tid for _ in range(5)]
        assert tids == [1, 2, 3, 4, 5]
        assert mgr.latest_tid == 5
        assert mgr.global_snapshot() == 5

    def test_initial_snapshot_is_zero(self):
        assert TransactionManager().global_snapshot() == 0

    def test_commit_and_abort_state(self):
        mgr = TransactionManager()
        txn = mgr.begin()
        assert txn.is_active
        txn.commit()
        assert not txn.is_active
        with pytest.raises(TransactionError):
            txn.commit()
        txn2 = mgr.begin()
        txn2.abort()
        with pytest.raises(TransactionError):
            txn2.abort()

    def test_require_active(self):
        mgr = TransactionManager()
        txn = mgr.begin()
        txn.require_active()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.require_active()

    def test_context_manager_commits(self):
        mgr = TransactionManager()
        with mgr.begin() as txn:
            pass
        assert not txn.is_active

    def test_context_manager_aborts_on_error(self):
        mgr = TransactionManager()
        with pytest.raises(RuntimeError):
            with mgr.begin() as txn:
                raise RuntimeError("boom")
        assert not txn.is_active

    def test_snapshot_equals_tid(self):
        mgr = TransactionManager()
        txn = mgr.begin()
        assert txn.snapshot == txn.tid


class TestConsistentViewManager:
    def test_global_visibility_tracks_latest_tid(self):
        mgr = TransactionManager()
        cvm = ConsistentViewManager(mgr)
        table = make_table()
        t1 = mgr.begin()
        table.insert({"id": 1}, t1.tid)
        t1.commit()
        delta = table.partition("delta")
        assert cvm.global_visibility(delta).nonzero()[0].tolist() == [0]
        t2 = mgr.begin()
        table.insert({"id": 2}, t2.tid)
        t2.commit()
        assert cvm.global_visibility(delta).nonzero()[0].tolist() == [0, 1]

    def test_txn_visibility_is_snapshot_bound(self):
        mgr = TransactionManager()
        cvm = ConsistentViewManager(mgr)
        table = make_table()
        t1 = mgr.begin()
        table.insert({"id": 1}, t1.tid)
        # A snapshot taken now should not see a later insert.
        reader = mgr.begin()
        t3 = mgr.begin()
        table.insert({"id": 2}, t3.tid)
        delta = table.partition("delta")
        assert cvm.txn_visibility(delta, reader).nonzero()[0].tolist() == [0]
        assert cvm.txn_visible_rows(delta, reader).tolist() == [0]
        assert cvm.txn_visible_mask(delta, reader).tolist() == [True, False]

    def test_txn_sees_own_writes(self):
        mgr = TransactionManager()
        cvm = ConsistentViewManager(mgr)
        table = make_table()
        txn = mgr.begin()
        table.insert({"id": 1}, txn.tid)
        delta = table.partition("delta")
        assert cvm.txn_visibility(delta, txn).nonzero()[0].tolist() == [0]
