"""A durable directory written by an earlier revision of the engine recovers.

``data/parent_format`` is the ``wal.jsonl`` plus the one checkpoint that
``durable_history.write_history`` left behind when it was committed.  The
same history replayed in memory by the current code is the reference:
recovery must rebuild every partition row for row, with its stamps, and
answer every query alike.
"""

import shutil
from pathlib import Path

import pytest

from repro import Database, ExecutionStrategy, threshold_aging

from .durable_history import QUERIES, write_history

DATA = Path(__file__).parent / "data" / "parent_format"


@pytest.fixture(scope="module")
def reference():
    db = Database()
    write_history(db)
    return db


@pytest.fixture
def recovered(tmp_path):
    shutil.copytree(DATA, tmp_path / "db")  # recovery reopens the WAL for append
    db = Database.open(tmp_path / "db")
    yield db
    db.close()


def _image(table):
    return {
        p.name: (
            [p.get_row(i) for i in range(p.row_count)],
            p.cts_array().tolist(),
            p.dts_array().tolist(),
        )
        for p in table.partitions()
    }


def test_checkpoint_restored_and_wal_suffix_replayed(recovered):
    stats = recovered.recovery_stats
    assert stats.checkpoint_lsn == 20
    assert stats.ddl_replayed == 4  # two tables, an MD, a consistent aging
    assert stats.transactions_replayed > 0


def test_catalog_equals_the_history(recovered, reference):
    names = reference.catalog.table_names()
    assert recovered.catalog.table_names() == names
    for name in names:
        got, want = recovered.table(name), reference.table(name)
        assert got.table_id == want.table_id
        assert list(got.schema) == list(want.schema)
        assert got.schema.primary_key == want.schema.primary_key
        assert got.aging_rule == want.aging_rule
        assert got.separate_update_delta == want.separate_update_delta
    assert recovered.table("posting").aging_rule == threshold_aging("year", 2014)
    assert recovered.enforcer.dependencies() == reference.enforcer.dependencies()
    assert recovered.cache._agings == reference.cache._agings


def test_every_partition_equals_the_history_row_for_row(recovered, reference):
    for name in reference.catalog.table_names():
        assert _image(recovered.table(name)) == _image(reference.table(name)), name


@pytest.mark.parametrize("sql", QUERIES)
@pytest.mark.parametrize(
    "strategy",
    [ExecutionStrategy.UNCACHED, ExecutionStrategy.CACHED_FULL_PRUNING],
    ids=lambda s: s.name,
)
def test_answers_equal_the_history(recovered, reference, sql, strategy):
    want = reference.query(sql, strategy=ExecutionStrategy.UNCACHED).rows
    assert sorted(recovered.query(sql, strategy=strategy).rows) == sorted(want)


def test_writes_continue_after_recovery(recovered):
    newest = max(
        max(p.cts_array().max(initial=0), p.dts_array().max(initial=0))
        for name in recovered.catalog.table_names()
        for p in recovered.table(name).partitions()
    )
    txn = recovered.begin()
    assert txn.tid > newest
    txn.commit()
    recovered.insert("posting", {"pid": 100, "aid": 1, "year": 2014, "amount": 2.0})
    row = recovered.table("posting").get_row(100)
    assert row["tid_account"] == recovered.table("account").get_row(1)["tid_account"]
