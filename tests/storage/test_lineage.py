"""The update-lineage log of delta partitions (``LineageLog``)."""

import pytest

from repro import Database, FaultError
from repro.storage import load_database, save_database


def make(separate_update_delta=False, **db_kwargs):
    db = Database(**db_kwargs)
    db.create_table(
        "t",
        [("k", "INT"), ("a", "INT"), ("b", "INT"), ("c", "TEXT")],
        primary_key="k",
        separate_update_delta=separate_update_delta,
    )
    for k in range(4):
        db.insert("t", {"k": k, "a": k, "b": 10 * k, "c": "x"})
    db.merge()
    return db


def log_of(db, partition="delta"):
    successors, ancestors, changed = db.table("t").partition(partition).lineage.arrays()
    return list(zip(successors.tolist(), ancestors.tolist(), changed.tolist()))


def bit(db, column):
    return db.table("t").schema.change_bit(column)


def main_row(db, k):
    return db.table("t").pk_lookup(k).row


def test_update_of_a_main_row_records_ancestor_and_changed_columns():
    db = make()
    ancestor = main_row(db, 2)
    db.update("t", 2, {"a": 7, "c": "y"})
    assert log_of(db) == [(0, ancestor, bit(db, "a") | bit(db, "c"))]
    assert db.table("t").partition("main").lineage is None


def test_a_value_written_back_changes_nothing():
    db = make()
    ancestor = main_row(db, 1)
    db.update("t", 1, {"a": 1, "b": 10})
    assert log_of(db) == [(0, ancestor, 0)]


def test_masks_are_ored_along_a_chain_and_every_version_keeps_its_record():
    db = make()
    ancestor = main_row(db, 3)
    db.update("t", 3, {"a": 5})
    db.update("t", 3, {"b": 6})
    db.update("t", 3, {"b": 6})  # nothing new
    assert log_of(db) == [
        (0, ancestor, bit(db, "a")),
        (1, ancestor, bit(db, "a") | bit(db, "b")),
        (2, ancestor, bit(db, "a") | bit(db, "b")),
    ]


def test_inserts_and_versions_of_delta_born_rows_have_no_record():
    db = make()
    db.insert("t", {"k": 9, "a": 0, "b": 0, "c": "x"})
    db.update("t", 9, {"a": 1})
    db.delete("t", 9)
    db.delete("t", 0)
    assert log_of(db) == []
    ancestor = main_row(db, 1)
    db.update("t", 1, {"a": 4})  # rows 0 and 1 of the delta are key 9's
    assert log_of(db) == [(2, ancestor, bit(db, "a"))]


def test_chain_carries_over_into_a_separate_update_delta():
    db = make(separate_update_delta=True)
    db.update("t", 2, {"a": 5})
    db.update("t", 2, {"c": "z"})
    assert log_of(db, "delta") == []
    assert log_of(db, "udelta") == [
        (0, 2, bit(db, "a")),
        (1, 2, bit(db, "a") | bit(db, "c")),
    ]


def test_log_is_counted_in_nbytes_and_leaves_with_the_delta_at_merge():
    db = make()
    delta = db.table("t").partition("delta")
    db.insert("t", {"k": 8, "a": 0, "b": 0, "c": "x"})
    before = delta.nbytes()
    db.update("t", 8, {"a": 1})  # delta-born: a row, but no record
    per_row = delta.nbytes() - before
    db.update("t", 0, {"a": 1})
    assert delta.nbytes() - before == 2 * per_row + 24
    db.merge()
    assert log_of(db) == []
    ancestor = main_row(db, 0)  # in the rebuilt main
    db.update("t", 0, {"a": 2})
    assert log_of(db) == [(0, ancestor, bit(db, "a"))]


def test_cancelled_merge_keeps_the_log():
    db = make()
    db.update("t", 1, {"b": 3})
    before = log_of(db)
    db.faults.arm("merge.before_swap", mode="raise")
    with pytest.raises(FaultError):
        db.merge()
    db.faults.disarm()
    assert log_of(db) == before
    db.update("t", 1, {"a": 3})
    assert log_of(db)[-1] == (1, 1, bit(db, "a") | bit(db, "b"))


def test_snapshot_restore_has_no_log(tmp_path):
    db = make()
    db.update("t", 1, {"b": 3})
    restored = load_database(save_database(db, tmp_path / "snap"))
    assert log_of(restored) == []
    restored.update("t", 1, {"a": 3})  # the restored delta row has no record
    assert log_of(restored) == []


def test_checkpoint_restore_has_no_log_and_wal_replay_rederives_it(tmp_path):
    db = make(path=tmp_path / "db")
    db.update("t", 1, {"b": 3})
    db.checkpoint()
    db.update("t", 2, {"a": 9})  # after the checkpoint: replayed from the WAL
    expected = log_of(db)[1:]
    reopened = db.recover()
    assert [(a, c) for _s, a, c in log_of(reopened)] == [(a, c) for _s, a, c in expected]
    reopened.close()


def test_columns_past_the_62nd_share_one_saturating_bit():
    db = Database()
    columns = [("k", "INT")] + [(f"c{i}", "INT") for i in range(70)]
    db.create_table("wide", columns, primary_key="k")
    schema = db.table("wide").schema
    assert schema.change_bit("c3") == 1 << 4
    assert schema.change_bit("c61") == schema.change_bit("c69") == 1 << 62
    assert schema.wide_change_bit() == 1 << 62
    assert make().table("t").schema.wide_change_bit() == 0
    db.insert("wide", {"k": 1, **{f"c{i}": i for i in range(70)}})
    db.merge()
    db.update("wide", 1, {"c69": 0, "c2": 0})
    _s, _a, changed = db.table("wide").partition("delta").lineage.arrays()
    assert changed.tolist() == [(1 << 62) | (1 << 3)]
