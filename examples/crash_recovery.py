"""Crash recovery: a durable database survives a simulated ``kill -9``.

Demonstrates the reliability subsystem end to end:

1. open a durable database (``Database.open``) — every committed
   transaction is fsynced to a CRC-checked write-ahead log, every merge
   additionally writes an atomic checkpoint,
2. arm a fault point and crash the process mid-write (the WAL tears the
   in-flight record in half, like a real partial write),
3. reopen the directory: recovery loads the newest checkpoint, replays the
   WAL suffix, drops the torn tail, and the data is back.

Fault points you can arm instead of ``wal.append``: ``checkpoint.write``,
``merge.stage``, ``merge.before_swap``, ``merge.after_swap``,
``cache.maintenance``, ``txn.commit``.

Run with:  python examples/crash_recovery.py
"""

import shutil
import tempfile
from pathlib import Path

from repro import Database, ExecutionStrategy, SimulatedCrash

SQL = (
    "SELECT h.year AS year, SUM(i.price) AS revenue, COUNT(*) AS n "
    "FROM header h, item i WHERE h.hid = i.hid GROUP BY h.year"
)


def build(db: Database) -> None:
    db.create_table("header", [("hid", "INT"), ("year", "INT")], primary_key="hid")
    db.create_table(
        "item",
        [("iid", "INT"), ("hid", "INT"), ("price", "FLOAT")],
        primary_key="iid",
    )
    db.add_matching_dependency("header", "hid", "item", "hid")


def load(db: Database, hids) -> None:
    for hid in hids:
        db.insert_business_object(
            "header",
            {"hid": hid, "year": 2013 + hid % 2},
            "item",
            [
                {"iid": hid * 10 + k, "hid": hid, "price": float(hid + k + 1)}
                for k in range(3)
            ],
        )


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-crash-"))
    try:
        run(workdir / "db")
    finally:
        shutil.rmtree(workdir)


def run(path: Path) -> None:
    # ------------------------------------------------- a durable lifetime
    db = Database.open(path)
    build(db)
    load(db, range(4))
    db.merge()  # merges write a checkpoint: recovery replays less WAL
    load(db, range(100, 103))  # these live only in the WAL
    expected = db.query(SQL, strategy=ExecutionStrategy.CACHED_FULL_PRUNING)
    print("before the crash:")
    for row in expected.rows:
        print("   ", row)

    # ------------------------------------------------------- kill it
    # The next WAL append writes half a record, then the "process" dies.
    db.faults.arm("wal.append", mode="crash")
    try:
        db.insert("header", {"hid": 999, "year": 2099})
    except SimulatedCrash as crash:
        print(f"\ncrashed: {crash}")
    db.close()  # abandon the dead instance

    # ------------------------------------------------------- recover
    recovered = Database.open(path)
    stats = recovered.recovery_stats
    print(
        f"\nrecovered from {path}:\n"
        f"    checkpoint lsn   {stats.checkpoint_lsn}\n"
        f"    records replayed {stats.records_replayed} "
        f"(txns {stats.transactions_replayed}, merges {stats.merges_replayed})\n"
        f"    torn tail records dropped {stats.torn_records_dropped}\n"
        f"    tid high-water mark {stats.recovered_tid}"
    )

    result = recovered.query(SQL, strategy=ExecutionStrategy.CACHED_FULL_PRUNING)
    print("\nafter recovery:")
    for row in result.rows:
        print("   ", row)
    assert result == expected, "recovered state diverged!"
    assert recovered.table("header").get_row(999) is None  # the torn insert

    # Life goes on: the tid sequence continues, the cache re-admits entries.
    recovered.insert_business_object(
        "header", {"hid": 999, "year": 2099}, "item", [{"iid": 9990, "hid": 999, "price": 1.0}]
    )
    recovered.merge()
    print("\ndurability counters:")
    print(recovered.statistics().render().split("durability:")[1])
    recovered.close()


if __name__ == "__main__":
    main()
