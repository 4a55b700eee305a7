"""Operating the engine: CSV loading, merge, idle refresh, recovery, saves.

A day-2-operations tour of the toolkit around the core engine:

* bulk-load a table from CSV (matching dependencies enforced per row),
* merge all tables in one call, so MD-related deltas empty together
  (merge synchronization, Section 5.2),
* refresh the cache while idle: each entry takes now the step its next
  read would take,
* write through a durable database and open a copy of its directory
  elsewhere: the checkpoint and the write-ahead log replay every insert
  and merge into the same answer,
* save the database to disk — one checkpoint file, the format recovery
  reads — and reload it.

Run with:  python examples/operational_toolkit.py
"""

import shutil
import tempfile
from pathlib import Path

from repro import Database, ExecutionStrategy
from repro.storage import load_database, save_database

SQL = (
    "SELECT i.region AS region, SUM(i.amount) AS revenue, COUNT(*) AS n "
    "FROM invoice h, invoice_line i WHERE h.inv_id = i.inv_id "
    "GROUP BY i.region"
)


def create_schema(db: Database) -> None:
    db.create_table(
        "invoice", [("inv_id", "INT"), ("day", "DATE")], primary_key="inv_id"
    )
    db.create_table(
        "invoice_line",
        [("line_id", "INT"), ("inv_id", "INT"), ("region", "TEXT"), ("amount", "FLOAT")],
        primary_key="line_id",
    )
    db.add_matching_dependency("invoice", "inv_id", "invoice_line", "inv_id")


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro_ops_"))
    try:
        run(workdir)
    finally:
        shutil.rmtree(workdir)
    print("\ndone.")


def run(workdir: Path) -> None:
    # Durable: every commit, DDL statement and merge reaches the WAL.
    db = Database.open(workdir / "db")
    create_schema(db)

    # ------------------------------------------------------- CSV loading
    invoices = workdir / "invoices.csv"
    lines = workdir / "lines.csv"
    invoices.write_text(
        "inv_id,day\n" + "\n".join(f"{i},2014-01-{(i % 27) + 1:02d}" for i in range(200))
    )
    lines.write_text(
        "line_id,inv_id,region,amount\n"
        + "\n".join(
            f"{i},{i // 4},{'EU' if i % 3 else 'US'},{(i % 90) + 1}.50"
            for i in range(800)
        )
    )

    print(f"imported {db.import_csv('invoice', invoices)} invoices")
    print(f"imported {db.import_csv('invoice_line', lines)} invoice lines")
    merged = db.merge()  # all tables at once: a synchronized merge
    print(f"\nmerged {sum(s.rows_moved for s in merged)} delta rows")
    db.query(SQL, strategy=ExecutionStrategy.CACHED_FULL_PRUNING)
    # some fresh business after the merge
    for inv_id in range(200, 210):
        db.insert_business_object(
            "invoice",
            {"inv_id": inv_id, "day": "2014-02-01"},
            "invoice_line",
            [
                {
                    "line_id": 10_000 + inv_id * 2 + k,
                    "inv_id": inv_id,
                    "region": "EU",
                    "amount": 10.0,
                }
                for k in range(2)
            ],
        )
    print(f"logged {db.wal.stats.records_appended} WAL records")

    refreshed = db.refresh_cache()
    print(f"idle refresh installed memos: {refreshed}")

    result = db.query(SQL, strategy=ExecutionStrategy.CACHED_FULL_PRUNING)
    print("\nrevenue per region:")
    print(result.to_text())

    # ------------------------------------------------ reopen a copy
    copy_dir = shutil.copytree(workdir / "db", workdir / "copy")
    replica = Database.open(copy_dir)
    stats = replica.recovery_stats
    print(
        f"\nopened a copy: checkpoint lsn {stats.checkpoint_lsn}, "
        f"{stats.records_replayed} WAL records replayed after it"
    )
    assert replica.query(SQL) == result
    replica.close()

    # ------------------------------------------------------------- save
    saved_dir = save_database(db, workdir / "saved")
    restored = load_database(saved_dir)
    assert restored.query(SQL) == result
    print(f"save/load round-trip verified ({saved_dir.name}: one checkpoint file)")
    db.close()


if __name__ == "__main__":
    main()
