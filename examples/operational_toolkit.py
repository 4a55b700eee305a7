"""Operating the engine: CSV loading, merge, idle refresh, traces, snapshots.

A day-2-operations tour of the toolkit around the core engine:

* bulk-load a table from CSV (matching dependencies enforced per row),
* merge all tables in one call, so MD-related deltas empty together
  (merge synchronization, Section 5.2),
* refresh the cache while idle: each entry takes now the step its next
  read would take,
* record the workload as a trace and replay it into a fresh database,
* persist a snapshot to disk and reload it.

Run with:  python examples/operational_toolkit.py
"""

import tempfile
from pathlib import Path

from repro import Database, ExecutionStrategy
from repro.storage import load_database, save_database
from repro.workloads import TraceRecorder, TraceReplayer

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
    db = Database()
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

    # ---------------------------------------- trace everything from here
    trace_path = workdir / "workload.trace"
    with TraceRecorder(db, trace_path) as recorder:
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
        print(f"recorded {recorder.operations} operations into {trace_path.name}")

    refreshed = db.refresh_cache()
    print(f"idle refresh installed memos: {refreshed}")

    result = db.query(SQL, strategy=ExecutionStrategy.CACHED_FULL_PRUNING)
    print("\nrevenue per region:")
    print(result.to_text())

    # ------------------------------------------------------------ replay
    replica = Database()
    create_schema(replica)
    counts = TraceReplayer(replica).replay(trace_path)
    print(f"\nreplayed into a fresh database: {counts}")
    assert replica.query(SQL) == result

    # --------------------------------------------------------- snapshot
    snapshot_dir = save_database(db, workdir / "snapshot")
    restored = load_database(snapshot_dir)
    assert restored.query(SQL) == result
    print(f"snapshot round-trip verified at {snapshot_dir}")
    print("\ndone.")


if __name__ == "__main__":
    main()
