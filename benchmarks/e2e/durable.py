"""The durable replay: the workload's write rounds against ``Database(path=...)``.

Flush policy: the engine's own — every committed transaction, DDL statement
and merge is appended to the WAL and fsynced before the call returns, and
every merge writes a checkpoint.  The benchmark adds no batching.

A small build of the workload is made twice, in memory and on disk, and the
same write rounds are replayed into both (one merge, hence one checkpoint,
halfway).  The directory is then copied *while the database is still open*
— only bytes the engine has flushed are in the copy — and the copy is
reopened: every acknowledged row must be there and every statement must
equal the in-memory twin.  fsync time does not scale with CPU speed, so the
gated number is the exact ``wal_bytes_per_row``; the timings are per-layer
only and raw wall-clock, not host-normalised.
"""

from __future__ import annotations

import shutil
import statistics
import time
from typing import Dict

from repro import Database, ExecutionStrategy

from measure import answer_text
from spans import SpanLog
from workloads import DURABLE_ROUNDS, durable_stream


class _RowCounter:
    """Write listener counting user rows written to the durable database."""

    def __init__(self) -> None:
        self.rows = 0

    def on_insert(self, table, row, tid) -> None:
        self.rows += 1

    def on_update(self, table, old_row, new_row, tid) -> None:
        self.rows += 1

    def on_delete(self, table, old_row, tid) -> None:
        self.rows += 1


def _replay(ctx) -> None:
    ctx.db.merge()
    for kind, payload in durable_stream(ctx, DURABLE_ROUNDS[ctx.family]):
        if kind == "write":
            payload()
        else:
            ctx.db.merge()


def visible_rows(db: Database) -> Dict[str, int]:
    """Visible rows per table at the current snapshot."""
    snapshot = db.transactions.global_snapshot()
    return {
        name: db.table(name).visible_row_count(snapshot)
        for name in db.catalog.table_names()
    }


def durable_replay(run) -> Dict[str, float]:
    """Replay, copy, reopen, check; counts checks on ``run`` and returns the
    reliability layer's numbers."""
    root = run.workdir / f"durable-{run.workload.name}-{run.seed}"
    shutil.rmtree(root, ignore_errors=True)
    log = SpanLog()
    mem = run.workload.build(run.seed, small=True)
    reopened = None
    dur = run.workload.build(run.seed, small=True, path=root / "db")
    try:
        _replay(mem)
        preloaded = sum(visible_rows(dur.db).values())
        written = _RowCounter()
        dur.db.register_write_listener(written)
        log.wrap(dur.db.wal, "append", "reliability.wal.append")
        log.wrap(dur.db, "checkpoint", "reliability.checkpoint.write")
        log.active = True
        _replay(dur)
        log.active = False
        wal = dur.db.wal.stats
        fsyncs = dur.db.metrics_snapshot().get("repro_wal_fsync_seconds_count", 0.0)
        disk_bytes = sum(
            f.stat().st_size for f in (root / "db").rglob("*") if f.is_file()
        )
        shutil.copytree(root / "db", root / "copy")
        started = time.perf_counter()
        reopened = Database.open(root / "copy")
        recover_wall = time.perf_counter() - started

        want = visible_rows(mem.db)
        got = visible_rows(reopened)
        for name, rows in want.items():
            run.attempted += 1
            if got.get(name) != rows:
                run.fail(f"durable: {name} has {got.get(name)} rows, acknowledged {rows}")
        for sql in mem.statements:
            run.attempted += 1
            recovered = reopened.query(sql, strategy=ExecutionStrategy.UNCACHED)
            if answer_text(recovered.rows) != answer_text(mem.db.query(sql).rows):
                run.fail(f"durable mismatch on {' '.join(sql.split())[:80]}")

        seconds = {"reliability.wal.append": [], "reliability.checkpoint.write": []}
        for record in log.records:
            seconds[record.name].append(record.end - record.start)
        rows_written = preloaded + written.rows
        return {
            "wal_bytes_per_row": disk_bytes / rows_written,
            "wal_log_bytes_per_row": wal.bytes_written / rows_written,
            "fsyncs_per_txn": fsyncs / wal.transactions_logged,
            "append_p50_us": statistics.median(seconds["reliability.wal.append"]) * 1e6,
            "checkpoint_write_s": statistics.mean(seconds["reliability.checkpoint.write"]),
            "recover_s": recover_wall,
            "records_replayed": reopened.recovery_stats.records_replayed,
            "rows_written": rows_written,
            "disk_bytes": disk_bytes,
        }
    finally:
        for db in (mem.db, dur.db, reopened):
            if db is not None:
                db.close()
        shutil.rmtree(root, ignore_errors=True)
