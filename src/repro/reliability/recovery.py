"""Crash recovery: latest checkpoint + WAL replay.

``recover_database`` rebuilds a durable database's state inside a freshly
constructed (empty) :class:`~repro.database.Database`:

1. load the newest valid checkpoint, if any (full table state, matching
   dependencies, tid high-water mark);
2. replay every WAL record with ``lsn > checkpoint.last_lsn`` in order —
   DDL through the ``Database`` methods, each record read by the spec
   decoder of :mod:`checkpoint` (with WAL logging suspended), DML at the
   table level (logged rows are already matching-dependency-stamped, so
   re-running enforcement would be wrong),
   merges by re-running ``merge_table`` at the logged snapshot, which is
   deterministic given the replayed data;
3. tolerate exactly one torn tail record (truncated before new appends);
4. fast-forward the transaction manager past every replayed tid so new
   transactions continue the id sequence (`TransactionManager.advance_to`).

Aggregate-cache entries are deliberately **dropped** across recovery and
re-admitted on first use: entry visibility snapshots reference in-memory
partition objects that did not survive the crash, and rebuilding them
eagerly would recompute aggregates nobody may ever ask for again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Dict, Optional

from ..errors import DurabilityError
from ..storage.merge import merge_table
from .checkpoint import (
    decode_consistent_aging,
    decode_md,
    decode_table,
    latest_valid_checkpoint,
    restore_checkpoint,
)
from .wal import WalScan, WriteAheadLog


@dataclass
class RecoveryStats:
    """What one recovery pass did (surfaced via ``Database.statistics()``)."""

    checkpoint_lsn: Optional[int] = None
    records_scanned: int = 0
    records_replayed: int = 0
    transactions_replayed: int = 0
    operations_replayed: int = 0
    merges_replayed: int = 0
    ddl_replayed: int = 0
    torn_records_dropped: int = 0
    recovered_tid: int = 0


def recover_database(db, wal: WriteAheadLog, checkpoint_dir) -> RecoveryStats:
    """Restore ``db`` (empty, durable, ``_replaying`` already set) from disk."""
    stats = RecoveryStats()
    checkpoint = latest_valid_checkpoint(checkpoint_dir)
    if checkpoint is not None:
        state, _ = checkpoint
        restore_checkpoint(db, state)
        stats.checkpoint_lsn = state["last_lsn"]
        stats.recovered_tid = state["latest_tid"]
    scan = wal.scan()
    stats.records_scanned = len(scan.records)
    stats.torn_records_dropped = scan.torn_records_dropped
    start_lsn = stats.checkpoint_lsn or 0
    max_tid = stats.recovered_tid
    for record in scan.records:
        if record.lsn <= start_lsn:
            continue
        max_tid = max(max_tid, _replay_record(db, record, stats))
        stats.records_replayed += 1
    db.transactions.advance_to(max_tid)
    stats.recovered_tid = max_tid
    wal.open_for_append(scan)
    return stats


def _replay_record(db, record, stats: RecoveryStats) -> int:
    """Apply one WAL record; returns the highest tid it carries (0 if none)."""
    data = record.data
    if record.type == "txn":
        stats.transactions_replayed += 1
        for (kind, name), run in groupby(data["ops"], key=itemgetter("op", "table")):
            ops = list(run)
            if kind == "insert":  # a run of inserts into one table: one batch
                table = db.catalog.table(name)
                rows = [op["row"] for op in ops]
                table.append_rows(table.check_rows(rows), ops[0]["tid"])
            else:
                for op in ops:
                    _replay_op(db, op)
            stats.operations_replayed += len(ops)
        return int(data["tid"])
    if record.type == "merge":
        stats.merges_replayed += 1
        merge_table(
            db.catalog.table(data["table"]),
            data["snapshot"],
            listeners=[db.cache],
            group_name=data["group"],
            keep_history=data["keep_history"],
        )
        return int(data["snapshot"])
    if record.type == "create_table":
        stats.ddl_replayed += 1
        db._create_table_locked(*decode_table(data))
        return 0
    if record.type == "drop_table":
        stats.ddl_replayed += 1
        db.drop_table(data["name"])
        return 0
    if record.type == "add_md":
        stats.ddl_replayed += 1
        db._add_md_locked(decode_md(data))
        return 0
    if record.type == "consistent_aging":
        stats.ddl_replayed += 1
        db.declare_consistent_aging(*decode_consistent_aging(data).tables())
        return 0
    raise DurabilityError(
        f"unknown WAL record type {record.type!r} at lsn {record.lsn}"
    )


def _replay_op(db, op: Dict) -> None:
    table = db.catalog.table(op["table"])
    kind = op["op"]
    if kind == "update":
        table.update(op["pk"], op["changes"], op["tid"])
    elif kind == "delete":
        table.delete(op["pk"], op["tid"])
    else:
        raise DurabilityError(f"unknown WAL operation {kind!r}")
