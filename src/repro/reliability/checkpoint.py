"""Checkpoints: atomic full-state snapshots anchoring WAL replay.

A checkpoint is one self-contained JSON file,
``checkpoints/checkpoint_<lsn>.json``, capturing everything recovery needs:
table schemas and ids, every partition's rows with their MVCC ``cts``/``dts``
stamps, the registered matching dependencies and consistent-aging
declarations, the transaction high-water mark, and ``last_lsn`` — the WAL
position the snapshot includes.  Recovery loads the newest *valid*
checkpoint and replays only WAL records with a larger lsn.

Atomicity: the file is written to a temporary sibling, fsynced, and
``os.replace``d into place, so a crash mid-checkpoint leaves at worst a
stray ``*.tmp`` and the previous checkpoint intact.  A CRC over the payload
guards against torn or bit-rotted checkpoint files; an invalid newest
checkpoint is skipped in favor of the next older one (recovery then simply
replays more WAL).

The engine checkpoints after every delta merge: the merge has just rewritten
the bulk of the data anyway, and an up-to-date checkpoint keeps the replay
suffix short — the same piggy-backing the aggregate cache does for its
maintenance.

Aging rules built from the library constructors (``threshold_aging`` /
``ratio_aging``) are frozen dataclasses with a ``to_spec()`` JSON form, so
aged tables round-trip through checkpoints; arbitrary callable rules cannot
be serialized and durable databases refuse them at ``create_table`` time.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..errors import DurabilityError
from ..storage.aging import aging_rule_from_spec, aging_rule_spec
from ..storage.partition import LIVE, Partition
from ..storage.schema import ColumnDef, Schema, SqlType
from .faults import FaultInjector

_FORMAT_VERSION = 1
_NAME_RE = re.compile(r"^checkpoint_(\d+)\.json$")


def checkpoint_path(directory, last_lsn: int) -> Path:
    """Canonical path of the checkpoint covering the WAL up to ``last_lsn``."""
    return Path(directory) / f"checkpoint_{last_lsn:012d}.json"


def write_checkpoint(
    db,
    directory,
    last_lsn: int,
    faults: Optional[FaultInjector] = None,
    retry=None,
    on_retry=None,
) -> Path:
    """Atomically write a checkpoint of ``db``; returns its path.

    With a :class:`~repro.governor.RetryPolicy` supplied, transient
    ``OSError``s (including injected ``io_error`` faults) during the file
    write are retried with backoff; the tmp-file + ``os.replace`` protocol
    makes every retry start from a clean slate, so a transient failure
    can never leave a half-visible checkpoint behind.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    state: Dict = {
        "format_version": _FORMAT_VERSION,
        "last_lsn": last_lsn,
        "latest_tid": db.transactions.global_snapshot(),
        "next_table_id": db.catalog._next_table_id,
        "tables": [],
        "matching_dependencies": [
            {
                "parent_table": md.parent_table,
                "parent_key": md.parent_key,
                "child_table": md.child_table,
                "child_fk": md.child_fk,
                "tid_column": md.tid_column,
            }
            for md in db.enforcer.dependencies()
        ],
        "consistent_agings": [
            {"left": decl.left_table, "right": decl.right_table}
            for decl in db.cache._agings
        ],
    }
    for name in db.catalog.table_names():
        table = db.table(name)
        aging = None
        if table.is_aged():
            aging = aging_rule_spec(table.aging_rule)
            if aging is None:
                raise DurabilityError(
                    f"table {name!r} uses a non-serializable aging rule; "
                    "use threshold_aging/ratio_aging for durable hot/cold tables"
                )
        state["tables"].append(
            {
                "name": name,
                "table_id": table.table_id,
                "aging": aging,
                "separate_update_delta": table.separate_update_delta,
                "primary_key": table.schema.primary_key,
                "columns": [
                    {
                        "name": column.name,
                        "type": column.sql_type.value,
                        "nullable": column.nullable,
                        "is_tid": column.is_tid,
                    }
                    for column in table.schema
                ],
                "partitions": [
                    {
                        "name": partition.name,
                        "kind": partition.kind,
                        "rows": _decoded_rows(partition),
                        "cts": [int(v) for v in partition.cts_array()],
                        "dts": [int(v) for v in partition.dts_array()],
                    }
                    for partition in table.partitions()
                ],
            }
        )
    payload = json.dumps(state, sort_keys=True, separators=(",", ":"))
    document = json.dumps(
        {"crc": zlib.crc32(payload.encode("utf-8")), "state": state},
        sort_keys=True,
        separators=(",", ":"),
    )
    target = checkpoint_path(root, last_lsn)
    tmp = target.with_suffix(".tmp")

    def attempt() -> Path:
        if faults is not None:
            faults.fire("checkpoint.write")
        with tmp.open("w") as handle:
            handle.write(document)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
        return target

    if retry is None:
        return attempt()
    return retry.call(attempt, retry_on=(OSError,), on_retry=on_retry)


def _decoded_rows(partition: Partition) -> List[Dict[str, object]]:
    """Every row of ``partition`` as a dict, decoded one column at a time."""
    names = partition.column_names()
    columns = []
    for name in names:
        fragment = partition.column(name)
        columns.append(fragment.decode_codes(fragment.codes()).tolist())
    return [dict(zip(names, values)) for values in zip(*columns)]


def list_checkpoints(directory) -> List[Tuple[int, Path]]:
    """(last_lsn, path) of every checkpoint file, newest first."""
    root = Path(directory)
    if not root.is_dir():
        return []
    found = []
    for path in root.iterdir():
        match = _NAME_RE.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found, reverse=True)


def read_checkpoint(path) -> Optional[Dict]:
    """The validated state dict of one checkpoint file, or None if invalid."""
    try:
        document = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(document, dict) or "state" not in document:
        return None
    state = document["state"]
    payload = json.dumps(state, sort_keys=True, separators=(",", ":"))
    if zlib.crc32(payload.encode("utf-8")) != document.get("crc"):
        return None
    if state.get("format_version") != _FORMAT_VERSION:
        return None
    return state


def latest_valid_checkpoint(directory) -> Optional[Tuple[Dict, Path]]:
    """Newest checkpoint that parses and CRC-verifies, or None."""
    for _, path in list_checkpoints(directory):
        state = read_checkpoint(path)
        if state is not None:
            return state, path
    return None


def restore_checkpoint(db, state: Dict) -> None:
    """Load checkpoint ``state`` into an empty durable ``db``."""
    if db.catalog.table_names():
        raise DurabilityError("cannot restore a checkpoint into a non-empty database")
    for spec in state["tables"]:
        schema = Schema(
            [
                ColumnDef(
                    column["name"],
                    SqlType(column["type"]),
                    nullable=column["nullable"],
                    is_tid=column["is_tid"],
                )
                for column in spec["columns"]
            ],
            primary_key=spec["primary_key"],
        )
        table = db.catalog.create_table(
            spec["name"],
            schema,
            aging_rule=aging_rule_from_spec(spec.get("aging")),
            separate_update_delta=spec["separate_update_delta"],
        )
        table.table_id = spec["table_id"]
        for part_spec in spec["partitions"]:
            _restore_partition(table, part_spec)
        table.rebuild_pk_index()
    for md_spec in state["matching_dependencies"]:
        db.add_matching_dependency(
            md_spec["parent_table"],
            md_spec["parent_key"],
            md_spec["child_table"],
            md_spec["child_fk"],
            tid_column_name=md_spec["tid_column"],
        )
    for aging_spec in state["consistent_agings"]:
        db.declare_consistent_aging(aging_spec["left"], aging_spec["right"])
    db.transactions.advance_to(state["latest_tid"])
    db.catalog._next_table_id = max(
        db.catalog._next_table_id, state["next_table_id"]
    )


def _restore_partition(table, spec: Dict) -> None:
    target = table.partition(spec["name"])
    rows = [table.schema.validate_row(row) for row in spec["rows"]]
    if target.kind == "main":
        rebuilt = Partition.build_main(
            spec["name"], table.schema, rows, spec["cts"], spec["dts"]
        )
        group = table._group_of_partition(spec["name"])
        group.main = rebuilt
    else:
        for row, created, invalidated in zip(rows, spec["cts"], spec["dts"]):
            row_idx = target.append_row(row, created)
            if invalidated != LIVE:
                target.invalidate(row_idx, invalidated)
