"""The on-disk state format: checkpoints, saved databases, DDL specs.

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

An explicit save is the same file: :func:`save_database` writes one
checkpoint (``last_lsn`` 0) into a directory of the caller's choosing and
:func:`load_database` restores it into a fresh in-memory database.  The
aggregate cache is never written; it is rebuilt on use.

One encoder per spec serves both the checkpoint's catalog and the WAL's DDL
records (``create_table``, ``add_md``, ``consistent_aging``):
:func:`encode_table` / :func:`decode_table`, :func:`encode_md` /
:func:`decode_md` and :func:`encode_consistent_aging` /
:func:`decode_consistent_aging`.  Aging rules built from the library
constructors (``threshold_aging`` / ``ratio_aging``) are frozen dataclasses
with a ``to_spec()`` JSON form, so aged tables round-trip; an arbitrary
callable rule is code, and :func:`encode_table` refuses it, so a durable
``create_table``, a checkpoint and a save all raise the same
:class:`~repro.errors.DurabilityError`.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.matching_dependency import MatchingDependency
from ..errors import DurabilityError, StorageError
from ..governor.retry import WRITE_RETRY
from ..storage.aging import ConsistentAging, aging_rule_from_spec, aging_rule_spec
from ..storage.partition import LIVE, Partition
from ..storage.schema import ColumnDef, Schema, SqlType
from ..storage.table import AgingRule
from .faults import FaultInjector

_FORMAT_VERSION = 1
_NAME_RE = re.compile(r"^checkpoint_(\d+)\.json$")


def encode_table(
    name: str,
    schema: Schema,
    aging_rule: Optional[AgingRule],
    separate_update_delta: bool,
) -> Dict:
    """The JSON spec of a table: a WAL ``create_table`` record, and a
    checkpoint's table entry before its ``table_id`` and ``partitions``.

    Raises :class:`~repro.errors.DurabilityError` for an aging rule that is
    an arbitrary callable, before anything is created or written.
    """
    aging = None
    if aging_rule is not None:
        aging = aging_rule_spec(aging_rule)
        if aging is None:
            raise DurabilityError(
                f"table {name!r}: the aging rule is an arbitrary Python "
                "callable and cannot be persisted; durable hot/cold tables "
                "need a serializable rule (threshold_aging / ratio_aging)"
            )
    return {
        "name": name,
        "primary_key": schema.primary_key,
        "aging": aging,
        "separate_update_delta": separate_update_delta,
        "columns": [
            {
                "name": column.name,
                "type": column.sql_type.value,
                "nullable": column.nullable,
                "is_tid": column.is_tid,
            }
            for column in schema
        ],
    }


def decode_table(spec: Dict) -> Tuple[str, Schema, Optional[AgingRule], bool]:
    """``(name, schema, aging_rule, separate_update_delta)`` of an
    :func:`encode_table` spec — the arguments of ``create_table``."""
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
    return (
        spec["name"],
        schema,
        aging_rule_from_spec(spec.get("aging")),
        spec["separate_update_delta"],
    )


def encode_md(md: MatchingDependency) -> Dict:
    """The JSON spec of a matching dependency, keyed by its field names."""
    return dataclasses.asdict(md)


def decode_md(spec: Dict) -> MatchingDependency:
    """The matching dependency of an :func:`encode_md` spec."""
    return MatchingDependency(**spec)


def encode_consistent_aging(declaration: ConsistentAging) -> Dict:
    """The JSON spec of a consistent-aging declaration."""
    return {"left": declaration.left_table, "right": declaration.right_table}


def decode_consistent_aging(spec: Dict) -> ConsistentAging:
    """The declaration of an :func:`encode_consistent_aging` spec."""
    return ConsistentAging(spec["left"], spec["right"])


def checkpoint_path(directory, last_lsn: int) -> Path:
    """Canonical path of the checkpoint covering the WAL up to ``last_lsn``."""
    return Path(directory) / f"checkpoint_{last_lsn:012d}.json"


def write_checkpoint(
    db,
    directory,
    last_lsn: int,
    faults: Optional[FaultInjector] = None,
    on_retry=None,
) -> Path:
    """Atomically write a checkpoint of ``db``; returns its path.

    The caller holds ``db.lock``.  Transient ``OSError``s (including
    injected ``io_error`` faults) during the file write are retried in
    place by :data:`~repro.governor.retry.WRITE_RETRY`; the tmp-file +
    ``os.replace`` protocol makes every retry start from a clean slate, so
    a transient failure can never leave a half-visible checkpoint behind.
    """
    tables = []
    for name in db.catalog.table_names():
        table = db.table(name)
        spec = encode_table(
            name, table.schema, table.aging_rule, table.separate_update_delta
        )
        spec["table_id"] = table.table_id
        spec["partitions"] = [
            {
                "name": partition.name,
                "kind": partition.kind,
                "rows": _decoded_rows(partition),
                "cts": [int(v) for v in partition.cts_array()],
                "dts": [int(v) for v in partition.dts_array()],
            }
            for partition in table.partitions()
        ]
        tables.append(spec)
    state: Dict = {
        "format_version": _FORMAT_VERSION,
        "last_lsn": last_lsn,
        "latest_tid": db.transactions.global_snapshot(),
        "next_table_id": db.catalog._next_table_id,
        "tables": tables,
        "matching_dependencies": [encode_md(md) for md in db.enforcer.dependencies()],
        "consistent_agings": [
            encode_consistent_aging(decl) for decl in db.cache._agings
        ],
    }
    payload = json.dumps(state, sort_keys=True, separators=(",", ":"))
    document = json.dumps(
        {"crc": zlib.crc32(payload.encode("utf-8")), "state": state},
        sort_keys=True,
        separators=(",", ":"),
    )
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
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

    return WRITE_RETRY.call(attempt, on_retry=on_retry)


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
    """Load checkpoint ``state`` into an empty ``db`` (caller holds its lock)."""
    if db.catalog.table_names():
        raise DurabilityError("cannot restore a checkpoint into a non-empty database")
    for spec in state["tables"]:
        table = db._create_table_locked(*decode_table(spec))
        table.table_id = spec["table_id"]
        for part_spec in spec["partitions"]:
            _restore_partition(table, part_spec)
        table.rebuild_pk_index()
    for spec in state["matching_dependencies"]:
        db._add_md_locked(decode_md(spec))
    for spec in state["consistent_agings"]:
        db.declare_consistent_aging(*decode_consistent_aging(spec).tables())
    db.transactions.advance_to(state["latest_tid"])
    db.catalog._next_table_id = max(
        db.catalog._next_table_id, state["next_table_id"]
    )


def _restore_partition(table, spec: Dict) -> None:
    """Load one partition: its rows validated a column at a time, then a
    main built in bulk, or a delta appended as one batch followed by its
    invalidations."""
    columns = table.schema.validate_columns(spec["rows"])
    target = table.partition(spec["name"])
    if target.kind == "main":
        group = table._group_of_partition(spec["name"])
        group.main = Partition.build_main(
            spec["name"], table.schema, columns, spec["cts"], spec["dts"]
        )
    else:
        first = target.append(columns, spec["cts"])
        for row, invalidated in enumerate(spec["dts"], first):
            if invalidated != LIVE:
                target.invalidate(row, invalidated)


def save_database(db, directory) -> Path:
    """Write ``db`` into ``directory`` as one checkpoint file; returns the
    directory.

    The image is taken under ``db``'s shared lock, so no write lands
    halfway through it.  A table with an arbitrary callable aging rule
    raises :class:`~repro.errors.DurabilityError` and nothing is written.
    """
    with db.lock.read():
        write_checkpoint(db, directory, last_lsn=0)
    return Path(directory)


def load_database(directory, **database_kwargs):
    """A fresh :class:`~repro.database.Database` holding what
    :func:`save_database` wrote into ``directory``.

    Keyword arguments go to the ``Database`` constructor (cache config,
    policies).  With ``path=`` the restored database is durable: the rows
    reach its directory as one checkpoint written right after the
    restore, because they are restored below the write-ahead log.  Raises
    :class:`~repro.errors.StorageError` when ``directory`` holds no
    checkpoint that parses and CRC-verifies.
    """
    from ..database import Database

    found = latest_valid_checkpoint(directory)
    if found is None:
        raise StorageError(f"no valid saved database in {directory}")
    db = Database(**database_kwargs)
    with db.lock.write():
        restore_checkpoint(db, found[0])
        db.checkpoint()
    return db
