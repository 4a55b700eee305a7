"""The write-ahead log: committed work as CRC-checked JSON lines.

Every record is one line::

    {"crc": 2774340723, "data": {...}, "lsn": 7, "type": "txn"}

``crc`` is the CRC-32 of the canonical serialization of the record without
the ``crc`` field, so any torn or bit-flipped line is detected on replay.
Record types:

* ``txn`` — one *finished* transaction with every operation it applied
  (``insert`` rows are logged post-stamping, so replay needs no matching-
  dependency enforcement).  One record per transaction makes transaction
  atomicity trivial: a torn tail is exactly an unfinished transaction.
* ``create_table`` / ``drop_table`` / ``add_md`` / ``consistent_aging`` —
  auto-committed DDL.
* ``merge`` — a completed (swapped) delta merge of one table; replay re-runs
  the merge at the logged snapshot, which is deterministic.

Appends are flushed *and fsynced* before the commit returns — group commit
is future work; the engine optimizes for recoverability first.

Recovery reads the log sequentially.  A record that fails to parse or
CRC-verify is tolerated **only as the final record** (a torn tail from a
crash mid-append); the tail is truncated so later appends start clean.  A
bad record with valid records after it means real corruption and raises
:class:`~repro.errors.DurabilityError`.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..errors import DurabilityError
from ..governor.retry import WRITE_RETRY
from .faults import FaultInjector, SimulatedCrash


def _encode(lsn: int, record_type: str, data: Dict) -> bytes:
    body = {"lsn": lsn, "type": record_type, "data": data}
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    body["crc"] = zlib.crc32(payload.encode("utf-8"))
    return (json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def _decode(line: str) -> Optional["WalRecord"]:
    """Parse and CRC-verify one line; None if torn/corrupt."""
    try:
        body = json.loads(line)
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(body, dict) or "crc" not in body:
        return None
    crc = body.pop("crc")
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"))
    if zlib.crc32(payload.encode("utf-8")) != crc:
        return None
    try:
        return WalRecord(int(body["lsn"]), str(body["type"]), body["data"])
    except (KeyError, TypeError, ValueError):
        return None


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL record."""

    lsn: int
    type: str
    data: Dict


@dataclass
class WalScan:
    """Result of reading a WAL file front to back."""

    records: List[WalRecord] = field(default_factory=list)
    valid_bytes: int = 0  # offset just past the last valid record
    torn_records_dropped: int = 0


@dataclass
class WalStats:
    """Lifetime append counters of one WAL handle (monitoring view)."""

    records_appended: int = 0
    transactions_logged: int = 0
    merges_logged: int = 0
    checkpoints_written: int = 0
    bytes_written: int = 0
    last_lsn: int = 0


class WriteAheadLog:
    """Append/scan handle for one ``wal.jsonl`` file."""

    def __init__(
        self,
        path,
        faults: Optional[FaultInjector] = None,
        obs=None,
    ):
        self.path = Path(path)
        self._faults = faults if faults is not None else FaultInjector()
        self._fh = None
        self._next_lsn = 1
        self.stats = WalStats()
        # Optional EngineMetrics: append counters and the fsync latency
        # histogram, the dominant term in commit latency.
        self.obs = obs
        # Set by the Database facade: each retried attempt feeds the
        # repro_governor_retries_total counter.
        self.on_append_retry: Optional[Callable[[str], None]] = None

    # ------------------------------------------------------------------
    # reading (recovery side)
    # ------------------------------------------------------------------
    def scan(self) -> WalScan:
        """Read every valid record; tolerate (and count) a torn tail."""
        scan = WalScan()
        if not self.path.exists():
            return scan
        pending_bad = False
        offset = 0
        with self.path.open("rb") as handle:
            for raw in handle:
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    offset += len(raw)
                    continue
                record = _decode(line)
                if record is None or not raw.endswith(b"\n"):
                    # Possibly a torn tail — only acceptable if nothing
                    # valid follows.
                    pending_bad = True
                    offset += len(raw)
                    continue
                if pending_bad:
                    raise DurabilityError(
                        f"WAL {self.path} is corrupted: invalid record "
                        f"before lsn {record.lsn}"
                    )
                if scan.records and record.lsn <= scan.records[-1].lsn:
                    raise DurabilityError(
                        f"WAL {self.path} is corrupted: lsn {record.lsn} "
                        f"follows lsn {scan.records[-1].lsn}"
                    )
                scan.records.append(record)
                offset += len(raw)
                scan.valid_bytes = offset
        if pending_bad:
            scan.torn_records_dropped = 1
        return scan

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def open_for_append(self, scan: Optional[WalScan] = None) -> None:
        """Open the file for appending, truncating any torn tail first."""
        if self._fh is not None:
            return
        if scan is None:
            scan = self.scan()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists() and scan.torn_records_dropped:
            with self.path.open("rb+") as handle:
                handle.truncate(scan.valid_bytes)
        if scan.records:
            self._next_lsn = scan.records[-1].lsn + 1
            self.stats.last_lsn = scan.records[-1].lsn
        self._fh = self.path.open("ab")

    @property
    def is_open(self) -> bool:
        """True while the append handle is live."""
        return self._fh is not None

    def close(self) -> None:
        """Close the append handle (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def append(self, record_type: str, data: Dict) -> int:
        """Durably append one record; returns its lsn.

        A ``crash``-armed ``wal.append`` fault emulates a torn write: the
        first half of the record reaches the file before the "kill", which
        is exactly the torn tail recovery must cope with.

        Transient ``OSError``s (including injected ``io_error`` faults)
        are retried in place by :data:`~repro.governor.retry.WRITE_RETRY`;
        a partially written record is truncated away before each retry so
        the retried append starts from a clean tail.  Exhausted retries
        escalate to :class:`~repro.errors.DurabilityError` and the lsn is
        not consumed.
        """
        if self._fh is None:
            raise DurabilityError("WAL is not open for appending")
        lsn = self._next_lsn
        payload = _encode(lsn, record_type, data)

        def attempt() -> None:
            self._faults.fire("wal.append")
            self._write_durably(payload)

        try:
            WRITE_RETRY.call(attempt, on_retry=self._on_retry)
        except SimulatedCrash:
            self._fh.write(payload[: max(1, len(payload) // 2)])
            self._fh.flush()
            os.fsync(self._fh.fileno())
            raise
        except OSError as err:
            raise DurabilityError(
                f"WAL append of lsn {lsn} failed after "
                f"{WRITE_RETRY.attempts} attempt(s): {err}"
            ) from err
        if self.obs is not None:
            self.obs.wal_appends.inc()
            self.obs.wal_bytes.inc(len(payload))
        self._next_lsn = lsn + 1
        self.stats.records_appended += 1
        self.stats.bytes_written += len(payload)
        self.stats.last_lsn = lsn
        if record_type == "txn":
            self.stats.transactions_logged += 1
        elif record_type == "merge":
            self.stats.merges_logged += 1
        return lsn

    def _write_durably(self, payload: bytes) -> None:
        """Write + flush + fsync; roll back a partial write on failure.

        Truncating back to the pre-write offset keeps a failed attempt
        invisible: without it, a retry after a partial write would leave
        torn garbage *before* a valid record, which recovery correctly
        refuses as corruption.
        """
        offset = self._fh.tell()
        try:
            self._fh.write(payload)
            self._fh.flush()
            fsync_started = time.perf_counter()
            os.fsync(self._fh.fileno())
        except OSError:
            try:
                self._fh.flush()
                self._fh.truncate(offset)
            except OSError:
                pass
            raise
        if self.obs is not None:
            self.obs.wal_fsync_seconds.observe(time.perf_counter() - fsync_started)

    def _on_retry(self, attempt: int, err: BaseException) -> None:
        if self.on_append_retry is not None:
            self.on_append_retry("wal.append")
