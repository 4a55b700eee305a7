"""Crash safety: write-ahead logging, checkpoints, recovery, fault injection.

The delta merge is only a safe anchor for aggregate-cache maintenance if it
is atomic and repeatable (Krueger et al.'s merge, the precondition of the
paper's Section 5.2 piggy-backing; Funke et al. make the same assumption
for compaction).  This package supplies the machinery that makes the whole
engine hold that property across process kills:

* :mod:`wal` — CRC-checked JSON-lines write-ahead log, fsynced per commit;
* :mod:`checkpoint` — atomic full-state snapshots written at merge time;
* :mod:`recovery` — checkpoint restore + WAL replay with torn-tail handling;
* :mod:`faults` — named fault points (``wal.append``,
  ``merge.before_swap``, ...) that raise, crash, or delay on demand, driving
  the kill-point recovery tests.
"""

from .checkpoint import (
    latest_valid_checkpoint,
    list_checkpoints,
    read_checkpoint,
    restore_checkpoint,
    write_checkpoint,
)
from .faults import KNOWN_FAULT_POINTS, FaultInjector, SimulatedCrash
from .recovery import RecoveryStats, recover_database
from .wal import WalRecord, WalScan, WalStats, WriteAheadLog

__all__ = [
    "FaultInjector",
    "KNOWN_FAULT_POINTS",
    "RecoveryStats",
    "SimulatedCrash",
    "WalRecord",
    "WalScan",
    "WalStats",
    "WriteAheadLog",
    "latest_valid_checkpoint",
    "list_checkpoints",
    "read_checkpoint",
    "recover_database",
    "restore_checkpoint",
    "write_checkpoint",
]
