"""System monitoring views: storage, cache, and enforcement statistics.

The equivalents of a DBMS's monitoring views (``M_CS_TABLES``-style), built
from live engine state: per-partition row counts and byte sizes, aggregate
cache occupancy and lifetime hit/miss/eviction counters, and matching-
dependency enforcement activity.  ``Database.statistics()`` returns the
structured snapshot; ``render()`` formats it for humans (the shell and the
examples use it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .database import Database
from .governor import HealthReport


@dataclass
class PartitionStats:
    """Snapshot of one partition: rows, visibility, bytes, invalidations."""

    name: str
    kind: str
    rows: int
    visible_rows: int
    bytes: int
    invalidation_epoch: int
    #: "resident" or "mapped" (memory-mapped cold tier); the byte split
    #: satisfies ``resident_bytes + mapped_bytes == bytes``.
    tier: str = "resident"
    resident_bytes: int = 0
    mapped_bytes: int = 0


@dataclass
class TableStats:
    """Snapshot of one table across its partitions."""

    name: str
    table_id: int
    aged: bool
    partitions: List[PartitionStats] = field(default_factory=list)

    @property
    def total_rows(self) -> int:
        """Physical rows across all partitions."""
        return sum(p.rows for p in self.partitions)

    @property
    def total_bytes(self) -> int:
        """Approximate bytes across all partitions."""
        return sum(p.bytes for p in self.partitions)

    @property
    def delta_fill(self) -> float:
        """Fraction of physical rows currently sitting in delta partitions —
        the merge-urgency signal."""
        delta_rows = sum(p.rows for p in self.partitions if p.kind == "delta")
        total = self.total_rows
        return delta_rows / total if total else 0.0


@dataclass
class CacheStats:
    """Aggregate cache occupancy and lifetime counters."""

    entries: int
    total_value_bytes: int
    total_hits: int
    total_misses: int
    total_evictions: int
    total_maintenance_runs: int
    #: Hits answered from an entry's remembered output order (pure hits).
    result_reuses: int = 0
    # Compensation routing (see repro.core.delta_memo): which memo a
    # single-entry read stepped.
    memo_hits: int = 0  # incremental: the entry's memo
    memo_misses: int = 0  # full: the entry's birth memo (a recompute)
    memo_bypass: int = 0  # no single entry: hot/cold plans, direct scans
    #: Total bytes the memory budget tracks (entries + memos + orders +
    #: plan/parse estimates + cold overhead), from the same locked snapshot
    #: as the counters above.
    tracked_bytes: int = 0
    # Proactive cardinality-based refreshes (see repro.core.maintenance).
    refresh_advances: int = 0
    refresh_rebuilds: int = 0

    @property
    def hit_rate(self) -> float:
        """Lifetime hits / (hits + misses), 0.0 before any lookup."""
        lookups = self.total_hits + self.total_misses
        return self.total_hits / lookups if lookups else 0.0

    @property
    def memo_hit_rate(self) -> float:
        """Incremental reuses / routed compensations, 0.0 before any."""
        routed = self.memo_hits + self.memo_misses + self.memo_bypass
        return self.memo_hits / routed if routed else 0.0


@dataclass
class EnforcementSnapshot:
    """Matching-dependency enforcement activity counters."""

    matching_dependencies: int
    parent_stamps: int
    child_lookups: int
    lookups_failed: int


@dataclass
class DurabilityStats:
    """WAL append counters plus what the last recovery replayed.

    Only present for durable databases (``Database(path=...)``); an
    in-memory engine has nothing to fsync and nothing to recover.
    """

    path: str
    wal_records_appended: int
    wal_transactions_logged: int
    wal_merges_logged: int
    wal_bytes_written: int
    wal_last_lsn: int
    checkpoints_written: int
    recovered: bool  # True when opening found previous state to replay
    recovery_checkpoint_lsn: Optional[int] = None
    recovery_records_replayed: int = 0
    recovery_transactions_replayed: int = 0
    recovery_merges_replayed: int = 0
    recovery_torn_records_dropped: int = 0
    recovered_tid: int = 0


@dataclass
class DatabaseStats:
    """One consistent snapshot of engine statistics."""

    snapshot_tid: int
    tables: List[TableStats]
    cache: CacheStats
    enforcement: EnforcementSnapshot
    durability: Optional[DurabilityStats] = None
    #: The resource governor's health snapshot (breaker states, degraded
    #: modes, abort/retry/shed counters); see :mod:`repro.governor`.
    health: Optional[HealthReport] = None
    #: Flat ``{name{labels}: value}`` view of the metrics registry at
    #: snapshot time (empty when observability is disabled).
    metrics: Dict[str, float] = field(default_factory=dict)

    def table(self, name: str) -> TableStats:
        """The stats of one table by name (KeyError if absent)."""
        for stats in self.tables:
            if stats.name == name:
                return stats
        raise KeyError(name)

    def render(self) -> str:
        """Human-readable multi-line rendering of the snapshot."""
        lines = [f"snapshot: tid {self.snapshot_tid}", "", "tables:"]
        for table in self.tables:
            lines.append(
                f"  {table.name} (id {table.table_id}"
                f"{', aged' if table.aged else ''}) — "
                f"{table.total_rows} rows, ~{table.total_bytes} B, "
                f"delta fill {table.delta_fill:.1%}"
            )
            for part in table.partitions:
                tier = (
                    f" tier=mapped (~{part.mapped_bytes}B on disk)"
                    if part.tier == "mapped"
                    else ""
                )
                lines.append(
                    f"    {part.name:<12} {part.kind:<5} rows={part.rows} "
                    f"visible={part.visible_rows} ~{part.bytes}B "
                    f"invalidations={part.invalidation_epoch}{tier}"
                )
        cache = self.cache
        lines += [
            "",
            "aggregate cache:",
            f"  entries={cache.entries} value-bytes~{cache.total_value_bytes} "
            f"hits={cache.total_hits} misses={cache.total_misses} "
            f"hit-rate={cache.hit_rate:.1%} "
            f"result-reuses={cache.result_reuses} "
            f"evictions={cache.total_evictions} "
            f"maintenance-runs={cache.total_maintenance_runs}",
            f"  delta-memo: incremental={cache.memo_hits} "
            f"full={cache.memo_misses} (from birth) bypass={cache.memo_bypass} "
            f"incremental-rate={cache.memo_hit_rate:.1%}",
            f"  refresh: advances={cache.refresh_advances} "
            f"rebuilds={cache.refresh_rebuilds}",
            "",
            "matching dependencies:",
            f"  declared={self.enforcement.matching_dependencies} "
            f"parent-stamps={self.enforcement.parent_stamps} "
            f"child-lookups={self.enforcement.child_lookups} "
            f"failed-lookups={self.enforcement.lookups_failed}",
        ]
        if self.durability is not None:
            d = self.durability
            lines += [
                "",
                "durability:",
                f"  wal@{d.path}: records={d.wal_records_appended} "
                f"txns={d.wal_transactions_logged} merges={d.wal_merges_logged} "
                f"~{d.wal_bytes_written}B last-lsn={d.wal_last_lsn} "
                f"checkpoints={d.checkpoints_written}",
            ]
            if d.recovered:
                ckpt = (
                    f"checkpoint-lsn={d.recovery_checkpoint_lsn}"
                    if d.recovery_checkpoint_lsn is not None
                    else "no-checkpoint"
                )
                lines.append(
                    f"  recovered: {ckpt} records={d.recovery_records_replayed} "
                    f"txns={d.recovery_transactions_replayed} "
                    f"merges={d.recovery_merges_replayed} "
                    f"torn-dropped={d.recovery_torn_records_dropped} "
                    f"tid={d.recovered_tid}"
                )
        if self.health is not None:
            lines += ["", "health:"]
            lines += [f"  {line}" for line in self.health.render().splitlines()]
        if self.metrics:
            lines += ["", "metrics:"]
            for name, value in sorted(self.metrics.items()):
                # Histogram bucket samples are a scrape-format detail; the
                # _sum/_count pair already summarizes each histogram.
                if "_bucket{" in name:
                    continue
                lines.append(f"  {name} {value:g}")
        return "\n".join(lines)


def collect_statistics(db: Database) -> DatabaseStats:
    """Take a statistics snapshot of ``db``."""
    snapshot = db.transactions.global_snapshot()
    tables: List[TableStats] = []
    for name in db.catalog.table_names():
        table = db.table(name)
        stats = TableStats(name=name, table_id=table.table_id, aged=table.is_aged())
        for partition in table.partitions():
            stats.partitions.append(
                PartitionStats(
                    name=partition.name,
                    kind=partition.kind,
                    rows=partition.row_count,
                    visible_rows=partition.visible_count(snapshot),
                    bytes=partition.nbytes(),
                    invalidation_epoch=partition.invalidation_epoch,
                    tier=partition.storage_tier,
                    resident_bytes=partition.nbytes_resident(),
                    mapped_bytes=partition.nbytes_mapped(),
                )
            )
        tables.append(stats)
    manager = db.cache
    # One locked snapshot of the lifetime counters: reading the attributes
    # one by one could interleave with a concurrent query's bookkeeping and
    # report e.g. more hits than lookups.  ``value_bytes`` comes from the
    # same snapshot — computing it from a separate ``manager.entries()``
    # call would take the lock a second time, and entries created or
    # evicted in between would make the byte total disagree with
    # ``entries`` (a torn read).
    counters = manager.counters_snapshot()
    cache = CacheStats(
        entries=counters["entries"],
        total_value_bytes=counters["value_bytes"],
        total_hits=counters["hits"],
        total_misses=counters["misses"],
        total_evictions=counters["evictions"],
        total_maintenance_runs=counters["maintenance_runs"],
        result_reuses=counters["result_reuses"],
        memo_hits=counters["memo_hits"],
        memo_misses=counters["memo_misses"],
        memo_bypass=counters["memo_bypass"],
        tracked_bytes=counters["tracked_bytes"],
        refresh_advances=counters["refresh_advances"],
        refresh_rebuilds=counters["refresh_rebuilds"],
    )
    enforcement = EnforcementSnapshot(
        matching_dependencies=len(db.enforcer.dependencies()),
        parent_stamps=db.enforcer.stats.parent_stamps,
        child_lookups=db.enforcer.stats.child_lookups,
        lookups_failed=db.enforcer.stats.lookups_failed,
    )
    durability: Optional[DurabilityStats] = None
    if db.wal is not None:
        wal_stats = db.wal.stats
        recovery = db.recovery_stats
        recovered = recovery is not None and (
            recovery.records_scanned > 0 or recovery.checkpoint_lsn is not None
        )
        durability = DurabilityStats(
            path=str(db.path),
            wal_records_appended=wal_stats.records_appended,
            wal_transactions_logged=wal_stats.transactions_logged,
            wal_merges_logged=wal_stats.merges_logged,
            wal_bytes_written=wal_stats.bytes_written,
            wal_last_lsn=wal_stats.last_lsn,
            checkpoints_written=wal_stats.checkpoints_written,
            recovered=recovered,
        )
        if recovery is not None:
            durability.recovery_checkpoint_lsn = recovery.checkpoint_lsn
            durability.recovery_records_replayed = recovery.records_replayed
            durability.recovery_transactions_replayed = recovery.transactions_replayed
            durability.recovery_merges_replayed = recovery.merges_replayed
            durability.recovery_torn_records_dropped = recovery.torn_records_dropped
            durability.recovered_tid = recovery.recovered_tid
    return DatabaseStats(
        snapshot_tid=snapshot,
        tables=tables,
        cache=cache,
        enforcement=enforcement,
        durability=durability,
        # The byte reading comes from the counters snapshot above — a
        # separate manager.tracked_bytes() call would take the manager
        # lock a second time, and a shed or insert between the two takes
        # would make the health view disagree with the cache stats (the
        # same torn-read class the single-snapshot counters fix closed).
        health=db.governor.health(tracked_bytes=counters["tracked_bytes"]),
        metrics=db.metrics_snapshot(),
    )
