"""System monitoring views: storage, cache, and enforcement statistics.

The equivalents of a DBMS's monitoring views (``M_CS_TABLES``-style), built
from live engine state: per-partition row counts and byte sizes, the cache
manager's ``counters_snapshot()``, and copies of the engine's own
:class:`~repro.core.enforcement.EnforcementStats`,
:class:`~repro.reliability.wal.WalStats` and
:class:`~repro.reliability.recovery.RecoveryStats`.
``Database.statistics()`` returns the structured snapshot; ``render()``
formats it for humans (the shell and the examples use it).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional

from .core.enforcement import EnforcementStats
from .database import Database
from .governor import HealthReport
from .reliability.recovery import RecoveryStats
from .reliability.wal import WalStats


@dataclass
class PartitionStats:
    """Snapshot of one partition: rows, visibility, bytes, invalidations."""

    name: str
    kind: str
    rows: int
    visible_rows: int
    bytes: int
    invalidation_epoch: int


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
    """Aggregate cache occupancy and lifetime counters: the fields of the
    manager's one locked ``counters_snapshot()`` of the same names."""

    entries: int
    value_bytes: int
    #: Total bytes the memory budget tracks (entries + memos + orders +
    #: plan/parse estimates).
    tracked_bytes: int
    hits: int
    misses: int
    evictions: int
    maintenance_runs: int
    #: Hits answered from an entry's remembered output order (pure hits).
    result_reuses: int
    # Compensation routing (see repro.core.delta_memo): which memo a
    # single-entry read stepped.
    memo_hits: int  # incremental: the entry's memo
    memo_misses: int  # full: the entry's birth memo (a recompute)
    memo_bypass: int  # no single entry: hot/cold plans, direct scans
    # Proactive cardinality-based refreshes (see repro.core.maintenance).
    refresh_advances: int
    refresh_rebuilds: int

    @property
    def hit_rate(self) -> float:
        """Lifetime hits / (hits + misses), 0.0 before any lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    @property
    def memo_hit_rate(self) -> float:
        """Incremental reuses / routed compensations, 0.0 before any."""
        routed = self.memo_hits + self.memo_misses + self.memo_bypass
        return self.memo_hits / routed if routed else 0.0


@dataclass
class DurabilityStats:
    """The WAL's append counters and what the last recovery replayed.

    Only present for durable databases (``Database(path=...)``); an
    in-memory engine has nothing to fsync and nothing to recover.
    """

    path: str
    wal: WalStats
    recovery: Optional[RecoveryStats] = None

    @property
    def recovered(self) -> bool:
        """True when opening found previous state to replay."""
        r = self.recovery
        return r is not None and (r.records_scanned > 0 or r.checkpoint_lsn is not None)


@dataclass
class DatabaseStats:
    """One consistent snapshot of engine statistics."""

    snapshot_tid: int
    tables: List[TableStats]
    cache: CacheStats
    matching_dependencies: int
    enforcement: EnforcementStats
    durability: Optional[DurabilityStats] = None
    #: The resource governor's health snapshot (degraded mode,
    #: abort/retry/shed counters); see :mod:`repro.governor`.
    health: Optional[HealthReport] = None
    #: Flat ``{name{labels}: value}`` view of the metrics registry at
    #: snapshot time — the registry the cache counters above are read from.
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
                lines.append(
                    f"    {part.name:<12} {part.kind:<5} rows={part.rows} "
                    f"visible={part.visible_rows} ~{part.bytes}B "
                    f"invalidations={part.invalidation_epoch}"
                )
        cache, md = self.cache, self.enforcement
        lines += [
            "",
            "aggregate cache:",
            f"  entries={cache.entries} value-bytes~{cache.value_bytes} "
            f"hits={cache.hits} misses={cache.misses} "
            f"hit-rate={cache.hit_rate:.1%} "
            f"result-reuses={cache.result_reuses} "
            f"evictions={cache.evictions} "
            f"maintenance-runs={cache.maintenance_runs}",
            f"  delta-memo: incremental={cache.memo_hits} "
            f"full={cache.memo_misses} (from birth) bypass={cache.memo_bypass} "
            f"incremental-rate={cache.memo_hit_rate:.1%}",
            f"  refresh: advances={cache.refresh_advances} "
            f"rebuilds={cache.refresh_rebuilds}",
            "",
            "matching dependencies:",
            f"  declared={self.matching_dependencies} "
            f"parent-stamps={md.parent_stamps} "
            f"child-lookups={md.child_lookups} "
            f"failed-lookups={md.lookups_failed}",
        ]
        if self.durability is not None:
            d, wal = self.durability, self.durability.wal
            lines += [
                "",
                "durability:",
                f"  wal@{d.path}: records={wal.records_appended} "
                f"txns={wal.transactions_logged} merges={wal.merges_logged} "
                f"~{wal.bytes_written}B last-lsn={wal.last_lsn} "
                f"checkpoints={wal.checkpoints_written}",
            ]
            if d.recovered:
                r = d.recovery
                ckpt = (
                    f"checkpoint-lsn={r.checkpoint_lsn}"
                    if r.checkpoint_lsn is not None
                    else "no-checkpoint"
                )
                lines.append(
                    f"  recovered: {ckpt} records={r.records_replayed} "
                    f"txns={r.transactions_replayed} "
                    f"merges={r.merges_replayed} "
                    f"torn-dropped={r.torn_records_dropped} "
                    f"tid={r.recovered_tid}"
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
                )
            )
        tables.append(stats)
    # One locked snapshot of the lifetime counters, entry bytes and tracked
    # bytes: reading them one by one could interleave with a concurrent
    # query's bookkeeping and report e.g. more hits than lookups, or a
    # byte total that disagrees with the entry count (a torn read).
    counters = db.cache.counters_snapshot()
    durability: Optional[DurabilityStats] = None
    if db.wal is not None:
        recovery = db.recovery_stats
        durability = DurabilityStats(
            path=str(db.path),
            wal=replace(db.wal.stats),
            recovery=replace(recovery) if recovery is not None else None,
        )
    return DatabaseStats(
        snapshot_tid=snapshot,
        tables=tables,
        cache=CacheStats(**{f.name: counters[f.name] for f in fields(CacheStats)}),
        matching_dependencies=len(db.enforcer.dependencies()),
        enforcement=replace(db.enforcer.stats),
        durability=durability,
        # tracked_bytes comes from the counters snapshot above, so the
        # health view describes the same instant as the cache stats.
        health=db.governor.health(
            tracked_bytes=counters["tracked_bytes"], wal_degraded=db.wal_degraded
        ),
        metrics=db.metrics_snapshot(),
    )
