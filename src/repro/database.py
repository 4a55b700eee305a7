"""The top-level database facade.

Wires together the storage catalog, the transaction/visibility layer, the
partition-aware executor, the matching-dependency enforcer, and the
aggregate cache manager into the single object applications talk to:

.. code-block:: python

    from repro import Database, ExecutionStrategy

    db = Database()
    db.create_table("header", [("hid", "INT"), ("year", "INT")], primary_key="hid")
    db.create_table("item", [("iid", "INT"), ("hid", "INT"), ("price", "FLOAT")],
                    primary_key="iid")
    db.add_matching_dependency("header", "hid", "item", "hid")

    db.insert("header", {"hid": 1, "year": 2013})
    db.insert("item", {"iid": 1, "hid": 1, "price": 10.0})
    db.merge()

    result = db.query(
        "SELECT SUM(i.price) AS profit FROM header h, item i WHERE h.hid = i.hid",
        strategy=ExecutionStrategy.CACHED_FULL_PRUNING,
    )
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .concurrency import ReadWriteLock
from .core.enforcement import MDEnforcer
from .core.manager import AggregateCacheManager, CacheQueryReport
from .core.matching_dependency import MatchingDependency
from .core.strategies import CacheConfig, ExecutionStrategy
from .errors import (
    CatalogError,
    DurabilityError,
    QueryCancelled,
    QueryError,
    QueryTimeout,
    WriteRejectedError,
)
from .governor import (
    CancelToken,
    GovernorConfig,
    HealthReport,
    ResourceGovernor,
)
from .governor.retry import WRITE_RETRY
from .obs.trace import QueryTrace
from .query.executor import QueryExecutor
from .query.query import AggregateQuery
from .query.result import QueryResult
from .query.sql import parse_sql
from .reliability.checkpoint import encode_consistent_aging, encode_md, encode_table
from .reliability.faults import FaultInjector
from .reliability.recovery import RecoveryStats, recover_database
from .reliability.wal import WriteAheadLog
from .storage.aging import ConsistentAging
from .storage.catalog import Catalog
from .storage.merge import MergeStats, merge_table
from .storage.schema import ColumnDef, Schema, SqlType, tid_column
from .storage.table import AgingRule, Table
from .txn.consistent_view import ConsistentViewManager
from .txn.manager import SnapshotReader, Transaction, TransactionManager

ColumnsSpec = Union[Schema, Sequence[ColumnDef], Sequence[Tuple[str, str]]]


def _as_schema(columns: ColumnsSpec, primary_key: Optional[str]) -> Schema:
    if isinstance(columns, Schema):
        return columns
    defs: List[ColumnDef] = []
    for column in columns:
        if isinstance(column, ColumnDef):
            defs.append(column)
        else:
            name, type_name = column
            defs.append(ColumnDef(name, SqlType(type_name.upper())))
    return Schema(defs, primary_key=primary_key)


class Database:
    """A columnar database with an aggregate cache.

    Purely in-memory by default.  Pass ``path`` (or use :meth:`open`) for a
    **durable** database: every committed transaction, DDL statement, and
    delta merge is appended to a CRC-checked write-ahead log and fsynced
    before the call returns, merges additionally write an atomic checkpoint,
    and reopening the same path recovers the exact pre-crash state — see
    :mod:`repro.reliability`.

    The facade is safe to share between threads.  A database-level
    readers–writer lock (``db.lock``) lets any number of queries proceed in
    parallel while DML, delta merges, DDL, and checkpointing take exclusive
    ownership; cache entry/eviction bookkeeping during a query is
    guarded by the cache manager's own internal lock.  Each query runs its
    subjoins serially on the calling thread.
    """

    def __init__(
        self,
        cache_config: Optional[CacheConfig] = None,
        path=None,
        fault_injector: Optional[FaultInjector] = None,
        governor: Optional[Union[ResourceGovernor, GovernorConfig]] = None,
    ):
        self.lock = ReadWriteLock()
        self.catalog = Catalog()
        self.transactions = TransactionManager()
        self.views = ConsistentViewManager(self.transactions)
        self.executor = QueryExecutor(self.catalog)
        self.faults = fault_injector if fault_injector is not None else FaultInjector()
        # The resource governor: pass a ResourceGovernor or a GovernorConfig
        # to override the environment defaults.  A passed governor brings
        # its registry, so the engine and the governor count into one.
        if not isinstance(governor, ResourceGovernor):
            governor = ResourceGovernor(governor)
        self.governor = governor
        self.obs = governor.obs
        self.cache = AggregateCacheManager(
            self.catalog,
            self.executor,
            self.views,
            config=cache_config,
            obs=self.obs,
            governor=self.governor,
        )
        self.cache.fault_injector = self.faults
        self.enforcer = MDEnforcer(self.catalog)
        self._thread_state = threading.local()
        self._close_lock = threading.Lock()
        self._closed = False
        self._write_listeners: List[object] = []
        self._merge_listeners: List[object] = []
        # Durability state (all None/inert for in-memory databases).
        self.path: Optional[Path] = None
        self.recovery_stats: Optional[RecoveryStats] = None
        self._wal: Optional[WriteAheadLog] = None
        self._replaying = False
        self._txn_ops: Dict[int, List[Dict]] = {}
        # The one way a record reaches the WAL: every record (transaction,
        # DDL, merge) is queued here and the queue is drained in order
        # under the write lock.  A record the log refused stays queued —
        # its effects are already live — and while the queue is non-empty
        # the database is WAL-degraded (see _ensure_writable).  At most
        # one record per open transaction can join a non-empty queue.
        self._wal_backlog: List[Tuple[str, Dict]] = []
        if path is not None:
            self._open_durable(path)

    @classmethod
    def open(cls, path, **kwargs) -> "Database":
        """Open (or create) a durable database at ``path``.

        Equivalent to ``Database(path=path, ...)``: if the directory holds a
        previous incarnation's checkpoint/WAL, its state is recovered first
        (``db.recovery_stats`` describes what was replayed).
        """
        return cls(path=path, **kwargs)

    # ------------------------------------------------------------------
    # durability plumbing
    # ------------------------------------------------------------------
    @property
    def is_durable(self) -> bool:
        """True when the database is backed by a WAL directory."""
        return self._wal is not None

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        """The write-ahead log handle (None for in-memory databases)."""
        return self._wal

    def _open_durable(self, path) -> None:
        with self.lock.write():  # recovery is exclusive, like any DDL/DML
            self.path = Path(path)
            self.path.mkdir(parents=True, exist_ok=True)
            self._wal = WriteAheadLog(
                self.path / "wal.jsonl", faults=self.faults, obs=self.obs
            )
            self._wal.on_append_retry = self.governor.record_io_retry
            self._replaying = True
            try:
                self.recovery_stats = recover_database(
                    self, self._wal, self._checkpoint_dir()
                )
            finally:
                self._replaying = False
            self.transactions.finish_hooks.append(self._on_txn_finish)

    def _checkpoint_dir(self) -> Path:
        return self.path / "checkpoints"

    def _ensure_writable(self) -> None:
        """Drain the WAL backlog before a mutation; reject it if that fails.

        Called first inside every mutating entry point's write-lock span.
        An empty backlog costs one check.  A non-empty one is the
        WAL-degraded state: the drain is the probe, so the first write
        after the log heals goes through with no cooldown, and a write
        the drain cannot clear raises
        :class:`~repro.errors.WriteRejectedError` before anything is
        applied.  Recovery replay is exempt: it re-applies durable work.
        """
        if not self._wal_backlog or self._replaying:
            return
        try:
            self._drain_wal_backlog()
        except DurabilityError as err:
            self.governor.record_write_rejected()
            raise WriteRejectedError(
                f"database is WAL-degraded ({len(self._wal_backlog)} "
                f"record(s) not yet logged): writes are rejected until the "
                f"log accepts them; reads are still served ({err})"
            ) from err

    @property
    def wal_degraded(self) -> bool:
        """True while a record the log refused waits in the backlog."""
        return bool(self._wal_backlog)

    def _log(self, record_type: str, data: Dict) -> None:
        """Queue one WAL record and drain the backlog (caller holds the
        write lock).  Raises the :class:`~repro.errors.DurabilityError` of
        the first record that still cannot be written; it and everything
        after it stay queued."""
        if self._wal is not None and not self._replaying:
            self._wal_backlog.append((record_type, data))
            self._drain_wal_backlog()

    def _log_op(self, tid: int, op: Dict) -> None:
        if self._wal is not None and not self._replaying:
            self._txn_ops.setdefault(tid, []).append(op)

    def _on_txn_finish(self, txn: Transaction) -> None:
        """Log a finished transaction's buffered operations.

        Aborted transactions log too: the engine has no undo, so whatever
        the transaction applied before aborting is part of the in-memory
        state and must survive recovery identically (the record's
        ``status`` field preserves the distinction for forensics).

        Explicit commits arrive here without the database lock, so the
        record is queued under the write lock like every other.  A
        read-only transaction has no record and takes no lock: reads must
        stay servable while WAL-degraded.
        """
        if txn.tid not in self._txn_ops:
            return
        with self.lock.write():
            # Popped under the lock, so no checkpoint runs between the pop
            # and the queueing and captures the rows without the record.
            ops = self._txn_ops.pop(txn.tid)
            self._wal_backlog.append(
                ("txn", {"tid": txn.tid, "status": txn.state, "ops": ops})
            )
            self.faults.fire("txn.commit")
            self._drain_wal_backlog()

    def _drain_wal_backlog(self) -> None:
        """Append queued records in order; stop at the first failure.

        The only caller of ``WriteAheadLog.append``; every caller holds
        the database write lock, so appends never race.
        """
        while self._wal_backlog:
            self._wal.append(*self._wal_backlog[0])
            self._wal_backlog.pop(0)

    def checkpoint(self) -> Optional[Path]:
        """Write an atomic full-state checkpoint (durable databases only).

        Returns the checkpoint path, or None for in-memory databases.
        Called automatically after every :meth:`merge`.  A checkpoint
        changes no state and is not gated on the backlog: it captures the
        effects of every queued record, so success clears the backlog
        (appending those records later would make replay apply them
        twice).  A failed checkpoint raises
        :class:`~repro.errors.DurabilityError` and degrades nothing — the
        WAL still holds every logged record.  While a transaction that
        already wrote is open it writes nothing and returns None: that
        transaction's WAL record, appended after the checkpoint's lsn,
        would replay rows the image already holds.
        """
        if self._wal is None:
            return None
        from .reliability.checkpoint import write_checkpoint

        def on_retry(attempt, err):
            self.governor.record_io_retry("checkpoint.write")

        with self.lock.write():  # the snapshot must not race ongoing DML
            if self._txn_ops:
                return None
            try:
                path = write_checkpoint(
                    self,
                    self._checkpoint_dir(),
                    self._wal.stats.last_lsn,
                    faults=self.faults,
                    on_retry=on_retry,
                )
            except OSError as err:
                raise DurabilityError(
                    f"checkpoint write failed after "
                    f"{WRITE_RETRY.attempts} attempt(s): {err}"
                ) from err
            self._wal.stats.checkpoints_written += 1
            self._wal_backlog.clear()
            return path

    def close(self) -> None:
        """Shut the database down (idempotent, thread-safe).

        Exactly one caller performs the shutdown; concurrent and repeated
        calls return immediately.  The closer takes the database write
        lock first, so every in-flight query drains before the WAL handle
        is released — closing under concurrent readers never yanks it out
        from under them.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        with self.lock.write():  # drain in-flight readers before teardown
            if self._wal is not None:
                try:
                    # Last chance for records the log refused earlier: a
                    # clean close must not forget work the live database
                    # already served.
                    self._drain_wal_backlog()
                except DurabilityError:
                    pass  # still failing; closing must not raise
                self._wal.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def recover(self) -> "Database":
        """Abandon this instance and return a freshly recovered one.

        The crash-recovery idiom: after a (simulated or real) failure the
        live object may hold state that never reached the log — close it
        and rebuild only what the checkpoint + WAL prove
        (``recovery_stats`` on the returned instance says what that was).
        Constructor arguments such as a custom cache config are not
        carried over; reopen via :meth:`open` to pass them again.
        """
        if self.path is None:
            raise DurabilityError("an in-memory database has nothing to recover")
        self.close()
        return type(self).open(self.path)

    # ------------------------------------------------------------------
    # write listeners (used by the materialized-view baselines)
    # ------------------------------------------------------------------
    def register_write_listener(self, listener) -> None:
        """Register an observer with ``on_insert(table, row, tid)``,
        ``on_update(table, old_row, new_row, tid)``, and
        ``on_delete(table, old_row, tid)`` callbacks.  The eager/lazy
        materialized-view baselines of Section 6.1 subscribe here."""
        self._write_listeners.append(listener)

    def unregister_write_listener(self, listener) -> None:
        """Remove a previously registered write listener."""
        self._write_listeners.remove(listener)

    def register_merge_listener(self, listener) -> None:
        """Additional :class:`~repro.storage.merge.MergeListener`s notified
        on every ``merge`` (the aggregate cache is always first)."""
        self._merge_listeners.append(listener)

    def unregister_merge_listener(self, listener) -> None:
        """Remove a previously registered merge listener."""
        self._merge_listeners.remove(listener)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def create_table(
        self,
        name: str,
        columns: ColumnsSpec,
        primary_key: Optional[str] = None,
        aging_rule: Optional[AgingRule] = None,
        separate_update_delta: bool = False,
    ) -> Table:
        """Create a table.  ``columns`` may be a Schema, ColumnDefs, or
        ``(name, "INT"|"FLOAT"|"TEXT"|"DATE")`` tuples.

        ``separate_update_delta=True`` gives every partition group a third,
        update-only delta partition (the paper's Section-8 "negative delta"
        direction): updates no longer pollute the insert delta's tid ranges,
        keeping main x insert-delta subjoins dynamically prunable under
        update traffic.
        """
        schema = _as_schema(columns, primary_key)
        with self.lock.write():
            self._ensure_writable()
            return self._create_table_locked(
                name, schema, aging_rule, separate_update_delta
            )

    def _create_table_locked(
        self, name, schema, aging_rule, separate_update_delta
    ) -> Table:
        # Encoded first: a durable database refuses a rule it cannot persist
        # before the table exists.
        record = (
            encode_table(name, schema, aging_rule, separate_update_delta)
            if self._wal is not None
            else None
        )
        table = self.catalog.create_table(
            name,
            schema,
            aging_rule=aging_rule,
            separate_update_delta=separate_update_delta,
        )
        self._log("create_table", record)
        return table

    def drop_table(self, name: str) -> None:
        """Drop a table, evicting only the cache entries that reference it."""
        with self.lock.write():
            self._ensure_writable()
            self.catalog.drop_table(name)
            self.cache.evict_for_table(name)
            self._log("drop_table", {"name": name})

    def add_matching_dependency(
        self,
        parent_table: str,
        parent_key: str,
        child_table: str,
        child_fk: str,
        tid_column_name: Optional[str] = None,
    ) -> MatchingDependency:
        """Declare and enforce an MD (Equation 6); installs tid columns.

        The tid column (default name ``tid_<parent_table>``) is appended to
        both schemas if missing — which requires both tables to still be
        empty.  From this call on every insert is stamped, so the MD holds
        for all data, which is what keeps pruning sound.
        """
        name = tid_column_name or f"tid_{parent_table}"
        md = MatchingDependency(parent_table, parent_key, child_table, child_fk, name)
        with self.lock.write():
            self._ensure_writable()
            return self._add_md_locked(md)

    def _add_md_locked(self, md: MatchingDependency) -> MatchingDependency:
        for table_name in (md.parent_table, md.child_table):
            table = self.catalog.table(table_name)
            if not table.schema.has_column(md.tid_column):
                table.extend_schema([tid_column(md.tid_column)])
        self.enforcer.register(md)
        self.cache.register_matching_dependency(md)
        self._log("add_md", encode_md(md))
        return md

    def declare_consistent_aging(self, left_table: str, right_table: str) -> ConsistentAging:
        """Promise that matching tuples of the two tables age together
        (Section 5.4), enabling logical pruning of cross-temperature
        subjoins."""
        with self.lock.write():
            self._ensure_writable()
            for name in (left_table, right_table):
                self.catalog.table(name)  # existence check
            declaration = ConsistentAging(left_table, right_table)
            self.cache.register_consistent_aging(declaration)
            self._log("consistent_aging", encode_consistent_aging(declaration))
            return declaration

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        """Start an explicit transaction (auto-commit otherwise)."""
        return self.transactions.begin()

    def _txn_or_begin(self, txn: Optional[Transaction]) -> Tuple[Transaction, bool]:
        if txn is not None:
            txn.require_active()
            return txn, False
        return self.transactions.begin(), True

    def _abort_own(self, transaction: Transaction, own: bool) -> None:
        """Close an auto-begun transaction whose body raised.

        Without this, an exception escaping e.g. ``insert`` would leave the
        auto-begun transaction active forever — never committed, never
        aborted, its finish hooks (WAL flush) never run.
        """
        if own and transaction.is_active:
            transaction.abort()

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def insert(
        self,
        table_name: str,
        row: Dict[str, object],
        txn: Optional[Transaction] = None,
    ):
        """Insert one row; stamps MD tid columns through the enforcer."""
        return self._insert_rows([(table_name, [row])], txn)[0]

    def insert_many(
        self,
        table_name: str,
        rows: Iterable[Dict[str, object]],
        txn: Optional[Transaction] = None,
    ) -> int:
        """Insert several rows as one batch in one transaction; returns the
        count."""
        return len(self._insert_rows([(table_name, list(rows))], txn))

    def insert_business_object(
        self,
        header_table: str,
        header_row: Dict[str, object],
        item_table: str,
        item_rows: Iterable[Dict[str, object]],
        txn: Optional[Transaction] = None,
    ) -> int:
        """Persist a header and its items in a single transaction — the
        enterprise-application insert pattern of Section 3.2.  Items whose
        foreign key names the header copy its tid without a lookup.
        Returns the number of item rows inserted."""
        if header_table == item_table:
            raise CatalogError("a business object's header and items need two tables")
        items = list(item_rows)
        self._insert_rows([(header_table, [header_row]), (item_table, items)], txn)
        return len(items)

    def _insert_rows(self, writes, txn) -> list:
        """The one insert path: each ``(table, rows)`` write is one batch,
        all in one transaction and write-lock span; the rows of a write may
        copy tids from the first row of the write before it (a business
        object's header).  Returns the last write's locators.

        Every row is stamped and every batch checked before anything is
        appended, so a refused call appends nothing.  The WAL then gets
        one ``insert`` op and the write listeners one call per row, in row
        order.
        """
        with self.lock.write():
            self._ensure_writable()
            transaction, own = self._txn_or_begin(txn)
            tid = transaction.tid
            try:
                batches, header, locators = [], None, []
                for name, rows in writes:
                    if not rows:
                        continue
                    stamped = self.enforcer.stamp_rows(name, rows, tid, header)
                    header = (name, stamped[0])
                    table = self.catalog.table(name)
                    batches.append((name, table, stamped, table.check_rows(stamped)))
                for name, table, stamped, checked in batches:
                    locators = table.append_rows(checked, tid)
                    for row, locator in zip(stamped, locators):
                        if self._wal is not None:
                            # The *stamped* row: replay applies it at the
                            # table level and must not re-run MD enforcement.
                            op = {"op": "insert", "table": name, "row": row, "tid": tid}
                            self._log_op(tid, op)
                        if self._write_listeners:
                            part = table.partition(locator.partition)
                            inserted = part.get_row(locator.row)
                            for listener in self._write_listeners:
                                listener.on_insert(name, inserted, tid)
            except BaseException:
                self._abort_own(transaction, own)
                raise
            if own:
                transaction.commit()
            return locators

    def update(
        self,
        table_name: str,
        pk_value,
        changes: Dict[str, object],
        txn: Optional[Transaction] = None,
    ) -> None:
        """Update one row by primary key (new version goes to the delta)."""
        with self.lock.write():
            self._ensure_writable()
            transaction, own = self._txn_or_begin(txn)
            self._update_locked(table_name, pk_value, changes, transaction, own)

    def _update_locked(self, table_name, pk_value, changes, transaction, own) -> None:
        try:
            table = self.catalog.table(table_name)
            old_row = table.get_row(pk_value) if self._write_listeners else None
            locator = table.update(pk_value, changes, transaction.tid)
            if self._wal is not None:
                self._log_op(
                    transaction.tid,
                    {
                        "op": "update",
                        "table": table_name,
                        "pk": pk_value,
                        "changes": dict(changes),
                        "tid": transaction.tid,
                    },
                )
            if self._write_listeners:
                new_row = table.partition(locator.partition).get_row(locator.row)
                for listener in self._write_listeners:
                    listener.on_update(table_name, old_row, new_row, transaction.tid)
        except BaseException:
            self._abort_own(transaction, own)
            raise
        if own:
            transaction.commit()

    def delete(
        self,
        table_name: str,
        pk_value,
        txn: Optional[Transaction] = None,
    ) -> None:
        """Delete one row by primary key (invalidation only)."""
        with self.lock.write():
            self._ensure_writable()
            transaction, own = self._txn_or_begin(txn)
            self._delete_locked(table_name, pk_value, transaction, own)

    def _delete_locked(self, table_name, pk_value, transaction, own) -> None:
        try:
            table = self.catalog.table(table_name)
            old_row = table.get_row(pk_value) if self._write_listeners else None
            table.delete(pk_value, transaction.tid)
            if self._wal is not None:
                self._log_op(
                    transaction.tid,
                    {
                        "op": "delete",
                        "table": table_name,
                        "pk": pk_value,
                        "tid": transaction.tid,
                    },
                )
            if self._write_listeners:
                for listener in self._write_listeners:
                    listener.on_delete(table_name, old_row, transaction.tid)
        except BaseException:
            self._abort_own(transaction, own)
            raise
        if own:
            transaction.commit()

    # ------------------------------------------------------------------
    # merge
    # ------------------------------------------------------------------
    def merge(
        self,
        table_name: Optional[str] = None,
        group_name: Optional[str] = None,
        keep_history: bool = False,
    ) -> List[MergeStats]:
        """Run the delta merge — for one table or all of them — with the
        aggregate cache attached as maintenance listener.

        Merging related tables in one call is the merge-synchronization of
        Section 5.2: their deltas empty together, maximizing pruning.

        Durable databases log each table's merge to the WAL *after* its swap
        (a merge is durable exactly when it is observable) and write a fresh
        checkpoint once all tables merged, keeping the recovery replay
        suffix short.  A crash anywhere in between recovers cleanly: merges
        not yet logged are simply re-run from the pre-merge state — they
        change the physical layout, never query results.
        """
        with self.lock.write():  # partition swap excludes all readers
            self._ensure_writable()
            tables = (
                [self.catalog.table(table_name)]
                if table_name is not None
                else self.catalog.tables()
            )
            snapshot = self.transactions.global_snapshot()
            stats: List[MergeStats] = []
            for table in tables:
                stats.append(
                    merge_table(
                        table,
                        snapshot,
                        listeners=[self.cache] + self._merge_listeners,
                        group_name=group_name,
                        keep_history=keep_history,
                        faults=self.faults,
                        obs=self.obs,
                    )
                )
                self._log(
                    "merge",
                    {
                        "table": table.name,
                        "group": group_name,
                        "snapshot": snapshot,
                        "keep_history": keep_history,
                    },
                )
            if self._wal is not None and not self._replaying:
                self.checkpoint()
            return stats

    def refresh_cache(self) -> Dict[str, int]:
        """Idle hook: take, for every cache entry that alone answers its
        statement, the visibility step the entry's next read would take,
        and install the stepped memo — so that read finds nothing left to
        fold (see :meth:`AggregateCacheManager.refresh_entries`).

        Runs under the shared read lock — a refresh is a snapshot read plus
        compare-and-swap memo installs, exactly like a read's compensation,
        so it coexists with concurrent readers and yields to writers.
        Returns the memos installed, ``{"advance": n, "rebuild": m}``.
        """
        with self.lock.read():
            snapshot = self.transactions.global_snapshot()
            return self.cache.refresh_entries(snapshot)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def parse(self, sql: str) -> AggregateQuery:
        """Parse SQL text into an :class:`AggregateQuery`."""
        return parse_sql(sql)

    @property
    def last_report(self) -> Optional[CacheQueryReport]:
        """The :class:`CacheQueryReport` of *this thread's* most recent query.

        Thread-local: concurrent queries on a shared ``Database`` each see
        their own report, never another thread's.  Prefer ``result.report``
        — the report travels with the result it describes — when the result
        object is in hand.
        """
        return getattr(self._thread_state, "report", None)

    @last_report.setter
    def last_report(self, report: Optional[CacheQueryReport]) -> None:
        self._thread_state.report = report

    def query(
        self,
        query: Union[str, AggregateQuery],
        strategy: Optional[ExecutionStrategy] = None,
        txn: Optional[Transaction] = None,
        as_of: Optional[int] = None,
        timeout_ms: Optional[float] = None,
        cancel: Optional[CancelToken] = None,
    ) -> QueryResult:
        """Answer an aggregate query (SQL text or query object).

        ``as_of`` pins the read to a past transaction id (time travel); it
        sees whatever that snapshot saw, provided history was retained
        (``merge(keep_history=True)`` keeps invalidated rows).  The
        per-query :class:`CacheQueryReport` rides on the returned result
        (``result.report``); ``db.last_report`` keeps a thread-local copy.

        ``timeout_ms`` bounds the query's wall-clock time (default from
        ``REPRO_QUERY_TIMEOUT_MS``; explicit wins): the deadline is
        checked cooperatively at every subjoin boundary and an expired
        query aborts with :class:`~repro.errors.QueryTimeout`, leaving
        the cache, delta memos, and transaction manager exactly as if the
        query had never run.  ``cancel`` accepts a
        :class:`~repro.governor.CancelToken` another thread may trip
        (:class:`~repro.errors.QueryCancelled`).
        """
        return self._run_query(
            query, strategy, txn, as_of, trace=None,
            timeout_ms=timeout_ms, cancel=cancel,
        )

    def explain_analyze(
        self,
        query: Union[str, AggregateQuery],
        strategy: Optional[ExecutionStrategy] = None,
        txn: Optional[Transaction] = None,
        as_of: Optional[int] = None,
        timeout_ms: Optional[float] = None,
        cancel: Optional[CancelToken] = None,
    ) -> QueryTrace:
        """Run the query for real and return its structured trace.

        Unlike :meth:`explain` (a dry run), the query executes end to end;
        the returned :class:`~repro.obs.QueryTrace` is a tree of timed
        spans — bind, per-combination cache lookup (entry build / main
        compensation), and one span per delta-compensation subjoin with its
        partition assignment and either its prune reason or the rows it
        scanned.  ``trace.result`` and ``trace.report`` carry the query's
        outcome; ``print(trace.render())`` gives the EXPLAIN ANALYZE view.
        """
        sql_text = query if isinstance(query, str) else None
        trace = QueryTrace(sql=sql_text)
        result = self._run_query(
            query, strategy, txn, as_of, trace=trace,
            timeout_ms=timeout_ms, cancel=cancel,
        )
        trace.finish()
        trace.result = result
        trace.report = result.report
        result.trace = trace
        return trace

    def _run_query(
        self,
        query: Union[str, AggregateQuery],
        strategy: Optional[ExecutionStrategy],
        txn: Optional[Transaction],
        as_of: Optional[int],
        trace: Optional[QueryTrace],
        timeout_ms: Optional[float] = None,
        cancel: Optional[CancelToken] = None,
    ) -> QueryResult:
        # Raw SQL passes through untouched: the manager's plan cache hits on
        # the literal text, skipping parse *and* bind for repeated
        # statements.  The bound query comes back on the report's plan.
        token = self.governor.query_token(timeout_ms=timeout_ms, cancel=cancel)
        try:
            if as_of is not None:
                if txn is not None:
                    raise QueryError("pass either txn or as_of, not both")
                reader = SnapshotReader(as_of)
                with self.lock.read():
                    result, report = self.cache.execute(
                        query, reader, strategy=strategy, trace=trace, cancel=token
                    )
                return self._finish_query(result, report)
            transaction, own = self._txn_or_begin(txn)
            with self.lock.read():
                try:
                    result, report = self.cache.execute(
                        query, transaction, strategy=strategy, trace=trace,
                        cancel=token,
                    )
                except BaseException:
                    # Aborting the auto-begun transaction here (inside the
                    # ``with``) means a timed-out query leaves no active
                    # transaction and no held read lock behind.
                    self._abort_own(transaction, own)
                    raise
                if own:
                    transaction.commit()
            return self._finish_query(result, report)
        except QueryTimeout:
            self.governor.record_timeout()
            raise
        except QueryCancelled:
            self.governor.record_cancellation()
            raise

    def _finish_query(self, result: QueryResult, report) -> QueryResult:
        # The manager finishes the rows itself (under the read lock): a
        # pure hit renders them straight from the cached entry.
        result.report = report
        self.last_report = report
        return result

    def explain(
        self,
        query: Union[str, AggregateQuery],
        strategy: Optional[ExecutionStrategy] = None,
    ) -> str:
        """EXPLAIN: how the cache would answer the query, without running it.

        Shows the cached all-main combinations (hit/miss), the star-join
        exclusions (when variant reduction engages), and the fate of every delta-compensation subjoin —
        evaluated, or pruned by which mechanism, with any derived pushdown
        filters.  Rendered from the same (possibly cached) physical plan
        :meth:`query` would run.
        """
        with self.lock.read():
            return self.cache.explain(query, strategy).render()

    def export_csv(self, table_name: str, path, include_tid_columns: bool = False) -> int:
        """Write the table's visible rows to a CSV file; returns the count."""
        from .storage.csvio import export_csv

        with self.lock.read():
            return export_csv(self, table_name, path, include_tid_columns)

    def import_csv(self, table_name: str, path, batch_size: int = 1000) -> int:
        """Load rows from a CSV file through the normal insert path."""
        from .storage.csvio import import_csv

        return import_csv(self, table_name, path, batch_size=batch_size)

    def statistics(self):
        """A monitoring snapshot (storage / cache / enforcement); see
        :mod:`repro.monitor`."""
        from .monitor import collect_statistics

        with self.lock.read():
            return collect_statistics(self)

    def health(self) -> HealthReport:
        """The governor's health snapshot: overall state, the degraded
        mode (``wal_degraded`` exactly while the WAL backlog is
        non-empty), abort/retry/rejection/shed counters, and memory-budget
        occupancy.  Served without the database lock so it works even
        while writers stall."""
        return self.governor.health(
            tracked_bytes=self.cache.tracked_bytes(),
            wal_degraded=self.wal_degraded,
        )

    def export_metrics(self) -> str:
        """The metrics registry in Prometheus text exposition format.

        Refreshes the cache gauges (entry count, value bytes, profit) from
        the live entry map first, so a scrape always reflects the current
        state.
        """
        self.cache.refresh_obs_gauges()
        return self.obs.registry.render_prometheus()

    def metrics_snapshot(self) -> Dict[str, float]:
        """Every metric sample as a flat ``{name{labels}: value}`` dict."""
        self.cache.refresh_obs_gauges()
        return self.obs.registry.snapshot()

    @property
    def plan_cache(self):
        """The cache manager's :class:`~repro.plan.cache.PlanCache`."""
        return self.cache.plan_cache

    def table(self, name: str) -> Table:
        """The live :class:`Table` object by name."""
        return self.catalog.table(name)

    def __repr__(self) -> str:
        return (
            f"Database(tables={self.catalog.table_names()}, "
            f"cache_entries={self.cache.entry_count()})"
        )
