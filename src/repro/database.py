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
from .core.admission import AdmissionPolicy
from .core.enforcement import MDEnforcer
from .core.eviction import EvictionPolicy
from .core.manager import AggregateCacheManager, CacheQueryReport
from .core.matching_dependency import MatchingDependency
from .core.strategies import CacheConfig, ExecutionStrategy
from .errors import (
    CatalogError,
    DurabilityError,
    QueryCancelled,
    QueryError,
    QueryTimeout,
)
from .governor import (
    CancelToken,
    GovernorConfig,
    HealthReport,
    ResourceGovernor,
)
from .obs import EngineMetrics
from .obs.trace import QueryTrace
from .query.executor import QueryExecutor
from .query.query import AggregateQuery
from .query.result import QueryResult
from .query.sql import parse_sql
from .reliability.faults import FaultInjector
from .reliability.recovery import RecoveryStats, recover_database
from .reliability.wal import WriteAheadLog
from .storage.aging import ConsistentAging, aging_rule_spec
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
    ownership; cache admission/eviction bookkeeping during a query is
    guarded by the cache manager's own internal lock.  Each query runs its
    subjoins serially on the calling thread.
    """

    def __init__(
        self,
        cache_config: Optional[CacheConfig] = None,
        admission: Optional[AdmissionPolicy] = None,
        eviction: Optional[EvictionPolicy] = None,
        path=None,
        fault_injector: Optional[FaultInjector] = None,
        observability: bool = True,
        governor: Optional[Union[ResourceGovernor, GovernorConfig]] = None,
    ):
        self.lock = ReadWriteLock()
        self.catalog = Catalog()
        self.transactions = TransactionManager()
        self.views = ConsistentViewManager(self.transactions)
        self.executor = QueryExecutor(self.catalog)
        config = cache_config if cache_config is not None else CacheConfig()
        self.faults = fault_injector if fault_injector is not None else FaultInjector()
        # ``observability=False`` swaps in the shared no-op registry: every
        # hook stays wired but each increment/observe is an empty call.
        self.obs = EngineMetrics() if observability else EngineMetrics.disabled()
        # The resource governor: pass a ResourceGovernor or a GovernorConfig
        # to override the REPRO_* environment defaults.
        if isinstance(governor, ResourceGovernor):
            self.governor = governor
        else:
            self.governor = ResourceGovernor(governor, obs=self.obs)
        self.cache = AggregateCacheManager(
            self.catalog,
            self.executor,
            self.views,
            config=config,
            admission=admission,
            eviction=eviction,
            obs=self.obs,
            governor=self.governor,
        )
        self.cache.fault_injector = self.faults
        self.enforcer = MDEnforcer(
            self.catalog,
            enforce_referential_integrity=config.enforce_referential_integrity,
        )
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
        # Transactions whose in-memory effects are visible but whose WAL
        # record could not be written (append failed after retries).  They
        # are redelivered FIFO before the next record, so recovery never
        # silently loses a transaction the live database already served.
        self._wal_backlog: List[Tuple[int, List[Dict], str]] = []
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
                self.path / "wal.jsonl",
                faults=self.faults,
                obs=self.obs,
                retry=self.governor.retry,
            )
            # Exhausted retries open the durability breaker (WAL-degraded:
            # writes rejected, reads served); durable appends feed its
            # success side so a half-open probe can close it again.
            self._wal.on_append_failure = self.governor.record_wal_failure
            self._wal.on_append_success = self.governor.record_wal_success
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
        """Reject mutations while WAL-degraded (durability breaker open).

        Recovery replay is exempt: it re-applies already-durable work and
        must never be blocked by a breaker left over from the previous
        incarnation.  Raises
        :class:`~repro.errors.WriteRejectedError` when degraded; a
        half-open breaker admits the mutation as its probe.
        """
        if self._replaying:
            return
        self.governor.ensure_writes_allowed()

    def _log_ddl(self, record_type: str, data: Dict) -> None:
        if self._wal is not None and not self._replaying:
            self._wal.append(record_type, data)

    def _log_op(self, tid: int, op: Dict) -> None:
        if self._wal is not None and not self._replaying:
            self._txn_ops.setdefault(tid, []).append(op)

    def _on_txn_finish(self, txn: Transaction) -> None:
        """Flush a finished transaction's buffered operations to the WAL.

        Aborted transactions flush too: the engine has no undo, so whatever
        the transaction applied before aborting is part of the in-memory
        state and must survive recovery identically (the record's ``status``
        field preserves the distinction for forensics).

        Row visibility is stamp-based and does not consult the WAL, so by
        the time this hook runs the transaction's rows are already live.
        A failed append therefore must not drop the record on the floor —
        the live database would serve rows recovery cannot reproduce.
        Failed records queue in ``_wal_backlog`` and are redelivered FIFO
        ahead of the next transaction (or at close); a successful
        checkpoint clears the queue instead, because the checkpoint
        already captured their effects and a late append would make
        replay apply them twice.
        """
        ops = self._txn_ops.pop(txn.tid, None)
        if not ops or self._wal is None or self._replaying:
            # Read-only transactions never drain the backlog: reads must
            # stay servable while WAL-degraded, so redelivery only rides
            # transactions that would append a record anyway.
            return
        self._wal_backlog.append((txn.tid, ops, txn.state))
        self._drain_wal_backlog()

    def _drain_wal_backlog(self) -> None:
        """Append queued transaction records in order; stop on failure.

        Raises the :class:`~repro.errors.DurabilityError` of the first
        record that still cannot be written — everything from that record
        on stays queued for the next attempt.
        """
        while self._wal_backlog:
            tid, ops, state = self._wal_backlog[0]
            self._wal.append_transaction(tid, ops, state)
            self._wal_backlog.pop(0)

    def checkpoint(self) -> Optional[Path]:
        """Write an atomic full-state checkpoint (durable databases only).

        Returns the checkpoint path, or None for in-memory databases.
        Called automatically after every :meth:`merge`.
        """
        if self._wal is None:
            return None
        self._ensure_writable()
        from .reliability.checkpoint import write_checkpoint

        def on_retry(attempt, err):
            self.governor.record_io_retry("checkpoint.write")

        with self.lock.write():  # the snapshot must not race ongoing DML
            try:
                path = write_checkpoint(
                    self,
                    self._checkpoint_dir(),
                    self._wal.stats.last_lsn,
                    faults=self.faults,
                    retry=self.governor.retry,
                    on_retry=on_retry,
                )
            except OSError as err:
                self.governor.record_wal_failure(err)
                raise DurabilityError(
                    f"checkpoint write failed after "
                    f"{self.governor.retry.attempts} attempt(s): {err}"
                ) from err
            self.governor.record_wal_success()
            self._wal.stats.checkpoints_written += 1
            # Any transaction still awaiting its WAL record is durable now:
            # the checkpoint captured its in-memory effects, and replay
            # starts past this LSN.  Appending the record later would
            # re-apply those operations on top of the checkpoint image.
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
                    # Last chance for transactions whose WAL append failed
                    # earlier: a clean close must not forget work the live
                    # database already served.
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
        self._ensure_writable()
        schema = _as_schema(columns, primary_key)
        if (
            aging_rule is not None
            and self._wal is not None
            and aging_rule_spec(aging_rule) is None
        ):
            raise DurabilityError(
                f"table {name!r}: the aging rule is an arbitrary Python "
                "callable and cannot be persisted; durable hot/cold tables "
                "need a serializable rule (threshold_aging / ratio_aging)"
            )
        with self.lock.write():
            return self._create_table_locked(
                name, schema, aging_rule, separate_update_delta
            )

    def _create_table_locked(
        self, name, schema, aging_rule, separate_update_delta
    ) -> Table:
        table = self.catalog.create_table(
            name,
            schema,
            aging_rule=aging_rule,
            separate_update_delta=separate_update_delta,
        )
        self._log_ddl(
            "create_table",
            {
                "name": name,
                "primary_key": schema.primary_key,
                "aging": aging_rule_spec(aging_rule) if aging_rule else None,
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
            },
        )
        return table

    def drop_table(self, name: str) -> None:
        """Drop a table, evicting only the cache entries that reference it."""
        self._ensure_writable()
        with self.lock.write():
            self.catalog.drop_table(name)
            self.cache.evict_for_table(name)
            self._log_ddl("drop_table", {"name": name})

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
        self._ensure_writable()
        name = tid_column_name or f"tid_{parent_table}"
        md = MatchingDependency(parent_table, parent_key, child_table, child_fk, name)
        with self.lock.write():
            return self._add_md_locked(md)

    def _add_md_locked(self, md: MatchingDependency) -> MatchingDependency:
        parent_table, child_table = md.parent_table, md.child_table
        parent_key, child_fk = md.parent_key, md.child_fk
        name = md.tid_column
        for table_name in (parent_table, child_table):
            table = self.catalog.table(table_name)
            if not table.schema.has_column(name):
                table.extend_schema([tid_column(name)])
        self.enforcer.register(md)
        self.cache.register_matching_dependency(md)
        self._log_ddl(
            "add_md",
            {
                "parent_table": parent_table,
                "parent_key": parent_key,
                "child_table": child_table,
                "child_fk": child_fk,
                "tid_column": name,
            },
        )
        return md

    def declare_consistent_aging(self, left_table: str, right_table: str) -> ConsistentAging:
        """Promise that matching tuples of the two tables age together
        (Section 5.4), enabling logical pruning of cross-temperature
        subjoins."""
        self._ensure_writable()
        with self.lock.write():
            for name in (left_table, right_table):
                self.catalog.table(name)  # existence check
            declaration = ConsistentAging(left_table, right_table)
            self.cache.register_consistent_aging(declaration)
            self._log_ddl(
                "consistent_aging", {"left": left_table, "right": right_table}
            )
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
        self._ensure_writable()
        transaction, own = self._txn_or_begin(txn)
        with self.lock.write():
            try:
                table = self.catalog.table(table_name)
                stamped = self.enforcer.stamp(table_name, row, transaction.tid)
                locator = table.insert(stamped, transaction.tid)
                if self._wal is not None:
                    self._log_op(
                        transaction.tid,
                        {
                            "op": "insert",
                            "table": table_name,
                            # The *stamped* row: replay applies it at the table
                            # level and must not re-run MD enforcement.
                            "row": stamped,
                            "tid": transaction.tid,
                        },
                    )
                if self._write_listeners:
                    inserted = table.partition(locator.partition).get_row(locator.row)
                    for listener in self._write_listeners:
                        listener.on_insert(table_name, inserted, transaction.tid)
            except BaseException:
                self._abort_own(transaction, own)
                raise
            if own:
                transaction.commit()
            return locator

    def insert_many(
        self,
        table_name: str,
        rows: Iterable[Dict[str, object]],
        txn: Optional[Transaction] = None,
    ) -> int:
        """Insert several rows in one transaction; returns the count."""
        self._ensure_writable()
        transaction, own = self._txn_or_begin(txn)
        with self.lock.write():  # one exclusive span for the whole batch
            try:
                count = 0
                for row in rows:
                    self.insert(table_name, row, txn=transaction)
                    count += 1
            except BaseException:
                self._abort_own(transaction, own)
                raise
            if own:
                transaction.commit()
            return count

    def insert_business_object(
        self,
        header_table: str,
        header_row: Dict[str, object],
        item_table: str,
        item_rows: Iterable[Dict[str, object]],
        txn: Optional[Transaction] = None,
    ) -> int:
        """Persist a header and its items in a single transaction — the
        enterprise-application insert pattern of Section 3.2.  Returns the
        number of item rows inserted."""
        self._ensure_writable()
        transaction, own = self._txn_or_begin(txn)
        with self.lock.write():  # header + items swap in as one unit
            try:
                self.insert(header_table, header_row, txn=transaction)
                count = 0
                for item_row in item_rows:
                    self.insert(item_table, item_row, txn=transaction)
                    count += 1
            except BaseException:
                self._abort_own(transaction, own)
                raise
            if own:
                transaction.commit()
            return count

    def update(
        self,
        table_name: str,
        pk_value,
        changes: Dict[str, object],
        txn: Optional[Transaction] = None,
    ) -> None:
        """Update one row by primary key (new version goes to the delta)."""
        self._ensure_writable()
        transaction, own = self._txn_or_begin(txn)
        with self.lock.write():
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
        self._ensure_writable()
        transaction, own = self._txn_or_begin(txn)
        with self.lock.write():
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
        self._ensure_writable()
        with self.lock.write():  # partition swap excludes all readers
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
                if self._wal is not None and not self._replaying:
                    self._wal.append_merge(
                        table.name, group_name, snapshot, keep_history
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
        star_join_tables=None,
    ) -> QueryResult:
        """Answer an aggregate query (SQL text or query object).

        ``star_join_tables`` overrides star-join variant-reduction
        detection for this statement: an iterable (or comma-separated
        string) of table/alias names restricts exclusion candidates to
        exactly those names, ``()`` disables exclusion, and ``None``
        (default) detects automatically (see :mod:`repro.plan.star_join`).

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
            star_join_tables=star_join_tables,
        )

    def explain_analyze(
        self,
        query: Union[str, AggregateQuery],
        strategy: Optional[ExecutionStrategy] = None,
        txn: Optional[Transaction] = None,
        as_of: Optional[int] = None,
        timeout_ms: Optional[float] = None,
        cancel: Optional[CancelToken] = None,
        star_join_tables=None,
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
            star_join_tables=star_join_tables,
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
        star_join_tables=None,
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
                        query, reader, strategy=strategy, trace=trace,
                        cancel=token, star_join_tables=star_join_tables,
                    )
                return self._finish_query(result, report)
            transaction, own = self._txn_or_begin(txn)
            with self.lock.read():
                try:
                    result, report = self.cache.execute(
                        query, transaction, strategy=strategy, trace=trace,
                        cancel=token, star_join_tables=star_join_tables,
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
        star_join_tables=None,
    ) -> str:
        """EXPLAIN: how the cache would answer the query, without running it.

        Shows the cached all-main combinations (hit/miss), the star-join
        exclusions with a reason per table (when variant reduction
        engages), and the fate of every delta-compensation subjoin —
        evaluated, or pruned by which mechanism, with any derived pushdown
        filters.  Rendered from the same (possibly cached) physical plan
        :meth:`query` would run.
        """
        with self.lock.read():
            return self.cache.explain(query, strategy, star_join_tables).render()

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
        """The governor's health snapshot: overall state, active degraded
        modes (``wal_degraded`` / ``cache_degraded``), breaker details,
        abort/retry/shed counters, and memory-budget occupancy.  Served
        without the database lock so it works even while writers stall."""
        return self.governor.health(tracked_bytes=self.cache.tracked_bytes())

    def export_metrics(self) -> str:
        """The metrics registry in Prometheus text exposition format.

        Refreshes the cache gauges (entry count, value bytes, profit) from
        the live entry map first, so a scrape always reflects the current
        state.  Returns ``""`` when observability is disabled.
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
