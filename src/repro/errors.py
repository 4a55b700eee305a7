"""Exception hierarchy for the repro engine.

Every error raised by the library derives from :class:`ReproError` so that
applications can catch engine failures with a single ``except`` clause while
still being able to discriminate the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro engine."""


class SchemaError(ReproError):
    """A table schema is malformed or an operation violates it.

    Raised for duplicate column names, unknown column references during
    inserts, missing primary keys where one is required, and similar
    definition-time problems.
    """


class CatalogError(ReproError):
    """A table name could not be resolved or is already taken."""


class StorageError(ReproError):
    """Low-level storage invariant violation (partition/column/dictionary)."""


class TransactionError(ReproError):
    """Misuse of the transaction API (e.g. writing through a closed txn)."""


class IntegrityError(ReproError):
    """A data integrity constraint was violated.

    Covers primary-key duplicates, referential-integrity failures, and
    matching-dependency enforcement failures (a foreign key whose parent
    tuple does not exist).
    """


class QueryError(ReproError):
    """A query is semantically invalid for the current catalog.

    Examples: unknown table alias, unknown column, disconnected join graph,
    aggregate of a non-numeric column.
    """


class SqlSyntaxError(QueryError):
    """The SQL text could not be parsed.

    Carries the character ``position`` of the offending token so callers can
    point at the error location.
    """

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class QueryAborted(ReproError):
    """A query was stopped at a cooperative cancellation checkpoint.

    The abort is clean: any auto-started transaction is released, held
    read locks are dropped, and no partial cache entry, delta-memo
    advance, or statistics update survives the aborted run.
    """


class QueryTimeout(QueryAborted):
    """The query's deadline expired before it finished.

    Carries ``timeout_ms``, the budget the query was admitted with.
    """

    def __init__(self, message: str, timeout_ms: float = 0.0):
        super().__init__(message)
        self.timeout_ms = timeout_ms


class QueryCancelled(QueryAborted):
    """The query's :class:`~repro.governor.CancelToken` was cancelled."""


class WriteRejectedError(ReproError):
    """The database is WAL-degraded: writes are rejected, reads served.

    Raised by a mutating entry point when a record the write-ahead log
    refused earlier still cannot be appended.  Nothing of the rejected
    write is applied.  Every write retries the backlog first, so the
    first write after the log heals goes through.
    """


class DurabilityError(ReproError):
    """The write-ahead log or a checkpoint is unusable.

    Raised for WAL corruption that is *not* a torn tail record (a torn tail
    is tolerated and truncated during recovery), unreadable checkpoints, and
    durability features that cannot be provided (e.g. persisting a table
    whose aging rule is a Python callable).
    """


class FaultError(ReproError):
    """An armed fault point fired in ``raise`` mode (fault injection)."""


class CacheError(ReproError):
    """The aggregate cache was asked to do something unsupported.

    For example caching a query with non-self-maintainable aggregate
    functions (MIN/MAX), or compensating an entry whose base tables have
    been dropped.
    """


class UnsupportedQueryError(CacheError):
    """The query does not qualify for the aggregate cache (Section 2.1)."""


class ObservabilityError(ReproError):
    """Misuse of the observability layer.

    Duplicate metric registration, a decreasing counter, mismatched label
    sets, or malformed Prometheus text handed to the parser.
    """
