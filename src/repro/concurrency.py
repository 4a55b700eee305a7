"""Concurrency primitive for the multi-threaded serving path.

:class:`ReadWriteLock` is the database-level lock.  Queries take the
*shared* side so they proceed in parallel; DML, delta merges, DDL, and
recovery take the *exclusive* side.  The lock is reentrant in both
directions for the owning thread (``merge`` calls ``checkpoint``, write
listeners may issue reads), and writer-preferring so a steady query
stream cannot starve writers.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict


class ReadWriteLock:
    """A reentrant, writer-preferring readers–writer lock.

    Any number of threads may hold the shared (read) side concurrently;
    the exclusive (write) side is held by at most one thread, with no
    concurrent readers.  The thread holding the write lock may re-acquire
    either side (nested write ops, reads issued from write listeners);
    a thread already holding only the read side may re-acquire the read
    side.  Read→write upgrades are refused — they deadlock two upgrading
    readers against each other — and raise ``RuntimeError`` instead.
    """

    def __init__(self):
        self._cond = threading.Condition(threading.Lock())
        self._readers: Dict[int, int] = {}  # thread ident -> hold depth
        self._writer: int = 0  # owning thread ident (0 = none)
        self._writer_depth = 0
        self._writers_waiting = 0

    # ------------------------------------------------------------------
    def acquire_read(self) -> None:
        """Take the shared side (blocks while a writer holds or waits)."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me or me in self._readers:
                # Reentrant: already holding either side.
                self._readers[me] = self._readers.get(me, 0) + 1
                return
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers[me] = 1

    def release_read(self) -> None:
        """Release one shared hold."""
        me = threading.get_ident()
        with self._cond:
            depth = self._readers.get(me)
            if depth is None:
                raise RuntimeError("release_read without acquire_read")
            if depth == 1:
                del self._readers[me]
                if not self._readers:
                    self._cond.notify_all()
            else:
                self._readers[me] = depth - 1

    def acquire_write(self) -> None:
        """Take the exclusive side (blocks until all readers drain)."""
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._writer_depth += 1
                return
            if me in self._readers:
                raise RuntimeError(
                    "read→write lock upgrade would deadlock; restructure the "
                    "caller to take the write lock first"
                )
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = me
            self._writer_depth = 1

    def release_write(self) -> None:
        """Release one exclusive hold."""
        me = threading.get_ident()
        with self._cond:
            if self._writer != me:
                raise RuntimeError("release_write by non-owning thread")
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer = 0
                self._cond.notify_all()

    # ------------------------------------------------------------------
    @contextmanager
    def read(self):
        """``with lock.read():`` — shared scope."""
        self.acquire_read()
        try:
            yield self
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        """``with lock.write():`` — exclusive scope."""
        self.acquire_write()
        try:
            yield self
        finally:
            self.release_write()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReadWriteLock(readers={len(self._readers)}, "
            f"writer={'held' if self._writer else 'free'})"
        )

