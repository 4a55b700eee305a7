"""Query deadlines and cooperative cancellation.

Queries cannot be preempted — Python threads only stop where the code
lets them — so cancellation is *cooperative*: the executor calls
``token.check()`` at every subjoin/batch boundary (before each subjoin,
delta-memo incremental scans) and the check raises
a typed :class:`~repro.errors.QueryAborted` subclass the moment the token
is cancelled or its deadline has expired.

The abort surfaces through the normal exception machinery, which already
releases auto-started transactions and read locks; partial delta-memo
advances are discarded because memos are only installed after a fully
successful run, and cache/statistics updates happen strictly after the
last check — so an aborted query leaves no torn state behind.
"""

from __future__ import annotations

import time
from typing import Optional

from ..errors import QueryCancelled, QueryTimeout


class Deadline:
    """A monotonic-clock expiry point.

    Built via :meth:`after_ms`; carried by a :class:`CancelToken`.
    """

    __slots__ = ("expires_at", "timeout_ms")

    def __init__(self, expires_at: float, timeout_ms: float):
        self.expires_at = expires_at
        self.timeout_ms = timeout_ms

    @classmethod
    def after_ms(cls, timeout_ms: float, clock=time.monotonic) -> "Deadline":
        """A deadline ``timeout_ms`` from now on the monotonic clock."""
        if timeout_ms < 0:
            raise ValueError(f"timeout_ms must be >= 0, got {timeout_ms!r}")
        return cls(clock() + timeout_ms / 1000.0, timeout_ms)

    def expired(self, clock=time.monotonic) -> bool:
        return clock() >= self.expires_at

    def remaining_ms(self, clock=time.monotonic) -> float:
        """Milliseconds until expiry (never negative)."""
        return max(0.0, (self.expires_at - clock()) * 1000.0)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Deadline(timeout_ms={self.timeout_ms}, remaining_ms={self.remaining_ms():.1f})"


#: Deadline checks are dominated by the monotonic-clock read.  The token
#: reads the clock on its first :meth:`CancelToken.check` (so an
#: already-expired deadline aborts at the very first boundary) and then
#: only every ``CHECK_STRIDE``-th check — bounding the hit-path cost at
#: one clock read per stride while keeping abort latency within a
#: handful of subjoin batches.  Explicit cancellation is still observed
#: on *every* check.
CHECK_STRIDE = 16


class CancelToken:
    """Cooperative cancellation handle threaded through one query.

    A token is cancelled explicitly (:meth:`cancel`, from any thread) or
    implicitly by its :class:`Deadline` expiring; :meth:`check` raises
    :class:`~repro.errors.QueryCancelled` / :class:`~repro.errors.QueryTimeout`
    respectively.  :meth:`cancel` may be called from a thread other than
    the one running the query — both paths are idempotent.  The cancelled
    flag is a plain slot (writes are atomic under the GIL, and the reason
    is written strictly before the flag), and the stride counter races
    benignly: a torn update only shifts *when* the next clock read
    happens, never whether cancellation is observed.
    """

    __slots__ = ("deadline", "_cancelled", "_reason", "_countdown")

    def __init__(self, deadline: Optional[Deadline] = None):
        self.deadline = deadline
        self._cancelled = False
        self._reason: Optional[str] = None
        self._countdown = 0  # first check always reads the clock

    def cancel(self, reason: Optional[str] = None) -> None:
        """Request cancellation; the query aborts at its next check."""
        self._reason = reason
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def expired(self) -> bool:
        return self.deadline is not None and self.deadline.expired()

    def check(self) -> None:
        """Raise if cancelled or past the deadline; otherwise a no-op."""
        if self._cancelled:
            raise QueryCancelled(
                self._reason or "query cancelled by its CancelToken"
            )
        deadline = self.deadline
        if deadline is None:
            return
        if self._countdown > 0:
            self._countdown -= 1
            return
        self._countdown = CHECK_STRIDE - 1
        if deadline.expired():
            raise QueryTimeout(
                f"query exceeded its {deadline.timeout_ms:g} ms deadline",
                timeout_ms=deadline.timeout_ms,
            )
