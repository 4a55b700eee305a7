"""Bounded exponential backoff with jitter for transient I/O failures.

Durability writes (WAL appends, checkpoint materialization) can hit
*transient* ``OSError``s — EINTR, a momentary ENOSPC, an NFS hiccup —
that succeed on retry.  :class:`RetryPolicy` retries the operation a
bounded number of times with exponentially growing, jittered sleeps;
anything still failing after the budget is exhausted escalates to the
caller.  :data:`WRITE_RETRY` is the one policy both durable writes use;
it has no setting.

Only the exception types in ``retry_on`` are retried: injected
``FaultError``/``SimulatedCrash`` and programming errors always
propagate immediately.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """``attempts`` total tries; sleep ``backoff_ms * 2^n`` (capped,
    ±``jitter`` fraction) between them.

    ``attempts=1`` disables retrying without disabling the wrapper.
    """

    attempts: int = 3
    backoff_ms: float = 1.0
    cap_ms: float = 50.0
    jitter: float = 0.5

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.backoff_ms < 0 or self.cap_ms < 0:
            raise ValueError("backoff must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay_s(self, attempt: int, rng=random) -> float:
        """Sleep (seconds) before retry number ``attempt`` (0-based)."""
        base = min(self.backoff_ms * (2.0 ** attempt), self.cap_ms)
        if self.jitter:
            base *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0.0, base) / 1000.0

    def call(
        self,
        fn: Callable[[], T],
        retry_on: Tuple[Type[BaseException], ...] = (OSError,),
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> T:
        """Run ``fn``, retrying on ``retry_on``; re-raise the last failure.

        ``on_retry(attempt, exc)`` fires before each sleep — the governor
        uses it to count retries per instrumentation point.
        """
        for attempt in range(self.attempts):
            try:
                return fn()
            except retry_on as exc:
                if attempt + 1 >= self.attempts:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                sleep(self.delay_s(attempt))
        raise AssertionError("unreachable")  # pragma: no cover


#: WAL appends and checkpoint writes: three tries, 1 ms then ~2 ms apart.
WRITE_RETRY = RetryPolicy()
