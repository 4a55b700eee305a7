"""Fault-injection harness for crash-safety and degradation testing.

The durability code paths are instrumented with *named fault points* —
``injector.fire("merge.before_swap")`` calls sprinkled at the moments where
a crash would be most damaging.  Tests arm a point with a failure mode and
drive the engine until the fault trips:

* ``raise`` — raise :class:`~repro.errors.FaultError`, modelling a clean
  I/O failure the caller is expected to handle (disk full, permission);
* ``io_error`` — raise :class:`TransientIOError` (an ``OSError``),
  modelling a *transient* kernel-level failure (EINTR, NFS hiccup,
  momentary ENOSPC) that retry/backoff machinery is expected to absorb;
* ``crash`` — raise :class:`SimulatedCrash`, modelling ``kill -9``: the
  database object must be abandoned and reopened via ``Database.open``.
  Instrumented writers may emulate a torn write before re-raising (the WAL
  flushes half of the in-flight record, like a real partial page write);
* ``delay`` — sleep, for schedule-perturbation and injected-latency tests.

Firing is shaped by three knobs that compose: ``after`` skips the first N
hits, ``times`` bounds the number of trips (``None`` = unlimited), and
``probability`` makes each eligible hit trip stochastically (seeded via
``FaultInjector(seed=...)`` for reproducible chaos runs).

``SimulatedCrash`` deliberately derives from ``BaseException`` so that the
engine's internal ``except Exception`` recovery paths cannot swallow it —
nothing survives a process kill.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import DurabilityError, FaultError


class SimulatedCrash(BaseException):
    """A simulated process kill at a fault point (not a ReproError)."""

    def __init__(self, point: str):
        super().__init__(f"simulated crash at fault point {point!r}")
        self.point = point


class TransientIOError(OSError):
    """An injected transient I/O failure (``io_error`` mode).

    Deliberately an ``OSError`` — not a ``ReproError`` — so it travels the
    exact code path a real kernel-level failure would: caught by the
    retry/backoff wrappers around WAL appends and checkpoint writes, and
    escalated to :class:`~repro.errors.DurabilityError` only once the
    retry budget is exhausted.
    """

    def __init__(self, point: str, message: Optional[str] = None):
        super().__init__(message or f"injected transient I/O error at {point!r}")
        self.point = point


#: Fault points the engine fires, in rough workload order.
KNOWN_FAULT_POINTS = {
    "wal.append": "before a WAL record is written (crash => torn tail record)",
    "checkpoint.write": "before a checkpoint file is materialized",
    "merge.stage": "before a partition group's new main/delta is built",
    "merge.before_swap": "after staging, before any group is swapped in",
    "merge.after_swap": "after the swap, before the merge becomes durable",
    "cache.maintenance": "while the aggregate cache plans merge maintenance",
    "cache.compensation": "while a cached query compensates against the deltas",
    "txn.commit": "before a transaction's WAL record is flushed",
}

_MODES = ("raise", "crash", "delay", "io_error")


@dataclass
class _ArmedFault:
    mode: str  # "raise" | "crash" | "delay" | "io_error"
    times: Optional[int]  # trips before the fault disarms itself; None = forever
    after: int  # hits to skip before tripping
    delay: float
    probability: Optional[float]  # None = every eligible hit trips
    message: Optional[str]
    trips: int = 0
    skipped: int = 0


@dataclass
class FaultInjector:
    """Per-database registry of armed fault points.

    Every :class:`~repro.database.Database` carries one (an unarmed injector
    is a dict lookup and an increment per fire — negligible).  ``hits``
    counts every ``fire`` call per point whether armed or not, so tests can
    assert a code path actually passed through its instrumentation.

    ``seed`` fixes the RNG used for ``probability`` firing so chaos runs
    are reproducible.
    """

    _armed: Dict[str, _ArmedFault] = field(default_factory=dict)
    hits: Dict[str, int] = field(default_factory=dict)
    seed: Optional[int] = None

    def __post_init__(self):
        self._rng = random.Random(self.seed)

    def arm(
        self,
        point: str,
        mode: str = "raise",
        times: Optional[int] = 1,
        after: int = 0,
        delay: float = 0.0,
        probability: Optional[float] = None,
        message: Optional[str] = None,
    ) -> None:
        """Arm ``point``; it trips ``times`` times after skipping ``after`` hits.

        ``times=None`` never self-disarms; ``probability=p`` makes each
        eligible hit trip with probability ``p`` instead of always.
        """
        if point not in KNOWN_FAULT_POINTS:
            raise DurabilityError(
                f"unknown fault point {point!r}; known: "
                f"{sorted(KNOWN_FAULT_POINTS)}"
            )
        if mode not in _MODES:
            raise DurabilityError(f"unknown fault mode {mode!r}")
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise DurabilityError(
                f"fault probability must be in [0, 1], got {probability!r}"
            )
        self._armed[point] = _ArmedFault(
            mode=mode,
            times=times,
            after=after,
            delay=delay,
            probability=probability,
            message=message,
        )

    def disarm(self, point: Optional[str] = None) -> None:
        """Disarm one point, or all of them."""
        if point is None:
            self._armed.clear()
        else:
            self._armed.pop(point, None)

    def armed_points(self) -> List[str]:
        """Names of the currently armed points."""
        return sorted(self._armed)

    def fire(self, point: str) -> None:
        """Trip the fault armed at ``point``, if any (instrumentation hook)."""
        self.hits[point] = self.hits.get(point, 0) + 1
        if not self._armed:
            return  # fast path: unarmed injectors stay off the hot path
        fault = self._armed.get(point)
        if fault is None:
            return
        if fault.skipped < fault.after:
            fault.skipped += 1
            return
        if fault.times is not None and fault.trips >= fault.times:
            return
        if fault.probability is not None and self._rng.random() >= fault.probability:
            return
        fault.trips += 1
        if fault.mode == "delay":
            time.sleep(fault.delay)
            return
        if fault.mode == "crash":
            raise SimulatedCrash(point)
        if fault.mode == "io_error":
            raise TransientIOError(point, fault.message)
        raise FaultError(fault.message or f"injected fault at {point!r}")
