"""The resource governor: one object accounting for every degradation.

:class:`ResourceGovernor` sits on the :class:`~repro.database.Database`
facade and cooperates with three mechanisms:

* **query deadlines** — :meth:`query_token` mints the per-query
  :class:`~repro.governor.deadline.CancelToken` (default budget from
  ``REPRO_QUERY_TIMEOUT_MS``) and the facade reports the resulting
  timeouts/cancellations back for accounting;
* **memory budgets** — ``memory_budget_bytes`` is the ceiling the cache
  manager sheds down to (``REPRO_MEMORY_BUDGET_MB``), with every shed
  recorded here;
* **durability** — WAL appends and checkpoint writes retry transient
  ``OSError``s in place (:data:`~repro.governor.retry.WRITE_RETRY`, no
  setting); a record the log still refuses waits in the database's WAL
  backlog, and while that backlog is non-empty the database is
  *WAL-degraded*: the next write drains it first and is rejected with
  :class:`~repro.errors.WriteRejectedError` when the drain fails, while
  reads keep serving.  The governor counts rejections and retries.

A cached query that fails mid-run is answered from the base tables
(``degraded_reason="fallback"``); the governor counts those too.

:meth:`health` condenses all of it into a :class:`HealthReport` for
``db.health()``, the monitor, and the shell's ``\\health`` command.  The
governor keeps no counter of its own: each ``record_*`` increments a
``repro_governor_*`` metric, and :meth:`health` reads them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..envutil import env_float
from ..obs.instruments import EngineMetrics
from .deadline import CancelToken, Deadline

#: Environment knobs (all parsed through :mod:`repro.envutil`).
QUERY_TIMEOUT_ENV = "REPRO_QUERY_TIMEOUT_MS"
MEMORY_BUDGET_ENV = "REPRO_MEMORY_BUDGET_MB"

#: Health states.
HEALTHY = "healthy"
WAL_DEGRADED = "wal_degraded"


@dataclass(frozen=True)
class GovernorConfig:
    """Tunable limits; :meth:`from_env` reads the two environment knobs.

    ``query_timeout_ms=None`` / ``memory_budget_mb=None`` disable the
    respective mechanism entirely (zero per-query overhead).
    """

    query_timeout_ms: Optional[float] = None
    memory_budget_mb: Optional[float] = None

    @classmethod
    def from_env(cls) -> "GovernorConfig":
        return cls(
            query_timeout_ms=env_float(QUERY_TIMEOUT_ENV, None, minimum=1.0),
            memory_budget_mb=env_float(MEMORY_BUDGET_ENV, None, minimum=0.001),
        )


@dataclass(frozen=True)
class HealthReport:
    """The governor's accounting, read from the metrics registry."""

    state: str  # "healthy" or "degraded"
    modes: List[str]  # active degraded modes: [] or ["wal_degraded"]
    timeouts: int
    cancellations: int
    writes_rejected: int
    degraded_queries: int
    retries: Dict[str, int]
    sheds: Dict[str, int]
    shed_bytes: int
    tracked_bytes: Optional[int]
    memory_budget_bytes: Optional[int]

    def render(self) -> str:
        """Human-readable block for the shell's ``\\health`` command."""
        lines = [f"state: {self.state}"]
        if self.modes:
            lines.append(f"modes: {', '.join(self.modes)}")
        lines.append(
            f"queries: timeouts={self.timeouts}"
            f" cancellations={self.cancellations}"
            f" degraded={self.degraded_queries}"
        )
        lines.append(f"writes rejected: {self.writes_rejected}")
        if self.retries:
            pairs = ", ".join(
                f"{point}={n}" for point, n in sorted(self.retries.items())
            )
            lines.append(f"io retries: {pairs}")
        if self.memory_budget_bytes is not None:
            # None means "no reading yet" (the budget exists but nothing
            # has measured against it) — render it distinctly from a
            # genuine 0-byte measurement.
            tracked = (
                "untracked"
                if self.tracked_bytes is None
                else f"{self.tracked_bytes}B"
            )
            lines.append(
                f"memory: tracked={tracked}"
                f" budget={self.memory_budget_bytes}B"
                f" sheds={dict(sorted(self.sheds.items()))}"
                f" shed_bytes={self.shed_bytes}"
            )
        elif self.tracked_bytes is not None:
            lines.append(f"memory: tracked={self.tracked_bytes}B (no budget)")
        return "\n".join(lines)


class ResourceGovernor:
    """Owns the budgets and the accounting of every degradation."""

    def __init__(
        self,
        config: Optional[GovernorConfig] = None,
        obs: Optional[EngineMetrics] = None,
    ):
        self.config = config or GovernorConfig.from_env()
        # Every count lives in the registry; the governor keeps none.
        self.obs = obs if obs is not None else EngineMetrics()
        budget_mb = self.config.memory_budget_mb
        self.memory_budget_bytes: Optional[int] = (
            int(budget_mb * 1024 * 1024) if budget_mb is not None else None
        )

    # ------------------------------------------------------------------
    # Query admission (deadlines / cancellation)
    # ------------------------------------------------------------------
    def query_token(
        self,
        timeout_ms: Optional[float] = None,
        cancel: Optional[CancelToken] = None,
    ) -> Optional[CancelToken]:
        """The token a query should run under, or ``None`` for ungoverned.

        An explicit ``timeout_ms`` wins over the configured default; a
        caller-supplied token is reused (gaining the deadline if it has
        none yet) so external cancellation keeps working.
        """
        if timeout_ms is None:
            timeout_ms = self.config.query_timeout_ms
        if cancel is not None:
            if timeout_ms is not None and cancel.deadline is None:
                cancel.deadline = Deadline.after_ms(timeout_ms)
            return cancel
        if timeout_ms is None:
            return None
        return CancelToken(Deadline.after_ms(timeout_ms))

    def record_timeout(self) -> None:
        self.obs.governor_timeouts.inc()

    def record_cancellation(self) -> None:
        self.obs.governor_cancellations.inc()

    # ------------------------------------------------------------------
    # Durability (WAL / checkpoint)
    # ------------------------------------------------------------------
    def record_write_rejected(self) -> None:
        self.obs.governor_writes_rejected.inc()

    def record_io_retry(self, point: str) -> None:
        self.obs.governor_retries.labels(point).inc()

    # ------------------------------------------------------------------
    # Aggregate-cache fallback
    # ------------------------------------------------------------------
    def record_degraded_query(self, reason: str) -> None:
        self.obs.governor_degraded_queries.labels(reason).inc()

    # ------------------------------------------------------------------
    # Memory budget
    # ------------------------------------------------------------------
    def record_shed(self, kind: str, count: int, bytes_freed: int = 0) -> None:
        if count <= 0:
            return
        self.obs.governor_sheds.labels(kind).inc(count)
        if bytes_freed:
            self.obs.governor_shed_bytes.inc(bytes_freed)

    def set_tracked_bytes(self, tracked: int) -> None:
        self.obs.governor_tracked_bytes.set(tracked)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def health(
        self, tracked_bytes: Optional[int] = None, wal_degraded: bool = False
    ) -> HealthReport:
        """The report; ``wal_degraded`` is the database's "WAL backlog is
        non-empty" — the governor keeps no degraded state of its own."""
        modes = [WAL_DEGRADED] if wal_degraded else []
        if tracked_bytes is not None:
            self.set_tracked_bytes(tracked_bytes)
        obs = self.obs
        return HealthReport(
            state="degraded" if modes else HEALTHY,
            modes=modes,
            timeouts=int(obs.governor_timeouts.value),
            cancellations=int(obs.governor_cancellations.value),
            writes_rejected=int(obs.governor_writes_rejected.value),
            degraded_queries=int(obs.governor_degraded_queries.value),
            retries=_ints(obs.governor_retries.by_label()),
            sheds=_ints(obs.governor_sheds.by_label()),
            shed_bytes=int(obs.governor_shed_bytes.value),
            tracked_bytes=tracked_bytes,
            memory_budget_bytes=self.memory_budget_bytes,
        )


def _ints(values: Dict[str, float]) -> Dict[str, int]:
    return {key: int(value) for key, value in values.items()}
