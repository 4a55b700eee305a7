"""Resource governance: deadlines, budgets, retries, and degraded modes.

See :mod:`repro.governor.governor` for the overview; the pieces are

* :class:`Deadline` / :class:`CancelToken` — cooperative query cancellation;
* :class:`RetryPolicy` — bounded exponential backoff for transient I/O;
* :class:`ResourceGovernor` / :class:`GovernorConfig` / :class:`HealthReport`
  — the facade-level accounting tying them together.
"""

from .deadline import CancelToken, Deadline
from .governor import (
    HEALTHY,
    WAL_DEGRADED,
    GovernorConfig,
    HealthReport,
    ResourceGovernor,
)
from .retry import RetryPolicy

__all__ = [
    "CancelToken",
    "Deadline",
    "GovernorConfig",
    "HealthReport",
    "ResourceGovernor",
    "RetryPolicy",
    "HEALTHY",
    "WAL_DEGRADED",
]
