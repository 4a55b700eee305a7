"""Shared parsing for the environment knobs (``REPRO_QUERY_TIMEOUT_MS``,
``REPRO_MEMORY_BUDGET_MB``).

Every knob follows the same contract:

* unset or empty → the caller's default;
* malformed (not a number, or a non-finite float such as ``nan`` or
  ``inf``) → warn **once per variable per process** and
  fall back to the default — silently ignoring it would leave a typo like
  ``REPRO_QUERY_TIMEOUT_MS=1oo`` undetected, while warning on every
  ``Database()`` construction would drown real output;
* well-formed but out of range → raise ``ValueError`` outright: unlike a
  typo it expresses clear intent, and guessing what the caller meant
  would mask the misconfiguration.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from typing import Optional

# Variables already warned about, so each malformed knob warns exactly
# once per process no matter how many Databases consult it.
_warned: set = set()
_warned_lock = threading.Lock()


def _reset_warnings() -> None:
    """Forget which variables warned — test hook only."""
    with _warned_lock:
        _warned.clear()


def env_float(
    name: str,
    default: Optional[float] = None,
    minimum: Optional[float] = None,
) -> Optional[float]:
    """Read a float knob from the environment (contract above)."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = float(raw)
        if not math.isfinite(value):
            # NaN would slip past the range check below, and an infinite
            # budget or deadline is not a value any knob means.
            raise ValueError(raw)
    except ValueError:
        with _warned_lock:
            first = name not in _warned
            _warned.add(name)
        if first:
            warnings.warn(
                f"ignoring malformed {name}={raw!r} (not a finite number); "
                f"falling back to the default ({default!r})",
                RuntimeWarning,
                stacklevel=2,
            )
        return default
    if minimum is not None and value < minimum:
        raise ValueError(
            f"{name}={raw!r}: the value must be >= {minimum} "
            "(unset the variable for the default)"
        )
    return value
