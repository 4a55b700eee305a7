"""The plan cache: normalized statement → :class:`PhysicalPlan`.

Plans are cached under two slots pointing at one entry:

* the **canonical slot** — ``(bound statement canonical key, presentation
  key, strategy)`` — hits any equivalent statement however it was phrased;
* optional **alias slots** — ``(raw SQL text, strategy)`` — hit
  byte-identical statements *before* parse/bind, which is what removes the
  fixed parse/bind/enumeration cost from the repeated-query hot path.

Validity is two tuple compares (see
:func:`~repro.plan.physical.plan_validity`), both computed in one pass per
lookup.  A changed ``structure`` — a merge, schema change, MD / aging
registration, config switch, or a dropped table — drops the entry
(outcome ``"invalidated"``).  A matching structure with a changed data
``signature`` — insert, update or delete — returns the plan as
``"stale"``: the caller re-derives its verdicts outside the lock and
:meth:`PlanCache.settle` swaps the fresh plan in (counted as a hit), or a
rebuild when the star-join exclusions flipped (counted as an
invalidation).  Capacity is enforced by LRU over entries (an entry and
all its alias slots live and die together).

The cache is thread-safe: one lock guards the maps, and lookups never run
user code under it beyond the validity recompute (a few attribute reads).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from .physical import PhysicalPlan

#: A cache slot: ("sql", statement text, strategy value) or ("canon",
#: canonical key, presentation key, strategy value).  The cache treats
#: keys as opaque.
PlanKey = Tuple


class _Entry:
    __slots__ = ("plan", "alias_keys")

    def __init__(self, plan: PhysicalPlan, alias_keys: Tuple):
        self.plan = plan
        self.alias_keys = alias_keys


class PlanCache:
    """Bounded, epoch-keyed, thread-safe cache of physical plans."""

    def __init__(self, capacity: int = 128):
        self._capacity = capacity
        self._lock = threading.Lock()
        # primary (canonical) key → entry, in LRU order (oldest first).
        self._entries: "OrderedDict[PlanKey, _Entry]" = OrderedDict()
        # alias (raw SQL) key → primary key.
        self._aliases: Dict[PlanKey, PlanKey] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        #: Hits that re-derived the verdicts over the cached skeleton.
        self.rederived = 0
        #: Invalidations found by re-deriving: the exclusions flipped.
        self.exclusion_flips = 0

    @property
    def enabled(self) -> bool:
        """False when constructed with capacity 0 (cache disabled)."""
        return self._capacity > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def get(
        self,
        key: PlanKey,
        validity: Callable[[PhysicalPlan], Tuple[Tuple, Tuple]],
    ) -> Tuple[Optional[PhysicalPlan], str]:
        """Look up a plan; returns ``(plan, outcome)``.

        ``validity`` recomputes a candidate plan's current ``(structure,
        signature)``.  A structure mismatch — or an exception, e.g. a
        referenced table was dropped — invalidates the entry in place.
        Outcomes: ``"hit"``, ``"stale"`` (structure holds, data moved: the
        plan comes back for :meth:`settle`), ``"miss"``, ``"invalidated"``.
        """
        if not self.enabled:
            return None, "miss"
        with self._lock:
            primary = self._aliases.get(key, key)
            entry = self._entries.get(primary)
            if entry is None:
                self.misses += 1
                return None, "miss"
            plan = entry.plan
            try:
                structure, signature = validity(plan)
            except Exception:
                structure = signature = None
            # The signature embeds the structure: one compare on a pure hit.
            if signature == plan.signature:
                self._entries.move_to_end(primary)
                self.hits += 1
                return plan, "hit"
            if structure == plan.structure:
                self._entries.move_to_end(primary)
                return plan, "stale"
            self._drop_locked(primary)
            self.invalidations += 1
            return None, "invalidated"

    def settle(
        self, key: PlanKey, stale: PhysicalPlan, fresh: PhysicalPlan, rederived: bool
    ) -> None:
        """Finish a ``"stale"`` lookup of ``key`` by swapping ``fresh`` into
        the entry, if it still holds ``stale`` (a concurrent reader may have
        settled it first).  ``rederived``: ``fresh`` re-derived the verdicts
        (counted as a hit); otherwise the star-join exclusions flipped and
        ``fresh`` is a rebuild (counted as an invalidation)."""
        with self._lock:
            if rederived:
                self.hits += 1
                self.rederived += 1
            else:
                self.invalidations += 1
                self.exclusion_flips += 1
            entry = self._entries.get(self._aliases.get(key, key))
            if entry is not None and entry.plan is stale:
                entry.plan = fresh

    def put(
        self,
        primary_key: PlanKey,
        plan: PhysicalPlan,
        alias_keys: Tuple[PlanKey, ...] = (),
    ) -> None:
        """Admit a plan under its canonical key plus optional alias slots.

        Re-admitting an existing primary key replaces the entry (its old
        alias slots are released).  The plan's own ``structure`` and
        ``signature`` are what future lookups compare against.
        """
        if not self.enabled:
            return
        with self._lock:
            if primary_key in self._entries:
                self._drop_locked(primary_key)
            entry = _Entry(plan, tuple(alias_keys))
            self._entries[primary_key] = entry
            for alias in entry.alias_keys:
                self._aliases[alias] = primary_key
            while len(self._entries) > self._capacity:
                oldest, _ = next(iter(self._entries.items()))
                self._drop_locked(oldest)
                self.evictions += 1

    def add_alias(self, alias_key: PlanKey, primary_key: PlanKey) -> None:
        """Attach another raw-SQL slot to an already-cached entry (a later
        spelling of the same canonical statement)."""
        if not self.enabled:
            return
        with self._lock:
            entry = self._entries.get(primary_key)
            if entry is None or alias_key in self._aliases:
                return
            entry.alias_keys = entry.alias_keys + (alias_key,)
            self._aliases[alias_key] = primary_key

    # ------------------------------------------------------------------
    def evict_for_table(self, table_name: str) -> int:
        """Drop every plan referencing ``table_name``; returns the count."""
        with self._lock:
            victims = [
                key
                for key, entry in self._entries.items()
                if table_name in entry.plan.table_names()
            ]
            for key in victims:
                self._drop_locked(key)
            self.evictions += len(victims)
            return len(victims)

    def clear(self) -> int:
        """Drop everything; returns the number of entries dropped."""
        with self._lock:
            n = len(self._entries)
            self._entries.clear()
            self._aliases.clear()
            self.evictions += n
            return n

    def stats(self) -> Dict[str, int]:
        """A consistent snapshot of the lifetime counters."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "rederived": self.rederived,
                "exclusion_flips": self.exclusion_flips,
            }

    # ------------------------------------------------------------------
    def _drop_locked(self, primary_key: PlanKey) -> None:
        entry = self._entries.pop(primary_key, None)
        if entry is None:
            return
        for alias in entry.alias_keys:
            if self._aliases.get(alias) == primary_key:
                del self._aliases[alias]
