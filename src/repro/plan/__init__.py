"""The unified planner layer: one logical→physical pipeline, cached.

Planning is a first-class artifact here instead of being re-derived (and
thrown away) by the executor, the cache manager, and EXPLAIN separately:

* :class:`~repro.plan.logical.Binder` resolves a statement against the
  catalog once, producing a :class:`~repro.plan.logical.LogicalPlan`;
* :class:`~repro.plan.physical.Planner` lowers it to a
  :class:`~repro.plan.physical.PhysicalPlan` — every subjoin's partition
  assignment, prune verdict, and pushdown filters;
* :class:`~repro.plan.cache.PlanCache` keys plans by (normalized
  statement, strategy) and validates them against per-table structural
  epochs, so repeated statements skip parse/bind/enumeration entirely —
  after DML only the prune verdicts are derived again.

``cost``, ``logical``, and ``star_join`` are imported eagerly (they
depend only on the query/storage layers); ``physical`` and ``cache``
import the executor in turn, so they are exposed lazily to keep the
import graph acyclic.
"""

from __future__ import annotations

from .cost import FILTER_SELECTIVITY, JoinStep, choose_join_order, estimate_scan_rows
from .logical import Binder, LogicalPlan
from .star_join import ExcludedTable, exclusion_is_sound, star_join_exclusions

__all__ = [
    "Binder",
    "LogicalPlan",
    "JoinStep",
    "FILTER_SELECTIVITY",
    "choose_join_order",
    "estimate_scan_rows",
    "ExcludedTable",
    "star_join_exclusions",
    "exclusion_is_sound",
    "Planner",
    "PhysicalPlan",
    "PlannedSubjoin",
    "plan_signature",
    "PlanCache",
]

_LAZY = {
    "Planner": "physical",
    "PhysicalPlan": "physical",
    "PlannedSubjoin": "physical",
    "plan_signature": "physical",
    "PlanCache": "cache",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
