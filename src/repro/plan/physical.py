"""Physical planning: :class:`LogicalPlan` → :class:`PhysicalPlan`.

The :class:`Planner` lowers a bound statement to everything execution
needs, decided once: the cached all-main combinations with their cache
keys, the full compensation-subjoin list with each subjoin's fate (prune
verdict + reason, pushdown filters), and a cost-seeded join order / probe
side per evaluated subjoin (estimated partition row counts through
:mod:`repro.plan.cost`).  EXPLAIN, EXPLAIN ANALYZE, and ``execute`` all
consume the same :class:`PhysicalPlan` object, so they cannot drift.

A plan is a snapshot of the partition layout at build time; its
``signature`` folds every referenced table's version counter, so the plan
cache can decide validity with an integer compare (see
:func:`plan_signature`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..query.executor import ComboSpec, all_partition_combos, main_only_combos
from ..query.expr import Expr
from ..query.query import AggregateQuery
from ..storage.catalog import Catalog
from ..storage.partition import Partition
from ..core.cache_key import CacheKey, cache_key_for
from ..core.delta_compensation import (
    compensation_assignments,
    excluded_combo_count,
    sound_exclusions,
)
from ..core.pruning import JoinPruner, PruneReport
from ..core.strategies import CacheConfig, ExecutionStrategy
from .cost import choose_join_order, estimate_scan_rows, tier_weighted_costs
from .logical import LogicalPlan
from .star_join import (
    ExcludedTable,
    detect_star_join_tables,
    excluded_fingerprint,
    normalize_star_join_override,
)


@dataclass
class PlannedSubjoin:
    """One subjoin's planned fate: evaluate (how) or pruned (why)."""

    partitions: Dict[str, Partition]
    action: str  # "evaluate" | "pruned"
    reason: str = ""  # "", "empty", "logical", "dynamic"
    pushdown: Dict[str, List[Expr]] = field(default_factory=dict)
    #: Plan-time scan-size estimates per alias (cost-model input).
    estimated_rows: Dict[str, int] = field(default_factory=dict)
    #: Tier-weighted scan costs (rows × cold-scan multiplier) — what the
    #: join ordering actually ranked; equals ``estimated_rows`` while every
    #: partition is resident.
    estimated_cost: Dict[str, float] = field(default_factory=dict)
    #: Cost-seeded probe side and full left-deep order (probe first).
    probe_side: Optional[str] = None
    join_order: List[str] = field(default_factory=list)
    #: True on pruned subjoins that involved a memory-mapped cold
    #: partition: the verdict came from the RAM synopsis, a cold disk
    #: scan was skipped without faulting anything in.
    synopsis_pruned: bool = False

    def partition_names(self) -> Dict[str, str]:
        """alias → partition name (the rendering-friendly view)."""
        return {alias: p.name for alias, p in self.partitions.items()}

    def to_spec(self) -> ComboSpec:
        """A fresh executor :class:`ComboSpec` for this subjoin."""
        return ComboSpec(
            dict(self.partitions),
            extra_filters={a: list(f) for a, f in self.pushdown.items()},
        )


@dataclass
class PhysicalPlan:
    """Everything needed to answer one statement under one strategy."""

    logical: LogicalPlan
    strategy: ExecutionStrategy
    signature: Tuple = ()
    cached_combos: List[Dict[str, Partition]] = field(default_factory=list)
    cache_keys: List[CacheKey] = field(default_factory=list)
    subjoins: List[PlannedSubjoin] = field(default_factory=list)
    prune: PruneReport = field(default_factory=PruneReport)
    #: Star-join variant reduction: tables pinned to their mains with a
    #: reason each, and the per-statement override the plan was built
    #: under (None = automatic detection) — both part of the signature.
    excluded: Tuple[ExcludedTable, ...] = ()
    star_override: Optional[Tuple[str, ...]] = None

    @property
    def query(self) -> AggregateQuery:
        """The bound statement this plan answers."""
        return self.logical.query

    @property
    def cacheable(self) -> bool:
        """True when every aggregate qualifies for the aggregate cache."""
        return self.logical.cacheable

    def table_names(self) -> List[str]:
        """Distinct referenced table names, sorted."""
        return self.logical.table_names()

    def evaluated_specs(self) -> List[ComboSpec]:
        """Fresh :class:`ComboSpec`\\ s for every non-pruned subjoin."""
        return [s.to_spec() for s in self.subjoins if s.action == "evaluate"]

    def excluded_fingerprint(self) -> Tuple[Tuple[str, str], ...]:
        """The ``(alias, reason)`` exclusion decision this plan's combo
        set was generated under — part of delta-memo identity."""
        return excluded_fingerprint(self.excluded)


def plan_signature(
    catalog: Catalog,
    config: CacheConfig,
    table_names: Sequence[str],
    star_override: Optional[Tuple[str, ...]] = None,
    excluded: Tuple[ExcludedTable, ...] = (),
) -> Tuple:
    """The validity fingerprint of a plan over ``table_names``.

    Folds the pruning-relevant config switches plus every referenced
    table's (name, id, version): DML, merges, and schema changes bump the
    version, drop/recreate changes the id — so "is this cached plan still
    valid?" is a tuple equality, no content inspection.  Raises
    ``CatalogError`` when a referenced table no longer exists (the caller
    treats that as invalidated).

    The star-join component pins the variant-reduction decision: the
    config flag and override, the per-statement override, and the
    resulting ``(alias, reason)`` exclusions.  Toggling any of these —
    or a dimension delta going empty→non-empty, which flips the detected
    exclusions — changes the signature, invalidating cached plans *and*
    delta memos stamped with it (memos folded over a different combo set
    must never be replayed; see :func:`repro.core.delta_memo.classify_memo`).
    """
    return (
        config.predicate_pushdown,
        config.enforce_referential_integrity,
        (
            config.star_join_reduction,
            normalize_star_join_override(config.star_join_tables),
            star_override,
            excluded_fingerprint(excluded),
        ),
        tuple(
            (name, catalog.table(name).table_id, catalog.table(name).version)
            for name in table_names
        ),
    )


class Planner:
    """Lowers bound statements to physical plans against one catalog."""

    def __init__(self, catalog: Catalog, config: CacheConfig):
        self._catalog = catalog
        self._config = config

    def build(
        self,
        logical: LogicalPlan,
        strategy: ExecutionStrategy,
        mds: Sequence = (),
        agings: Sequence = (),
        star_override: Optional[Tuple[str, ...]] = None,
    ) -> PhysicalPlan:
        """Plan ``logical`` under ``strategy`` with the given object
        declarations (matching dependencies / consistent agings).

        ``star_override`` is the normalized per-statement
        ``star_join_tables`` override (None = fall back to the config
        override, then automatic detection).
        """
        bound = logical.query
        excluded: Tuple[ExcludedTable, ...] = ()
        if (
            strategy.uses_cache
            and strategy.prunes_empty
            and logical.cacheable
            and self._config.star_join_reduction
        ):
            effective = (
                star_override
                if star_override is not None
                else normalize_star_join_override(self._config.star_join_tables)
            )
            excluded = detect_star_join_tables(bound, self._catalog, effective)
        plan = PhysicalPlan(
            logical=logical,
            strategy=strategy,
            signature=plan_signature(
                self._catalog,
                self._config,
                logical.table_names(),
                star_override=star_override,
                excluded=excluded,
            ),
            excluded=excluded,
            star_override=star_override,
        )
        if not strategy.uses_cache or not logical.cacheable:
            # The uncached path evaluates the full product and never runs
            # the pruner, so the prune report stays zeroed — matching what
            # execution reports for these statements.
            for assignment in all_partition_combos(bound, self._catalog):
                plan.subjoins.append(self._planned_evaluate(bound, assignment, {}))
            return plan
        plan.cached_combos = main_only_combos(bound, self._catalog)
        plan.cache_keys = [
            cache_key_for(bound, self._catalog, combo)
            for combo in plan.cached_combos
        ]
        pruner: Optional[JoinPruner] = None
        if strategy.prunes_empty or strategy.prunes_dynamic:
            # obs=None: per-decision metrics would under-count on plan-cache
            # hits.  The manager folds the plan's PruneReport into the
            # registry once per query instead.
            pruner = JoinPruner(
                bound,
                mds,
                agings,
                strategy,
                predicate_pushdown=self._config.predicate_pushdown,
                assume_md_integrity=self._config.enforce_referential_integrity,
                obs=None,
            )
        live = sound_exclusions(bound, self._catalog, plan.excluded)
        if live:
            plan.prune.excluded_tables = len(live)
            plan.prune.combos_excluded = excluded_combo_count(
                bound, self._catalog, live
            )
        for assignment in compensation_assignments(
            bound, self._catalog, plan.cached_combos, live
        ):
            plan.prune.combos_total += 1
            if pruner is None:
                plan.prune.evaluated += 1
                plan.subjoins.append(self._planned_evaluate(bound, assignment, {}))
                continue
            reason, pushdown = pruner.check(assignment)
            if reason is not None:
                if reason == "empty":
                    plan.prune.pruned_empty += 1
                elif reason == "logical":
                    plan.prune.pruned_logical += 1
                else:
                    plan.prune.pruned_dynamic += 1
                synopsis = any(
                    p.storage_tier == "mapped" for p in assignment.values()
                )
                if synopsis:
                    plan.prune.synopsis_skips += 1
                plan.subjoins.append(
                    PlannedSubjoin(
                        dict(assignment), "pruned", reason,
                        synopsis_pruned=synopsis,
                    )
                )
                continue
            plan.prune.evaluated += 1
            plan.prune.pushdown_filters += sum(len(v) for v in pushdown.values())
            plan.subjoins.append(self._planned_evaluate(bound, assignment, pushdown))
        return plan

    def _planned_evaluate(
        self,
        bound: AggregateQuery,
        assignment: Dict[str, Partition],
        pushdown: Dict[str, List[Expr]],
    ) -> PlannedSubjoin:
        """Annotate an evaluated subjoin with its cost-seeded join order."""
        estimates = {
            alias: estimate_scan_rows(
                partition.row_count,
                len(bound.local_filters(alias)) + len(pushdown.get(alias, ())),
            )
            for alias, partition in assignment.items()
        }
        # Ordering ranks tier-weighted costs, not raw rows: a memory-mapped
        # cold partition scans at a penalty, so comparable inputs prefer
        # probing/hashing on the resident side.
        costs = tier_weighted_costs(estimates, assignment)
        probe, steps = choose_join_order(bound, costs)
        return PlannedSubjoin(
            partitions=dict(assignment),
            action="evaluate",
            pushdown={a: list(f) for a, f in pushdown.items()},
            estimated_rows=estimates,
            estimated_cost=costs,
            probe_side=probe,
            join_order=[probe] + [step.alias for step in steps],
        )
