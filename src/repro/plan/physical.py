"""Physical planning: :class:`LogicalPlan` → :class:`PhysicalPlan`.

The :class:`Planner` lowers a bound statement to everything execution
needs, in two halves:

* the **skeleton**, fixed by the catalog's structure — the cached
  all-main combinations with their cache keys, the star-join exclusions,
  the compensation assignments (one partition per alias), and the
  :class:`JoinPruner` built from the registered MDs and agings;
* the **verdicts**, derived from the data — each subjoin's fate (prune
  verdict + reason, pushdown filters) over the partitions' current
  ``tid`` ranges and row counts: the paper's runtime prefilter (Eq. 5).

EXPLAIN, EXPLAIN ANALYZE, and ``execute`` all consume the same
:class:`PhysicalPlan` object, so they cannot drift.

A plan carries two keys (see :func:`plan_validity`): its ``structure``
folds every referenced table's structural ``epoch``, its ``signature``
every table's data ``version``.  The plan cache keeps a plan while the
structure matches and, when only the data moved, has
:meth:`Planner.reprune` re-derive the verdicts over the same skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..query.executor import (
    ComboSpec,
    CompiledTerms,
    all_partition_combos,
    main_only_combos,
)
from ..query.expr import Expr
from ..query.query import AggregateQuery
from ..storage.catalog import Catalog
from ..storage.partition import Partition
from ..core.cache_key import CacheKey, cache_key_for
from ..core.delta_compensation import compensation_assignments, excluded_combo_count
from ..core.pruning import JoinPruner, PruneReport
from ..core.strategies import CacheConfig, ExecutionStrategy
from .logical import LogicalPlan
from .star_join import ExcludedTable, excluded_fingerprint, star_join_exclusions


@dataclass
class PlannedSubjoin:
    """One subjoin's planned fate: evaluate (how) or pruned (why)."""

    partitions: Dict[str, Partition]
    action: str  # "evaluate" | "pruned"
    reason: str = ""  # "", "empty", "logical", "dynamic"
    pushdown: Dict[str, List[Expr]] = field(default_factory=dict)

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
    """Everything needed to answer one statement under one strategy.

    Never mutated once built: :meth:`Planner.reprune` derives a new plan
    that shares this one's skeleton.
    """

    logical: LogicalPlan
    strategy: ExecutionStrategy
    #: The two halves of :func:`plan_validity` at the moment the verdicts
    #: were derived.
    structure: Tuple = ()
    signature: Tuple = ()
    cached_combos: List[Dict[str, Partition]] = field(default_factory=list)
    cache_keys: List[CacheKey] = field(default_factory=list)
    #: Every subjoin's alias → partition assignment, in subjoin order: the
    #: skeleton the verdicts are derived over.
    assignments: List[Dict[str, Partition]] = field(default_factory=list)
    #: Derives the verdicts; None when the strategy prunes nothing.
    pruner: Optional[JoinPruner] = None
    subjoins: List[PlannedSubjoin] = field(default_factory=list)
    prune: PruneReport = field(default_factory=PruneReport)
    #: Star-join variant reduction: the tables pinned to their mains —
    #: part of the signature.
    excluded: Tuple[ExcludedTable, ...] = ()
    #: What every subjoin of the statement shares, built with the skeleton
    #: and kept by :meth:`Planner.reprune` (``execute(..., compiled=)``).
    compiled: Optional[CompiledTerms] = None

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

    def excluded_fingerprint(self) -> Tuple[str, ...]:
        """The excluded aliases this plan's combo set was generated
        under — part of delta-memo identity."""
        return excluded_fingerprint(self.excluded)


def plan_validity(
    catalog: Catalog,
    config: CacheConfig,
    table_names: Sequence[str],
    excluded: Tuple[ExcludedTable, ...] = (),
) -> Tuple[Tuple, Tuple]:
    """``(structure, signature)`` of a plan over ``table_names``, in one
    pass over the tables.

    ``structure`` is what a plan's meaning depends on: the pushdown and
    star-join switches, and every referenced table's (name, id, epoch).
    Merges, schema changes and MD / aging registration move the epoch,
    drop/recreate changes the id.
    While it holds, a cached plan's skeleton stands.

    ``signature`` adds every table's data ``version`` — insert, update and
    delete move it too — and the excluded star-join aliases.
    Equal signatures mean nothing a plan's verdicts, a delta memo, or a
    remembered output order was derived from has changed (see
    :func:`repro.core.delta_memo.classify_memo`).  A dimension delta going
    empty→non-empty flips the exclusions; :meth:`Planner.reprune` then
    refuses, the plan is rebuilt, and memos stamped with the old
    exclusions are never replayed.

    Raises ``CatalogError`` when a referenced table no longer exists (the
    caller treats that as invalidated).
    """
    switches = (config.predicate_pushdown, config.star_join_reduction)
    tables = []
    versions = []
    for name in table_names:
        table = catalog.table(name)
        tables.append((name, table.table_id, table.epoch))
        versions.append(table.version)
    structure = (switches, tuple(tables))
    return structure, (structure, excluded_fingerprint(excluded), tuple(versions))


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
    ) -> PhysicalPlan:
        """Plan ``logical`` under ``strategy`` with the given object
        declarations (matching dependencies / consistent agings): the
        skeleton, then the verdicts :meth:`reprune` re-derives.
        """
        bound = logical.query
        plan = PhysicalPlan(
            logical=logical,
            strategy=strategy,
            excluded=self._exclusions(logical, strategy),
            compiled=CompiledTerms(bound, self._catalog),
        )
        if not strategy.uses_cache or not logical.cacheable:
            plan.assignments = all_partition_combos(bound, self._catalog)
            return self._derive(plan)
        plan.cached_combos = main_only_combos(bound, self._catalog)
        plan.cache_keys = [
            cache_key_for(bound, self._catalog, combo)
            for combo in plan.cached_combos
        ]
        plan.assignments = compensation_assignments(
            bound, self._catalog, plan.cached_combos, plan.excluded
        )
        if strategy.prunes_empty or strategy.prunes_dynamic:
            # obs=None: per-decision metrics would under-count on plan-cache
            # hits.  The manager folds the plan's PruneReport into the
            # registry once per query instead.
            plan.pruner = JoinPruner(
                bound,
                mds,
                agings,
                strategy,
                predicate_pushdown=self._config.predicate_pushdown,
                obs=None,
            )
        return self._derive(plan)

    def reprune(self, plan: PhysicalPlan) -> Optional[PhysicalPlan]:
        """Re-derive the verdicts of a plan whose tables' data changed but
        whose structure did not.

        Returns a new plan sharing ``plan``'s skeleton, or None when the
        star-join exclusions flipped (a dimension delta went empty →
        non-empty): that changes the assignments and the memo identity, so
        the caller must build afresh.
        """
        excluded = self._exclusions(plan.logical, plan.strategy)
        if excluded_fingerprint(excluded) != plan.excluded_fingerprint():
            return None
        return self._derive(plan)

    def _exclusions(
        self,
        logical: LogicalPlan,
        strategy: ExecutionStrategy,
    ) -> Tuple[ExcludedTable, ...]:
        """The star-join exclusions over the current deltas; none outside
        the cached pruning strategies or with the config switch off."""
        if not (
            strategy.uses_cache
            and strategy.prunes_empty
            and logical.cacheable
            and self._config.star_join_reduction
        ):
            return ()
        return star_join_exclusions(logical.query, self._catalog)

    def _derive(self, skeleton: PhysicalPlan) -> PhysicalPlan:
        """The verdict half: every assignment's fate over the current data,
        the prune report, and the keys they were derived under — as a new
        plan sharing ``skeleton``'s structural parts."""
        structure, signature = plan_validity(
            self._catalog,
            self._config,
            skeleton.table_names(),
            skeleton.excluded,
        )
        prune = PruneReport()
        if not skeleton.strategy.uses_cache or not skeleton.cacheable:
            # The uncached path evaluates the full product and never runs
            # the pruner, so the prune report stays zeroed — matching what
            # execution reports for these statements.
            return replace(
                skeleton, structure=structure, signature=signature, prune=prune,
                subjoins=[PlannedSubjoin(a, "evaluate") for a in skeleton.assignments],
            )
        subjoins: List[PlannedSubjoin] = []
        if skeleton.excluded:
            prune.excluded_tables = len(skeleton.excluded)
            prune.combos_excluded = excluded_combo_count(
                skeleton.query, self._catalog, skeleton.excluded
            )
        pruner = skeleton.pruner
        for assignment in skeleton.assignments:
            prune.combos_total += 1
            reason, pushdown = (
                pruner.check(assignment) if pruner is not None else (None, {})
            )
            if reason is None:
                prune.evaluated += 1
                prune.pushdown_filters += sum(len(v) for v in pushdown.values())
                subjoins.append(PlannedSubjoin(assignment, "evaluate", pushdown=pushdown))
                continue
            if reason == "empty":
                prune.pruned_empty += 1
            elif reason == "logical":
                prune.pruned_logical += 1
            else:
                prune.pruned_dynamic += 1
            subjoins.append(PlannedSubjoin(assignment, "pruned", reason))
        return replace(
            skeleton, structure=structure, signature=signature,
            subjoins=subjoins, prune=prune,
        )
