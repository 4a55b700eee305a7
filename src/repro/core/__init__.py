"""The paper's contribution: the aggregate cache and object-aware joins."""

from .admission import AdmissionPolicy, AdmissionRequest, AlwaysAdmit, ProfitAdmission
from .cache_entry import AggregateCacheEntry
from .cache_key import CacheKey, cache_key_for
from .delta_compensation import compensation_assignments
from .enforcement import EnforcementStats, MDEnforcer
from .eviction import EvictionPolicy, LruEviction, ProfitEviction
from .explain import QueryPlan, SubjoinPlan, explain_query
from .main_compensation import StaleEntryError
from .manager import AggregateCacheManager, CacheQueryReport
from .matching_dependency import MatchingDependency, validate_md
from .merge_advisor import MergeAdvisor, MergeRecommendation
from .metrics import CacheMetrics, EntryStatus
from .pruning import JoinPruner, PruneReport, partition_temperature
from .strategies import CacheConfig, ExecutionStrategy, MaintenanceMode

__all__ = [
    "AdmissionPolicy",
    "AdmissionRequest",
    "AggregateCacheEntry",
    "AggregateCacheManager",
    "AlwaysAdmit",
    "CacheConfig",
    "CacheKey",
    "CacheMetrics",
    "CacheQueryReport",
    "EnforcementStats",
    "EntryStatus",
    "EvictionPolicy",
    "ExecutionStrategy",
    "JoinPruner",
    "LruEviction",
    "MDEnforcer",
    "MaintenanceMode",
    "MatchingDependency",
    "MergeAdvisor",
    "MergeRecommendation",
    "ProfitAdmission",
    "ProfitEviction",
    "PruneReport",
    "QueryPlan",
    "SubjoinPlan",
    "StaleEntryError",
    "cache_key_for",
    "compensation_assignments",
    "explain_query",
    "partition_temperature",
    "validate_md",
]
