"""The engine's settable surface, pinned.

Every option below is named beside the caller outside the test suite that
needs it.  An option only tests set is an off-path no workload runs, so a
new ``CacheConfig`` field, ``Database`` parameter or ``REPRO_*`` variable
must be added here deliberately, with the caller that wants it.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

from repro import CacheConfig, Database

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: CacheConfig field -> the caller that sets it.
CACHE_CONFIG_FIELDS = {
    # The stateful oracle's ``toggle`` rule draws it; its coverage asserts
    # depend on the rule's draws (tests/core/test_pure_hit_stateful.py).
    "predicate_pushdown": "tests/core/test_pure_hit_stateful.py toggle rule",
    # ch_cache_pressure's 10-entry cache.
    "max_entries": "benchmarks/e2e/workloads.py ch_cache_pressure",
    # The star-join bench times reduction on and off.
    "star_join_reduction": "benchmarks/bench_star_join.py",
}

#: Database.__init__ parameter -> the caller that passes it.
DATABASE_PARAMETERS = {
    "cache_config": "benchmarks/e2e/workloads.py (CacheConfig(max_entries=10))",
    "path": "Database.open; benchmarks/e2e/durable.py",
    # The fault-testing harness arms its injector before the constructor
    # opens (and recovers) a durable directory.
    "fault_injector": "the fault-injection harness (repro.reliability.faults)",
    # Deployment setting: the governor's two limits, passed instead of
    # read from REPRO_QUERY_TIMEOUT_MS / REPRO_MEMORY_BUDGET_MB.
    "governor": "deployments (GovernorConfig)",
}

#: REPRO_* environment variable -> what reads it.
ENVIRONMENT_VARIABLES = {
    "REPRO_QUERY_TIMEOUT_MS": "GovernorConfig.from_env (governor/governor.py)",
    "REPRO_MEMORY_BUDGET_MB": "GovernorConfig.from_env (governor/governor.py)",
}


def test_cache_config_fields():
    names = [field.name for field in dataclasses.fields(CacheConfig)]
    assert names == list(CACHE_CONFIG_FIELDS)


def test_database_parameters():
    parameters = list(inspect.signature(Database.__init__).parameters)
    assert parameters == ["self"] + list(DATABASE_PARAMETERS)


def repro_names_in_source():
    """Every string constant under ``src/repro`` that is a ``REPRO_*``
    variable name."""
    pattern = re.compile(r"REPRO_[A-Z0-9_]+")
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if pattern.fullmatch(node.value):
                    names.add(node.value)
    return names


def test_environment_variables():
    assert repro_names_in_source() == set(ENVIRONMENT_VARIABLES)
