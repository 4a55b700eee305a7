"""Fig. 10 — join predicate pushdown for the unprunable subjoin
Header_delta x Item_main.

Paper setup: the Header delta holds recent headers whose matching items were
already merged into the Item main (the Fig. 5 overlap: "table I has been
merged before H"), so the tid ranges overlap and dynamic pruning correctly
fails.  The subjoin is executed with and without the MD-derived local tid
filters (Section 5.3) for three Item-main sizes and a varying number of
matching records.  Paper result: pushdown accelerates the subjoin up to 4x,
the more the fewer records match relative to the main's size.
"""

import pytest

from repro import Database, ExecutionStrategy
from repro.core import JoinPruner
from repro.query.executor import ComboSpec
from repro.workloads import ErpConfig, ErpWorkload

# (item_main_rows, matching_item_rows) — scaled from the paper's
# 10M/50M/100M mains with 0-2.5M matching records.
CELLS = [
    (5_000, 250),
    (5_000, 1_000),
    (20_000, 250),
    (20_000, 1_000),
    (20_000, 2_500),
    (40_000, 1_000),
    (40_000, 2_500),
]


def build(main_rows: int, matching_rows: int):
    """Old objects fully merged; new objects merged on the Item side only."""
    db = Database()
    workload = ErpWorkload(db, ErpConfig(seed=55, n_categories=20))
    old_objects = (main_rows - matching_rows) // workload.config.items_per_header
    workload.insert_objects(old_objects, merge_after=True)
    new_objects = matching_rows // workload.config.items_per_header
    workload.insert_objects(new_objects)
    db.merge("Item")  # unsynchronized merge: items to main, headers stay in delta
    query = db.executor.bind(db.parse(workload.header_item_sql()))
    assignment = {
        "H": db.table("Header").partition("delta"),
        "I": db.table("Item").partition("main"),
    }
    pruner = JoinPruner(
        query,
        db.cache.matching_dependencies,
        [],
        ExecutionStrategy.CACHED_FULL_PRUNING,
        predicate_pushdown=True,
    )
    reason, pushdown = pruner.check(assignment)
    assert reason is None, "the overlap subjoin must not be prunable"
    assert pushdown, "pushdown filters must be derived"
    return db, query, assignment, pushdown


@pytest.mark.parametrize("use_pushdown", [False, True], ids=["regular", "pushdown"])
@pytest.mark.parametrize(
    "main_rows,matching", CELLS, ids=[f"main{m}-match{k}" for m, k in CELLS]
)
def test_fig10_predicate_pushdown(
    fastest_round, figures, main_rows, matching, use_pushdown
):
    key = (main_rows, matching)
    cache = test_fig10_predicate_pushdown.__dict__.setdefault("_envs", {})
    if key not in cache:
        cache[key] = build(main_rows, matching)
    db, query, assignment, pushdown = cache[key]
    combo = ComboSpec(dict(assignment), extra_filters=pushdown if use_pushdown else {})
    snapshot = db.transactions.global_snapshot()

    elapsed = fastest_round(
        lambda: db.executor.execute(query, snapshot, combos=[combo])
    )
    report = figures.report(
        "Fig. 10",
        "Header_delta x Item_main subjoin: regular vs predicate pushdown",
        "pushdown accelerates the unprunable subjoin up to 4x; benefit "
        "grows as matching records shrink relative to the main size",
        ["item_main_rows", "matching_rows", "mode", "seconds"],
    )
    report.add_row(
        main_rows, matching, "pushdown" if use_pushdown else "regular", elapsed
    )
