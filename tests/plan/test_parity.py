"""Plan/trace parity, property-style: over randomized database states the
dry-run EXPLAIN (rendered from the physical plan) must agree subjoin-by-
subjoin with what EXPLAIN ANALYZE actually executed.  Any drift between the planner and the interpreter shows up here.
"""

import random

import pytest

from repro import Database, ExecutionStrategy
from repro.core.explain import explain_query

from ..conftest import HEADER_ITEM_SQL, PROFIT_SQL, make_erp_db

STRATEGIES = [
    ExecutionStrategy.CACHED_NO_PRUNING,
    ExecutionStrategy.CACHED_EMPTY_DELTA,
    ExecutionStrategy.CACHED_FULL_PRUNING,
]


def random_state(seed: int) -> Database:
    """A CH-benCHmark-ish state: random order/line volumes, a random mix of
    merged and delta-resident data, random updates and deletes."""
    rng = random.Random(seed)
    db = make_erp_db()
    n_categories = rng.randint(1, 4)
    for cid in range(n_categories):
        db.insert("category", {"cid": cid, "name": f"cat{cid}", "lang": "ENG"})
    iid = 0
    inserted_items = []
    for hid in range(rng.randint(1, 10)):
        items = []
        for _ in range(rng.randint(1, 4)):
            items.append(
                {
                    "iid": iid,
                    "hid": hid,
                    "cid": rng.randrange(n_categories),
                    "price": round(rng.uniform(1, 100), 2),
                }
            )
            iid += 1
        db.insert_business_object(
            "header", {"hid": hid, "year": 2013 + hid % 3}, "item", items
        )
        inserted_items.extend(items)
        if rng.random() < 0.4:
            db.merge()
    for item in inserted_items:
        if rng.random() < 0.15:
            db.update("item", item["iid"], {"price": round(rng.uniform(1, 100), 2)})
        elif rng.random() < 0.1:
            db.delete("item", item["iid"])
    if rng.random() < 0.3:
        db.merge()
    return db


def combo_label(partitions: dict) -> str:
    inner = ", ".join(f"{a}:{p}" for a, p in sorted(partitions.items()))
    return f"({inner})"


def planned_fates(plan) -> list:
    """(combo, fate) pairs from the dry-run plan, sorted."""
    fates = []
    for sub in plan.subjoins:
        fate = f"pruned:{sub.reason}" if sub.action == "pruned" else "evaluate"
        fates.append((combo_label(sub.partitions), fate))
    return sorted(fates)


def traced_fates(trace) -> list:
    """(combo, fate) pairs from the executed trace's subjoin spans, sorted.

    Evaluated spans may carry status "evaluated" or "empty" (an evaluated
    subjoin that produced nothing) — both are the "evaluate" fate.
    """
    fates = []
    for span in trace.subjoin_spans():
        if span.attrs["status"] == "pruned":
            fate = f"pruned:{span.attrs['prune_reason']}"
        else:
            fate = "evaluate"
        fates.append((span.attrs["combo"], fate))
    return sorted(fates)


@pytest.mark.parametrize("seed", range(12))
def test_explain_matches_explain_analyze_serial(seed):
    db = random_state(seed)
    for sql in (PROFIT_SQL, HEADER_ITEM_SQL):
        for strategy in STRATEGIES:
            plan = explain_query(db.cache, sql, strategy)
            trace = db.explain_analyze(sql, strategy=strategy)
            assert planned_fates(plan) == traced_fates(trace), (
                f"seed={seed} sql={sql!r} strategy={strategy}"
            )
            # The executed report agrees with the plan's counters too.
            report = trace.report
            assert report.prune.combos_total == len(plan.subjoins)
            assert report.prune.evaluated == sum(
                1 for s in plan.subjoins if s.action == "evaluate"
            )


@pytest.mark.parametrize("seed", [1, 5])
def test_parity_survives_plan_cache_hits(seed):
    """The second run answers from the cached plan; its trace must still
    agree with the dry-run EXPLAIN."""
    db = random_state(seed)
    for strategy in STRATEGIES:
        db.query(PROFIT_SQL, strategy=strategy)  # warm plan + entry
        plan = explain_query(db.cache, PROFIT_SQL, strategy)
        trace = db.explain_analyze(PROFIT_SQL, strategy=strategy)
        assert planned_fates(plan) == traced_fates(trace)
