"""Star-join variant reduction on the wide CH-benCHmark joins.

Delta compensation enumerates ``2^t - 1`` subjoin variants for a
``t``-table join; the star-join reduction pins every provably-delta-free
table to its main partition and enumerates ``2^k - 1`` over the ``k``
tables that can actually contribute delta rows.  This benchmark runs the
wide queries (Q5: 7 tables, Q7: 6, Q8: 7, Q9: 6) with the reduction on
and off, asserts the hard combo collapse (Q7: 63 -> 7 with exactly 3
delta-bearing tables), asserts the two variant sets are **bit-identical**
to each other and to the uncached truth (values, types, and row order),
and times cold-plan and warm-hit executions under both settings.

Amounts sit on a 0.25 quantum so float sums are exact and
order-independent, making the bit-identity assertion meaningful rather
than tolerance-based.

Env knobs:
* ``BENCH_STAR_JOIN_SCALE`` — dataset scale multiplier (default 2;
  CI smoke sets 1).
* ``BENCH_STAR_JOIN_OUT`` — JSON output path
  (default ``BENCH_star_join.json``).
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro import Database, ExecutionStrategy
from repro.workloads import CH_QUERIES, CH_QUERY_TABLES, ChBenchmark, ChConfig

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED

_SCALE = max(1, int(os.environ.get("BENCH_STAR_JOIN_SCALE", "2")))
_OUT = os.environ.get("BENCH_STAR_JOIN_OUT", "BENCH_star_join.json")

#: The wide joins — every one joins >= 6 tables, most of them static
#: dimensions whose deltas stay empty in the generator's steady state.
WIDE_QUERIES = ["Q5", "Q7", "Q8", "Q9"]

#: The issue's hard acceptance pin: Q7 joins 6 tables of which exactly 3
#: (stock, orderline, orders) carry delta rows -> 63 enumerated variants
#: must collapse to 7.
HARD_COLLAPSE = {"Q7": (63, 7)}

_STATE = {}


def get_db() -> Database:
    if "db" not in _STATE:
        db = Database()
        ChBenchmark(
            db,
            ChConfig(
                warehouses=2,
                districts_per_warehouse=3,
                customers_per_district=10 * _SCALE,
                orders_per_district=30 * _SCALE,
                orderlines_per_order=5,
                items=100 * _SCALE,
                suppliers=10,
                delta_fraction=0.05,
                seed=11,
                amount_quantum=0.25,
            ),
        ).load()
        _STATE["db"] = db
    return _STATE["db"]


def _typed(rows):
    return [tuple((type(v).__name__, v) for v in row) for row in rows]


def _timed(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure(db, sql, reduction):
    """Cold-plan and warm-hit timings plus the final prune report, with
    ``CacheConfig.star_join_reduction`` set to ``reduction``."""
    db.cache.config.star_join_reduction = reduction
    run = lambda: db.query(sql, strategy=FULL)
    db.plan_cache.clear()
    cold = _timed(lambda: (db.plan_cache.clear(), run()))
    warm = _timed(run)
    result = run()
    return cold, warm, result


@pytest.mark.parametrize("name", WIDE_QUERIES)
def test_star_join_collapse(figures, name):
    db = get_db()
    sql = CH_QUERIES[name]
    tables = CH_QUERY_TABLES[name]

    cold_red, warm_red, reduced = _measure(db, sql, True)
    report_red = reduced.report.prune
    cold_exh, warm_exh, exhaustive = _measure(db, sql, False)
    report_exh = exhaustive.report.prune

    # The exhaustive run enumerates the full product; the reduced run
    # enumerates 2^k - 1 and accounts for every skipped variant.
    assert report_exh.combos_total == 2**tables - 1
    assert report_exh.excluded_tables == 0
    assert report_red.excluded_tables > 0
    assert report_red.combos_total < report_exh.combos_total
    assert (
        report_red.combos_total + report_red.combos_excluded
        == report_exh.combos_total
    )
    if name in HARD_COLLAPSE:
        full, collapsed = HARD_COLLAPSE[name]
        assert report_exh.combos_total == full
        assert report_red.combos_total == collapsed

    # Bit-identity: values, types, and row order all agree with the
    # uncached truth.
    reference = db.query(sql, strategy=UNCACHED)
    assert _typed(reduced.rows) == _typed(reference.rows)
    assert _typed(exhaustive.rows) == _typed(reference.rows)

    _STATE[("cell", name)] = {
        "query": name,
        "tables": tables,
        "combos_exhaustive": report_exh.combos_total,
        "combos_reduced": report_red.combos_total,
        "combos_excluded": report_red.combos_excluded,
        "excluded_tables": report_red.excluded_tables,
        "seconds_cold_exhaustive": cold_exh,
        "seconds_cold_reduced": cold_red,
        "seconds_warm_exhaustive": warm_exh,
        "seconds_warm_reduced": warm_red,
        "bit_identical": True,
    }
    report = figures.report(
        "Star join",
        "wide CH-benCHmark joins: exhaustive vs star-join-reduced variants",
        "tables with provably empty deltas are pinned to their mains, so "
        "2^t-1 compensation variants collapse to 2^k-1 over the k "
        "delta-bearing tables; results are bit-identical by assertion",
        ["query", "t", "combos_full", "combos_reduced", "cold_full_s",
         "cold_reduced_s", "warm_full_s", "warm_reduced_s"],
    )
    report.add_row(
        name, tables, report_exh.combos_total, report_red.combos_total,
        round(cold_exh, 5), round(cold_red, 5),
        round(warm_exh, 5), round(warm_red, 5),
    )


def test_write_bench_json():
    """Emit ``BENCH_star_join.json`` for the CI artifact."""
    cells = [value for key, value in _STATE.items() if key[0] == "cell"]
    assert cells, "no benchmark cells ran before the JSON writer"
    assert all(cell["bit_identical"] for cell in cells)
    q7 = next(cell for cell in cells if cell["query"] == "Q7")
    assert (q7["combos_exhaustive"], q7["combos_reduced"]) == (63, 7)
    payload = {
        "benchmark": "star_join",
        "scale": _SCALE,
        "hard_collapse": {"Q7": [63, 7]},
        "rows": sorted(cells, key=lambda c: c["query"]),
    }
    path = Path(_OUT)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert path.exists()
