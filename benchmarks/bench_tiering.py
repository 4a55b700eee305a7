"""Tiered hot/cold storage — resident-memory ceiling and hot-path latency.

The paper's hot/cold multi-partitioning (Section 5.4, Fig. 11) assumes the
cold partitions are rarely touched; the tiered cold store makes that pay:
``age_out()`` demotes cold-group mains to memory-mapped files and lazy
dictionaries, keeping only the per-partition synopsis resident.

This benchmark builds the CH-benCHmark twice with a 1:3 hot/cold split
(``main_years`` 2010-2013, ``hot_year`` 2013) — one database all-resident,
one tiered — and asserts the tier contract:

* **bit identity**: Q3/Q5 return identical rows (values *and* types) on
  both layouts, uncached and cached;
* **resident ceiling**: after demotion (cold handles released), the aged
  tables' resident bytes are <= ``CEILING_RATIO`` of the all-resident
  baseline — the synopsis is all that stays hot-RAM-resident of the cold
  mains;
* **hot-path latency**: warm cache hits never touch the mapped files
  (compensation scans deltas only), so the tiered hit path stays within a
  few percent of all-resident (recorded; asserted loosely at CI scale,
  < 5% at the documented 10^7-row scale, see EXPERIMENTS.md).

Results land in ``BENCH_tiering.json`` (env knobs ``BENCH_TIERING_SCALE``,
``BENCH_TIERING_ROUNDS``, ``BENCH_TIERING_OUT``).
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro import Database, ExecutionStrategy
from repro.workloads import CH_QUERIES, ChBenchmark, ChConfig

FULL = ExecutionStrategy.CACHED_FULL_PRUNING
UNCACHED = ExecutionStrategy.UNCACHED

QUERY_NAMES = ["Q3", "Q5"]
AGED_TABLES = ["orders", "orderline"]

#: Resident bytes of the aged tables after demotion, relative to the
#: all-resident baseline.  The documented 10^7-row run lands ~0.28 (hot is
#: a quarter of the data); 0.45 leaves headroom for the synopsis and the
#: small-dictionary overhead that dominates at CI scale.
CEILING_RATIO = 0.45

#: Warm-hit latency ratio asserted at any scale.  The 5 % target from the
#: acceptance criteria binds at the documented scale; CI-scale hits are
#: ~100 us where scheduler noise alone exceeds 5 %.
LATENCY_RATIO_CEILING = 1.5

_SCALE = int(os.environ.get("BENCH_TIERING_SCALE", "2"))
_ROUNDS = int(os.environ.get("BENCH_TIERING_ROUNDS", "30"))
_ITERS = 10
_OUT = os.environ.get("BENCH_TIERING_OUT", "BENCH_tiering.json")

_STATE = {}


def _config() -> ChConfig:
    return ChConfig(
        warehouses=_SCALE,
        districts_per_warehouse=4,
        customers_per_district=25,
        orders_per_district=60,
        orderlines_per_order=8,
        items=300,
        suppliers=20,
        delta_fraction=0.05,
        seed=77,
        amount_quantum=0.25,  # exact partial sums -> bit-identical folds
        main_years=(2010, 2011, 2012, 2013),  # 1:3 hot/cold split
        delta_years=(2014,),
        hot_year=2013,
    )


def get_pair(tmp_path_factory):
    """(all-resident db, tiered db): same data, same seed, one demoted."""
    if "pair" not in _STATE:
        resident = Database()
        ChBenchmark(resident, _config()).load()

        cold_dir = tmp_path_factory.mktemp("coldstore")
        tiered = Database(cold_path=cold_dir)
        ChBenchmark(tiered, _config()).load()

        _STATE["resident_baseline_bytes"] = sum(
            tiered.table(t).nbytes_resident() for t in AGED_TABLES
        )
        demoted = tiered.age_out()
        assert {t for t, _ in demoted} == set(AGED_TABLES)
        _STATE["pair"] = (resident, tiered)
    return _STATE["pair"]


@pytest.mark.parametrize("query_name", QUERY_NAMES)
def test_bit_identity_across_layouts(tmp_path_factory, query_name):
    resident, tiered = get_pair(tmp_path_factory)
    sql = CH_QUERIES[query_name]
    for strategy in (UNCACHED, FULL):
        a = resident.query(sql, strategy=strategy)
        b = tiered.query(sql, strategy=strategy)
        assert a.columns == b.columns
        assert a.rows == b.rows
        for row_a, row_b in zip(a.rows, b.rows):
            assert [type(v) for v in row_a] == [type(v) for v in row_b]


def test_resident_memory_ceiling(tmp_path_factory, figures):
    resident, tiered = get_pair(tmp_path_factory)
    # The bit-identity queries above loaded dictionaries and mapped pages;
    # drop them the way the governor's cold shed would.
    from repro.storage.coldstore import release_table

    for name in AGED_TABLES:
        release_table(tiered.table(name))

    baseline = _STATE["resident_baseline_bytes"]
    tiered_resident = sum(
        tiered.table(t).nbytes_resident() for t in AGED_TABLES
    )
    mapped = sum(tiered.table(t).nbytes_mapped() for t in AGED_TABLES)
    ratio = tiered_resident / baseline
    _STATE["memory"] = {
        "baseline_resident_bytes": baseline,
        "tiered_resident_bytes": tiered_resident,
        "tiered_mapped_bytes": mapped,
        "resident_ratio": ratio,
    }
    assert mapped > 0
    assert ratio <= CEILING_RATIO, (
        f"tiered resident bytes {tiered_resident} are {ratio:.2f}x the "
        f"all-resident baseline {baseline} (ceiling {CEILING_RATIO})"
    )
    # Demotion accounting is honest: the all-resident database reports
    # zero mapped bytes.
    assert all(resident.table(t).nbytes_mapped() == 0 for t in AGED_TABLES)

    report = figures.report(
        "Tiered storage",
        "CH-benCHmark 1:3 hot/cold: resident bytes and hot-path latency, "
        "all-resident vs memory-mapped cold mains",
        "demotion keeps only the synopsis resident for cold mains; warm "
        "cache hits never touch the mapped files",
        ["metric", "layout", "value"],
    )
    report.add_row("aged-tables resident bytes", "all-resident", baseline)
    report.add_row("aged-tables resident bytes", "tiered", tiered_resident)
    report.add_row("resident ratio", "tiered/all-resident", round(ratio, 4))


@pytest.mark.parametrize("query_name", QUERY_NAMES)
def test_hot_path_latency(tmp_path_factory, figures, query_name):
    """Warm-hit latency, paired and interleaved (same protocol as the
    governor bench): both layouts timed inside every round so clock drift
    cancels; best-of-round pairs are compared."""
    resident, tiered = get_pair(tmp_path_factory)
    sql = CH_QUERIES[query_name]
    for db in (resident, tiered):
        db.query(sql, strategy=FULL)  # warm the entries

    best = {"resident": float("inf"), "tiered": float("inf")}
    layouts = {"resident": resident, "tiered": tiered}
    for round_no in range(_ROUNDS):
        order = ("resident", "tiered")
        if round_no % 2:
            order = tuple(reversed(order))
        for label in order:
            db = layouts[label]
            started = time.perf_counter()
            for _ in range(_ITERS):
                db.query(sql, strategy=FULL)
            best[label] = min(
                best[label], (time.perf_counter() - started) / _ITERS
            )

    ratio = best["tiered"] / best["resident"]
    _STATE[("latency", query_name)] = (best["resident"], best["tiered"], ratio)
    assert ratio <= LATENCY_RATIO_CEILING, (
        f"{query_name}: tiered warm hit {best['tiered']:.6f}s vs resident "
        f"{best['resident']:.6f}s ({ratio:.2f}x)"
    )

    report = figures.report(
        "Tiered storage",
        "CH-benCHmark 1:3 hot/cold: resident bytes and hot-path latency, "
        "all-resident vs memory-mapped cold mains",
        "demotion keeps only the synopsis resident for cold mains; warm "
        "cache hits never touch the mapped files",
        ["metric", "layout", "value"],
    )
    report.add_row(f"{query_name} warm hit seconds", "all-resident", best["resident"])
    report.add_row(f"{query_name} warm hit seconds", "tiered", best["tiered"])


def test_write_bench_json(figures):
    rows = []
    for query_name in QUERY_NAMES:
        latency = _STATE.get(("latency", query_name))
        if latency is None:
            continue
        seconds_resident, seconds_tiered, ratio = latency
        rows.append(
            {
                "query": query_name,
                "seconds_resident": seconds_resident,
                "seconds_tiered": seconds_tiered,
                "latency_ratio": ratio,
            }
        )
    payload = {
        "benchmark": "tiered_storage",
        "scale": _SCALE,
        "rounds": _ROUNDS,
        "iterations": _ITERS,
        "ceiling_ratio": CEILING_RATIO,
        "latency_ratio_ceiling": LATENCY_RATIO_CEILING,
        "memory": _STATE.get("memory", {}),
        "rows": rows,
    }
    path = Path(_OUT)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert path.exists()

    report = figures.report(
        "Tiered storage",
        "CH-benCHmark 1:3 hot/cold: resident bytes and hot-path latency, "
        "all-resident vs memory-mapped cold mains",
        "demotion keeps only the synopsis resident for cold mains; warm "
        "cache hits never touch the mapped files",
        ["metric", "layout", "value"],
    )
    memory = _STATE.get("memory")
    if memory:
        report.note(
            f"resident ratio {memory['resident_ratio']:.3f} "
            f"(ceiling {CEILING_RATIO}); "
            f"{memory['tiered_mapped_bytes']} bytes mapped"
        )
    for row in rows:
        report.note(
            f"{row['query']}: warm-hit latency ratio "
            f"{row['latency_ratio']:.3f} (tiered/resident)"
        )
