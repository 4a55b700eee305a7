"""EXPLAIN ANALYZE and live metrics — where does a query's time go?

Walks the observability layer (docs/architecture.md §9) end to end:

* `db.explain_analyze(sql)` runs the query and returns a `QueryTrace`
  — a tree of timed spans: bind → cache lookup (build on a miss) →
  delta compensation with one span per compensation subjoin, each
  carrying its prune reason or its rows-scanned/pushdown detail,
* a cold run (cache miss, entry built) vs. a warm run (hit, only the
  delta compensated) of the paper's Listing-1 profit query,
* `db.export_metrics()` — the same execution counted in the
  Prometheus-format metrics registry.

Run with:  python examples/explain_analyze.py
"""

from repro import Database
from repro.workloads import ErpConfig, ErpWorkload


def main() -> None:
    db = Database()
    workload = ErpWorkload(db, ErpConfig(seed=1, n_categories=8))

    print("loading 300 merged business objects + 30 unmerged ...")
    workload.insert_objects(300, merge_after=True)
    workload.insert_objects(30, year=2013)

    sql = workload.profit_and_loss_sql(year=2013)
    print("\nListing-1 query:")
    print(sql.strip())

    # ------------------------------------------------ cold: cache miss
    print("\n--- cold run (cache miss: entry is built from the main) ---")
    cold = db.explain_analyze(sql)
    print(cold.render())

    # ------------------------------------------------- warm: cache hit
    print("--- warm run (hit: only the delta is compensated) ---")
    warm = db.explain_analyze(sql)
    print(warm.render())

    # The trace carries the result and the execution report.
    lookup = warm.span_named("cache_lookup")
    report = warm.report
    print(f"lookup outcome: {lookup.attrs['outcome']}")
    print(
        f"subjoins: {report.prune.combos_total} total, "
        f"{report.prune.pruned_total} pruned "
        f"(empty={report.prune.pruned_empty}, "
        f"logical={report.prune.pruned_logical}, "
        f"dynamic={report.prune.pruned_dynamic}), "
        f"{report.prune.evaluated} evaluated"
    )
    for span in warm.subjoin_spans():
        if span.attrs["status"] == "pruned":
            print(f"  pruned  {span.attrs['combo']}: {span.attrs['prune_reason']}")
        elif span.attrs["status"] == "memoized":
            # Delta-memo replay: the covered prefix is not rescanned.
            print(f"  memoized {span.attrs['combo']}")
        else:
            pushed = span.attrs.get("pushdown_filters", {})
            print(
                f"  scanned {span.attrs['combo']}: "
                f"rows {span.attrs['rows_scanned']}, "
                f"{sum(pushed.values())} pushdown filters"
            )
    assert warm.result == cold.result, "tracing must not change the answer"

    # ------------------------------------------- the metrics registry
    print("\n--- Prometheus scrape (query/cache/subjoin families) ---")
    wanted = ("repro_queries_total", "repro_cache_", "repro_subjoins_")
    for line in db.export_metrics().splitlines():
        if line.startswith(wanted) or (
            line.startswith("#") and any(w in line for w in wanted)
        ):
            print(line)


if __name__ == "__main__":
    main()
