"""EXPLAIN ANALYZE: trace structure, span timing, prune attribution."""

import pytest

from repro import ExecutionStrategy

from ..conftest import PROFIT_SQL, load_erp, make_erp_db


class TestTraceStructure:
    def test_result_and_report_attached(self, erp_db):
        trace = erp_db.explain_analyze(PROFIT_SQL)
        assert trace.result is not None
        assert trace.report is trace.result.report
        assert trace.result.trace is trace
        assert trace.sql == PROFIT_SQL
        # The trace's result equals a plain query's result.
        assert trace.result == erp_db.query(PROFIT_SQL)

    def test_span_tree_shape(self, erp_db):
        trace = erp_db.explain_analyze(PROFIT_SQL)
        assert trace.root.name == "query"
        names = [s.name for s in trace.root.children]
        assert names[0] == "bind"
        assert "cache_lookup" in names
        assert "delta_compensation" in names

    def test_subjoin_spans_cover_every_compensation_subjoin(self, erp_db):
        """One span per compensation subjoin, pruned or evaluated, and the
        prune reasons on the spans agree with the PruneReport."""
        trace = erp_db.explain_analyze(PROFIT_SQL)
        report = trace.report
        spans = trace.subjoin_spans()
        assert len(spans) == report.prune.combos_total
        pruned = [s for s in spans if s.attrs["status"] == "pruned"]
        assert len(pruned) == report.prune.pruned_total
        reasons = [s.attrs["prune_reason"] for s in pruned]
        assert reasons.count("empty") == report.prune.pruned_empty
        assert reasons.count("logical") == report.prune.pruned_logical
        assert reasons.count("dynamic") == report.prune.pruned_dynamic
        evaluated = [s for s in spans if s.attrs["status"] != "pruned"]
        assert len(evaluated) == report.prune.evaluated
        for span in evaluated:
            assert "combo" in span.attrs
            assert "rows_scanned" in span.attrs

    def test_spans_sum_to_total_within_overhead(self, erp_db):
        """Acceptance: the per-stage spans of a 3-table query sum (within
        instrumentation overhead) to the total latency."""
        trace = erp_db.explain_analyze(PROFIT_SQL)
        total = trace.total_seconds
        assert total > 0
        child_sum = sum(s.duration for s in trace.root.children)
        # Children cannot exceed the root (they are nested in its window)...
        assert child_sum <= total + 1e-9
        # ...and they account for most of it: the gaps are only the
        # manager's own bookkeeping between stages.  Generous absolute
        # slack keeps the assertion robust on loaded CI machines.
        assert child_sum >= total - max(0.01, 0.9 * total)
        # Subjoin spans nest inside the delta_compensation span the same way.
        comp = trace.span_named("delta_compensation")
        sub_sum = sum(s.duration for s in comp.children)
        assert sub_sum <= comp.duration + 1e-9

    def test_uncached_strategy_traces_the_direct_scan(self, erp_db):
        trace = erp_db.explain_analyze(
            PROFIT_SQL, strategy=ExecutionStrategy.UNCACHED
        )
        assert trace.span_named("uncached_scan") is not None
        assert trace.span_named("cache_lookup") is None

    def test_miss_then_hit_lookup_outcomes(self):
        db = make_erp_db()
        load_erp(db, n_headers=4, merge=True)
        first = db.explain_analyze(PROFIT_SQL)
        second = db.explain_analyze(PROFIT_SQL)
        lookup_first = first.span_named("cache_lookup")
        lookup_second = second.span_named("cache_lookup")
        assert lookup_first.attrs["outcome"] == "miss"
        assert [c.name for c in lookup_first.children] == ["build_entry"]
        assert lookup_second.attrs["outcome"] == "hit"

    def test_trace_serializes_and_renders(self, erp_db):
        trace = erp_db.explain_analyze(PROFIT_SQL)
        payload = trace.to_dict()
        assert payload["sql"] == PROFIT_SQL
        assert payload["trace"]["name"] == "query"
        text = trace.render()
        assert text.startswith("EXPLAIN ANALYZE")
        assert "compensation subjoins" in text
        assert "subjoin" in text


class TestMetricsFromQueries:
    def test_counters_line_up_with_report(self, erp_db):
        before = erp_db.metrics_snapshot()
        trace = erp_db.explain_analyze(PROFIT_SQL)
        after = erp_db.metrics_snapshot()
        report = trace.report

        def delta(key):
            return after.get(key, 0) - before.get(key, 0)

        pruned_delta = sum(
            delta(f'repro_subjoins_pruned_total{{reason="{r}"}}')
            for r in ("empty", "logical", "dynamic")
        )
        assert pruned_delta == report.prune.pruned_total
        assert delta("repro_subjoins_evaluated_total") == (
            report.executor_stats.combos_evaluated
        )
        strategy = report.strategy.name.lower()
        assert delta(f'repro_queries_total{{strategy="{strategy}"}}') == 1

    def test_gauges_refresh_on_export(self, erp_db):
        erp_db.query(PROFIT_SQL)
        snap = erp_db.metrics_snapshot()
        assert snap["repro_cache_entries"] == erp_db.cache.entry_count()
        assert snap["repro_cache_value_bytes"] == (
            erp_db.cache.counters_snapshot()["value_bytes"]
        )

    def test_observability_disabled_still_answers(self):
        db = make_erp_db(observability=False)
        load_erp(db, n_headers=4, merge=True)
        result = db.query(PROFIT_SQL)
        assert result.report is not None
        assert db.export_metrics() == ""
        assert db.metrics_snapshot() == {}
        # explain_analyze still traces: spans are per-query state, not
        # registry state.  (star_join_tables=() keeps subjoins enumerated
        # on this fully merged database so there are spans to see.)
        trace = db.explain_analyze(PROFIT_SQL, star_join_tables=())
        assert trace.subjoin_spans()
