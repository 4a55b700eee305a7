"""EXPLAIN ANALYZE: trace structure, span timing, prune attribution."""

import pytest

from repro import ExecutionStrategy
from repro.core import manager as manager_module
from repro.workloads.erp import ErpWorkload

from ..conftest import PROFIT_SQL, load_erp, make_erp_db, mid_stream_erp


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


class TestProbedSubjoins:
    def test_span_names_the_probed_alias_and_counts_gathered_rows(self):
        """A delta step pinned to two late items gathers their one header
        from the header main by primary key: the span says so, and
        ``rows_scanned`` counts the gathered row, not the main."""
        db = make_erp_db()
        load_erp(db, n_headers=8, merge=True)
        db.query(PROFIT_SQL)
        for iid in (900, 901):
            db.insert("item", {"iid": iid, "hid": 3, "cid": 0, "price": 2.5})
        trace = db.explain_analyze(PROFIT_SQL)
        spans = [s for s in trace.root.walk() if "probed" in s.attrs]
        assert spans
        for span in spans:
            assert "h" in span.attrs["probed"]
            assert span.attrs["rows_scanned"]["h"] == 1
            assert span.attrs["rows_scanned"]["i"] == 2
        assert "probed=['h'" in trace.render()
        assert trace.result == db.query(PROFIT_SQL, strategy=ExecutionStrategy.UNCACHED)


#: Profit and loss over every year: a mid-stream read steps mains and deltas.
ERP_PROFIT_SQL = ErpWorkload.profit_and_loss_sql(year=None)


class TestMainCompensationTerms:
    def test_each_main_term_leaves_a_span(self):
        db, _erp = mid_stream_erp([ERP_PROFIT_SQL])
        trace = db.explain_analyze(ERP_PROFIT_SQL)
        comp = trace.span_named("main_compensation")
        terms = comp.children
        assert len(terms) == comp.attrs["terms"] >= 1
        assert {term.name for term in terms} == {"main_term"}
        for term in terms:
            assert term.attrs["fixed_rows"]
            if term.attrs["status"] == "evaluated":
                assert "rows_scanned" in term.attrs
        # A pinned item term gathers its header and category by key.
        assert any(term.attrs.get("probed") for term in terms)
        # The plan's compensation subjoins are counted as before.
        assert len(trace.subjoin_spans()) == trace.report.prune.combos_total
        assert trace.result == db.query(ERP_PROFIT_SQL, strategy=ExecutionStrategy.UNCACHED)
        assert "main_term" in trace.render()

    def test_untraced_read_passes_no_span_list(self, monkeypatch):
        db, _erp = mid_stream_erp([ERP_PROFIT_SQL])
        sinks = []
        original = manager_module.execute_effective

        def recording(executor, query, snapshot, specs, effective, into, span_sink=None, **kw):
            sinks.append(span_sink)
            return original(executor, query, snapshot, specs, effective, into, span_sink, **kw)

        monkeypatch.setattr(manager_module, "execute_effective", recording)
        db.query(ERP_PROFIT_SQL)
        assert sinks and all(sink is None for sink in sinks)
