"""MetricsRegistry: instruments, thread safety, exporter roundtrip."""

import threading

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    LATENCY_BUCKETS,
    MetricsRegistry,
    parse_prometheus,
)


class TestCounter:
    def test_inc_accumulates(self):
        r = MetricsRegistry()
        c = r.counter("repro_test_total", "help")
        c.inc()
        c.inc(4)
        assert r.snapshot()["repro_test_total"] == 5

    def test_negative_increment_rejected(self):
        r = MetricsRegistry()
        c = r.counter("repro_test_total", "help")
        with pytest.raises(ObservabilityError):
            c.inc(-1)

    def test_labeled_family(self):
        r = MetricsRegistry()
        c = r.counter("repro_test_total", "help", labels=("outcome",))
        c.labels("hit").inc(2)
        c.labels("miss").inc()
        snap = r.snapshot()
        assert snap['repro_test_total{outcome="hit"}'] == 2
        assert snap['repro_test_total{outcome="miss"}'] == 1

    def test_reading_a_child_creates_no_sample(self):
        r = MetricsRegistry()
        c = r.counter("repro_test_total", "help", labels=("outcome",))
        c.labels("hit").inc(2)
        assert c.child_value("hit") == 2
        assert c.child_value("miss") == 0
        assert c.by_label() == {"hit": 2}
        assert list(r.snapshot()) == ['repro_test_total{outcome="hit"}']

    def test_concurrent_increments_lose_nothing(self):
        r = MetricsRegistry()
        c = r.counter("repro_test_total", "help", labels=("who",))
        plain = r.counter("repro_plain_total", "help")
        n_threads, per_thread = 8, 2000

        def worker(i):
            child = c.labels(f"t{i % 2}")
            for _ in range(per_thread):
                child.inc()
                plain.inc()

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = r.snapshot()
        assert snap["repro_plain_total"] == n_threads * per_thread
        assert (
            snap['repro_test_total{who="t0"}'] + snap['repro_test_total{who="t1"}']
            == n_threads * per_thread
        )


class TestGauge:
    def test_set_and_inc(self):
        r = MetricsRegistry()
        g = r.gauge("repro_test_gauge", "help")
        g.set(10)
        g.inc(-3)
        assert r.snapshot()["repro_test_gauge"] == 7

    def test_callback_gauge(self):
        r = MetricsRegistry()
        state = {"v": 0}
        r.gauge("repro_cb_gauge", "help", fn=lambda: state["v"])
        state["v"] = 42
        assert r.snapshot()["repro_cb_gauge"] == 42


class TestHistogram:
    def test_bucket_edges_value_equal_to_bound(self):
        """A value exactly on a bucket bound lands in that bucket
        (Prometheus ``le`` semantics are inclusive)."""
        r = MetricsRegistry()
        h = r.histogram("repro_test_seconds", "help", (0.1, 0.5, 1.0))
        h.observe(0.1)  # == first bound -> le="0.1"
        h.observe(0.5)  # == second bound
        h.observe(2.0)  # above all bounds -> +Inf only
        counts = h.bucket_counts()
        # Cumulative: le=0.1 has 1, le=0.5 has 2, le=1.0 has 2, +Inf has 3.
        assert list(counts.keys()) == [0.1, 0.5, 1.0, float("inf")]
        assert list(counts.values()) == [1, 2, 2, 3]
        snap = r.snapshot()
        assert snap['repro_test_seconds_bucket{le="0.1"}'] == 1
        assert snap['repro_test_seconds_bucket{le="+Inf"}'] == 3
        assert snap["repro_test_seconds_count"] == 3
        assert snap["repro_test_seconds_sum"] == pytest.approx(2.6)

    def test_below_first_bound(self):
        r = MetricsRegistry()
        h = r.histogram("repro_test_seconds", "help", (0.1, 0.5))
        h.observe(0.0001)
        assert list(h.bucket_counts().values()) == [1, 1, 1]

    def test_default_latency_buckets_are_ascending(self):
        assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)


class TestRegistry:
    def test_duplicate_name_rejected(self):
        r = MetricsRegistry()
        r.counter("repro_dup_total", "help")
        with pytest.raises(ObservabilityError):
            r.counter("repro_dup_total", "help")
        with pytest.raises(ObservabilityError):
            r.gauge("repro_dup_total", "help")


class TestExporter:
    def _populated(self) -> MetricsRegistry:
        r = MetricsRegistry()
        c = r.counter("repro_queries_total", "Queries.", labels=("strategy",))
        c.labels("uncached").inc(3)
        c.labels('we"ird\\label').inc()  # exercises label escaping
        r.gauge("repro_entries", "Entries.").set(7)
        h = r.histogram("repro_lat_seconds", "Latency.", (0.001, 0.1, 1.0))
        for v in (0.0005, 0.05, 0.5, 5.0):
            h.observe(v)
        return r

    def test_roundtrip_through_parser(self):
        """render -> parse reproduces snapshot() exactly (the acceptance
        criterion: Prometheus output round-trips through a parser)."""
        r = self._populated()
        text = r.render_prometheus()
        assert parse_prometheus(text) == r.snapshot()

    def test_format_shape(self):
        text = self._populated().render_prometheus()
        lines = text.splitlines()
        assert "# HELP repro_queries_total Queries." in lines
        assert "# TYPE repro_queries_total counter" in lines
        assert "# TYPE repro_lat_seconds histogram" in lines
        assert 'repro_lat_seconds_bucket{le="+Inf"} 4' in lines
        assert "repro_lat_seconds_count 4" in lines
        # Buckets are cumulative and ascending in the output.
        bucket_lines = [l for l in lines if l.startswith("repro_lat_seconds_bucket")]
        values = [float(l.rsplit(" ", 1)[1]) for l in bucket_lines]
        assert values == sorted(values)

    def test_parser_rejects_garbage(self):
        with pytest.raises(ObservabilityError):
            parse_prometheus("repro_thing 1 2 3 extra tokens here\n")
