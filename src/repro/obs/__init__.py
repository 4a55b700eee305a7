"""Observability: metrics registry, per-query traces, EXPLAIN ANALYZE.

The measurement substrate of the engine.  Three pieces:

* :mod:`repro.obs.registry` — a thread-safe :class:`MetricsRegistry` of
  counters, gauges, and fixed-bucket latency histograms with a
  Prometheus-text exporter (and parser) — the one place every lifetime
  counter lives;
* :mod:`repro.obs.instruments` — :class:`EngineMetrics`, the bundle that
  registers every canonical metric name (:mod:`repro.obs.names`) exactly
  once and is threaded through the executor, cache manager, pruner,
  merge, and WAL;
* :mod:`repro.obs.trace` — :class:`QueryTrace`/:class:`Span`, the
  structured per-query trace returned by
  :meth:`repro.database.Database.explain_analyze`.

There is no off switch: the cache manager's ``counters_snapshot()``, the
monitor's ``statistics()`` and the governor's ``health()`` are views of
the same registry ``metrics_snapshot()`` and the Prometheus export read.
"""

from . import names
from .instruments import EngineMetrics
from .registry import (
    Counter,
    FSYNC_BUCKETS,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    parse_prometheus,
)
from .trace import QueryTrace, Span

__all__ = [
    "Counter",
    "EngineMetrics",
    "FSYNC_BUCKETS",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "QueryTrace",
    "Span",
    "names",
    "parse_prometheus",
]
