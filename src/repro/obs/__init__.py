"""Unified telemetry: streaming metrics, request tracing, exporters.

The serving stack's observability backbone.  Three pieces:

* :mod:`~repro.obs.metrics` — :class:`MetricsRegistry` of named
  counters, gauges and fixed-bucket streaming histograms, each a
  plain value under its own lock; the legacy stats dataclasses
  (``ServiceStats``, ``RegistryStats``, ``WorkerStats``,
  ``FleetStats``, ``TrackingStats``) are thin views over these
  metrics.
* :mod:`~repro.obs.trace` — sampled per-request :class:`Span` trees
  threaded from pipeline submit down to the spatial-index kernel
  stages (which time themselves into :func:`current_span`), plus a
  slow-query log.
* :mod:`~repro.obs.export` — JSON and Prometheus text renderers over
  registry snapshots, used by ``python -m repro obs`` and
  ``serve-bench --telemetry``.

:class:`Telemetry` bundles one registry and one tracer for threading
through service constructors; fleet workers drain metric/span deltas
over their pipes each tick and the parent merges them into one
fleet-wide view.
"""

from .metrics import (
    BUCKET_FACTOR,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
)
from .trace import Span, Tracer, current_span
from .telemetry import Telemetry
from .export import parse_prometheus, render_json, render_prometheus
from .quantiles import histogram_percentiles_ms, percentiles_ms

__all__ = [
    "BUCKET_FACTOR",
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "histogram_quantile",
    "Span",
    "Tracer",
    "current_span",
    "Telemetry",
    "parse_prometheus",
    "render_json",
    "render_prometheus",
    "histogram_percentiles_ms",
    "percentiles_ms",
]
