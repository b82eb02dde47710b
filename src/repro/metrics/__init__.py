"""Time-series metrics: counters, gauges, and histograms sampled
against the shared simulated clock — the state-over-time counterpart
of the span tracer. See :mod:`repro.metrics.registry`."""

from repro.metrics.registry import (
    Counter,
    Gauge,
    Histogram,
    METRICS_SCHEMA,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
    find_series,
    series_peak,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetrics",
    "find_series",
    "series_peak",
]
