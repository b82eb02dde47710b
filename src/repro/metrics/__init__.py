"""Time-series metrics: counters and gauges whose samples are
``metric`` events, grouped into series by one function — the
state-over-time counterpart of the span tracer. See
:mod:`repro.metrics.registry`."""

from repro.metrics.registry import (
    Counter,
    Gauge,
    METRICS_SCHEMA,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
    find_series,
    metric_key,
    series_from_events,
    series_peak,
)

__all__ = [
    "Counter",
    "Gauge",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetrics",
    "find_series",
    "metric_key",
    "series_from_events",
    "series_peak",
]
