"""Unit tests for the time-series metrics registry."""

from repro.faults.clock import SimulatedClock
from repro.metrics import (
    METRICS_SCHEMA,
    NULL_METRICS,
    MetricsRegistry,
    find_series,
    series_peak,
)


def test_counter_exports_cumulative_series():
    registry = MetricsRegistry()
    counter = registry.counter("tasks_total", worker="w0")
    counter.inc()
    counter.inc(4)
    exported = counter.to_dict()
    assert exported["type"] == "counter"
    assert exported["total"] == 5
    assert [sample[2] for sample in exported["samples"]] == [1, 5]


def test_counter_identity_by_name_and_labels():
    registry = MetricsRegistry()
    assert registry.counter("a", worker="w0") is registry.counter(
        "a", worker="w0"
    )
    assert registry.counter("a", worker="w0") is not registry.counter(
        "a", worker="w1"
    )


def test_gauge_tracks_exact_watermarks():
    registry = MetricsRegistry()
    gauge = registry.gauge("mem_used_bytes", region="user")
    gauge.set(10)
    gauge.set(70)
    gauge.set(30)
    gauge.add(-30)
    exported = gauge.to_dict()
    assert exported["peak"] == 70
    assert exported["low"] == 0
    assert exported["last"] == 0


def test_gauge_compaction_preserves_crests():
    """Overflowing max_samples halves resolution but the waterline's
    peak sample must survive pairwise compaction."""
    registry = MetricsRegistry(max_samples=8)
    gauge = registry.gauge("mem_used_bytes", region="user")
    for value in (1, 2, 3, 999, 4, 5, 6, 7, 8):  # 9th sample compacts
        gauge.set(value)
    assert len(gauge.samples) <= 8
    assert max(sample[2] for sample in gauge.samples) == 999
    assert gauge.peak == 999
    # the just-appended sample (the odd tail) survives compaction
    assert gauge.samples[-1][2] == 8


def test_histogram_buckets_and_summary():
    registry = MetricsRegistry()
    histogram = registry.histogram("join_build_bytes", buckets=(10, 100))
    for value in (5, 50, 500):
        histogram.observe(value)
    exported = histogram.to_dict()
    assert exported["count"] == 3
    assert exported["sum"] == 555
    assert exported["min"] == 5 and exported["max"] == 500
    assert exported["buckets"] == [[10, 1], [100, 1], ["inf", 1]]


def test_ticks_order_samples_across_instruments():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.gauge("b").set(1)
    registry.counter("a").inc()
    ticks_a = [s[1] for s in registry.counter("a").samples]
    ticks_b = [s[1] for s in registry.gauge("b").samples]
    assert ticks_a == [1, 3] and ticks_b == [2]
    assert registry.export()["ticks"] == 3


def test_simulated_clock_stamps_samples():
    clock = SimulatedClock()
    registry = MetricsRegistry(clock=clock)
    gauge = registry.gauge("mem_used_bytes")
    gauge.set(1)
    clock.advance(2.5)
    gauge.set(2)
    assert [sample[0] for sample in gauge.samples] == [0.0, 2.5]


def test_export_and_find_series_shapes():
    registry = MetricsRegistry()
    registry.counter("tasks_total", worker="w0").inc()
    registry.counter("tasks_total", worker="w1").inc(2)
    exported = registry.export()
    assert exported["schema"] == METRICS_SCHEMA
    assert len(find_series(exported, "tasks_total")) == 2
    (w1,) = find_series(exported, "tasks_total", worker="w1")
    assert w1["total"] == 2
    # the registry itself resolves the same way as its export
    assert len(find_series(registry, "tasks_total")) == 2
    assert find_series(exported, "absent") == []


def test_series_peak_fallback_order():
    assert series_peak({"peak": 7, "total": 99}) == 7
    assert series_peak({"total": 99}) == 99
    assert series_peak({"max": 3}) == 3
    assert series_peak({"samples": [[0, 1, 4], [0, 2, 9]]}) == 9
    assert series_peak({"samples": []}) is None
    assert series_peak(None) is None


def test_null_metrics_is_inert():
    assert NULL_METRICS.enabled is False
    instrument = NULL_METRICS.counter("anything", worker="w0")
    assert instrument is NULL_METRICS.gauge("other")
    instrument.inc()
    instrument.set(5)
    instrument.observe(1.0)
    instrument.add(3)
    assert NULL_METRICS.export() is None
    assert NULL_METRICS.instruments() == []
