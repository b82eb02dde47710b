"""Unit tests for the time-series metrics registry."""

import pytest

from repro.core.api import Vista, default_resources
from repro.data import foods_dataset
from repro.faults.clock import SimulatedClock
from repro.metrics import (
    METRICS_SCHEMA,
    NULL_METRICS,
    MetricsRegistry,
    find_series,
    metric_key,
    series_peak,
)
from repro.observe.ledger import RunLedger


def test_counter_exports_cumulative_series():
    registry = MetricsRegistry()
    counter = registry.counter("tasks_total", worker="w0")
    counter.inc()
    counter.inc(4)
    (exported,) = find_series(registry, "tasks_total")
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
    (exported,) = find_series(registry, "mem_used_bytes")
    assert exported["peak"] == 70
    assert exported["low"] == 0
    assert exported["last"] == 0


def test_gauge_watermarks_are_the_extremes_of_its_events():
    """The view's ``peak``/``low`` (the gauge's running state) equal
    the max/min over the series' own events — every sample is kept."""
    registry = MetricsRegistry()
    gauge = registry.gauge("mem_used_bytes", region="user")
    registry.gauge("mem_used_bytes", region="core").set(10_000)
    values = (5, 2, 3, 999, 4, -7, 6, 7, 8) * 30
    for value in values:
        gauge.set(value)
    (series,) = find_series(registry, "mem_used_bytes", region="user")
    events = [event["value"] for event in registry.events
              if event["labels"] == {"region": "user"}]
    assert events == [sample[2] for sample in series["samples"]]
    assert len(events) == len(values)
    assert (series["peak"], series["low"]) == (max(events), min(events))
    assert (series["peak"], series["low"]) == (999, -7)
    assert series["last"] == 8


def test_ticks_order_samples_across_instruments():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.gauge("b").set(1)
    registry.counter("a").inc()
    ticks_a = [s[1] for s in find_series(registry, "a")[0]["samples"]]
    ticks_b = [s[1] for s in find_series(registry, "b")[0]["samples"]]
    assert ticks_a == [1, 3] and ticks_b == [2]
    assert registry.export()["ticks"] == 3


def test_simulated_clock_stamps_samples():
    clock = SimulatedClock()
    registry = MetricsRegistry(clock=clock)
    gauge = registry.gauge("mem_used_bytes")
    gauge.set(1)
    clock.advance(2.5)
    gauge.set(2)
    (series,) = find_series(registry, "mem_used_bytes")
    assert [sample[0] for sample in series["samples"]] == [0.0, 2.5]


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
    assert series_peak({"samples": [[0, 1, 4], [0, 2, 9]]}) == 9
    assert series_peak({"samples": []}) is None
    assert series_peak(None) is None


def test_null_metrics_is_inert():
    assert NULL_METRICS.enabled is False
    instrument = NULL_METRICS.counter("anything", worker="w0")
    assert instrument is NULL_METRICS.gauge("other")
    instrument.inc()
    instrument.set(5)
    instrument.add(3)
    assert NULL_METRICS.export() is None
    assert NULL_METRICS.instruments() == []


# ----------------------------------------------------------------------
# one record: the ledger's metric events are the registry's, selected
# ----------------------------------------------------------------------
def _selected(registry, replayed_upto):
    """The registry events a ledger attached after ``replayed_upto``
    samples holds: the attach-time replay (each series' last sample so
    far, in first-sample order), then what the sink's throttle picks —
    a series' first sample, every ``sink_every``-th, each gauge crest."""
    kinds = {metric_key(i.name, i.labels): i.kind
             for i in registry.instruments()}
    events = registry.events
    replay = {}
    for event in events[:replayed_upto]:
        replay[metric_key(event["metric"], event["labels"])] = event
    selected = list(replay.values())
    counts, peaks, lows = {}, {}, {}
    for position, event in enumerate(events):
        key = metric_key(event["metric"], event["labels"])
        value = event["value"]
        counts[key] = count = counts.get(key, 0) + 1
        crest = kinds[key] == "gauge" and (
            key not in peaks or value > peaks[key] or value < lows[key])
        if kinds[key] == "gauge":
            peaks[key] = max(peaks.get(key, value), value)
            lows[key] = min(lows.get(key, value), value)
        if position >= replayed_upto and (
                crest or count == 1 or count % registry.sink_every == 0):
            selected.append(event)
    return selected


@pytest.mark.parametrize("backend", ["threads", "process"])
def test_ledger_metric_events_are_the_registry_events_it_selects(backend):
    registry, ledger = MetricsRegistry(), RunLedger()
    registry.sink_every = 8   # a short run still crosses the throttle
    reached = []
    ledger.listeners.append(
        lambda event: event["kind"] == "metric"
        and reached.append(len(registry.events)))
    Vista(
        model_name="alexnet", num_layers=2,
        dataset=foods_dataset(num_records=96, seed=3),
        resources=default_resources(num_nodes=2), exec_backend=backend,
    ).run(metrics=registry, ledger=ledger)

    fields = {"kind", "metric", "labels", "value", "sim_time_s"}
    assert {frozenset(event) for event in registry.events} == {
        frozenset(fields)}
    envelope = {"schema", "seq", "wall_s", "sim_time_s", "kind"}
    recorded = ledger.of("metric")
    assert {frozenset(event) for event in recorded} == {
        frozenset(envelope | fields)}
    expected = _selected(registry, reached[0])
    assert [{key: event[key] for key in fields} for event in recorded] \
        == expected
    # a replay happened, the throttle dropped samples, and a series
    # crossed ``sink_every``
    assert reached[0] > 0
    assert len(registry.events) > len(recorded) + reached[0]
    assert max(i.count for i in registry.instruments()) \
        >= registry.sink_every


def test_attach_time_replay_carries_each_sample_own_time():
    from repro.dataflow.context import local_context

    clock = SimulatedClock()
    registry = MetricsRegistry(clock=clock)
    registry.gauge("predicted_peak_bytes", region="user").set(5)
    clock.advance(2.5)
    context = local_context(num_nodes=1)
    context.attach_metrics(registry)
    ledger = context.attach_ledger(RunLedger(clock=clock))
    replayed = {(e["metric"], e["sim_time_s"]) for e in ledger.of("metric")}
    assert ("predicted_peak_bytes", 0.0) in replayed
    assert ("mem_used_bytes", 2.5) in replayed
