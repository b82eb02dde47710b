"""Unit tests for the span-based tracer and its ASCII renderer."""

import json

import pytest

from repro.faults.clock import SimulatedClock
from repro.report import render_trace
from repro.trace import NULL_TRACER, NullTracer, Span, Tracer


# ----------------------------------------------------------------------
# span tree construction
# ----------------------------------------------------------------------
def test_span_nesting():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner-1"):
            tracer.add("rows", 10)
        with tracer.span("inner-2", kind="join"):
            tracer.add("rows", 5)
    root = tracer.finish()
    assert [s.name for s in root.walk()] == [
        "trace", "outer", "inner-1", "inner-2",
    ]
    assert outer.children[1].attrs == {"kind": "join"}
    assert root.total("rows") == 15


def test_current_span_tracks_stack():
    tracer = Tracer()
    assert tracer.current is tracer.root
    with tracer.span("a") as a:
        assert tracer.current is a
        with tracer.span("b") as b:
            assert tracer.current is b
        assert tracer.current is a
    assert tracer.current is tracer.root


def test_counters_accumulate_and_attrs_overwrite():
    span = Span("s")
    span.add("bytes", 100)
    span.add("bytes", 50)
    span.set("join", "shuffle")
    span.set("join", "broadcast")
    assert span.counters["bytes"] == 150
    assert span.attrs["join"] == "broadcast"


def test_exception_marks_error_status():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError("nope")
    span = tracer.root.children[0]
    assert span.status == "error:ValueError"
    assert span.wall_s is not None
    assert tracer.current is tracer.root  # stack unwound


def test_find_prefix_match_and_find_all():
    tracer = Tracer()
    with tracer.span("inference:fc7"):
        pass
    with tracer.span("inference:fc8"):
        pass
    root = tracer.finish()
    assert root.find("inference").name == "inference:fc7"
    assert root.find("inference:fc8").name == "inference:fc8"
    assert root.find("nothing") is None
    assert len(root.find_all("inference")) == 2


# ----------------------------------------------------------------------
# simulated clock determinism
# ----------------------------------------------------------------------
def _simulated_trace():
    clock = SimulatedClock()
    tracer = Tracer(clock=clock)
    with tracer.span("stage-1"):
        clock.advance(1.5)
        tracer.event("spill", bytes=100)
    clock.advance(0.5)
    with tracer.span("stage-2"):
        clock.advance(2.0)
    return tracer.export()


def test_sim_timestamps_are_deterministic():
    first, second = _simulated_trace(), _simulated_trace()

    def sim_view(node):
        return {
            "name": node["name"],
            "sim_start_s": node["sim_start_s"],
            "sim_end_s": node["sim_end_s"],
            "events": node["events"],
            "children": [sim_view(c) for c in node["children"]],
        }

    assert sim_view(first) == sim_view(second)
    stage1 = first["children"][0]
    assert stage1["sim_start_s"] == 0.0
    assert stage1["sim_end_s"] == 1.5
    assert stage1["events"][0]["sim_time_s"] == 1.5
    stage2 = first["children"][1]
    assert stage2["sim_start_s"] == 2.0
    assert stage2["sim_end_s"] == 4.0


# ----------------------------------------------------------------------
# export
# ----------------------------------------------------------------------
def test_export_round_trips_through_json():
    tracer = Tracer()
    with tracer.span("work", plan="staged/aj"):
        tracer.add("rows", 7)
    exported = tracer.export()
    parsed = json.loads(json.dumps(exported))
    assert parsed == exported
    work = parsed["children"][0]
    assert work["attrs"]["plan"] == "staged/aj"
    assert work["counters"]["rows"] == 7
    assert work["wall_offset_s"] >= 0.0
    assert parsed["wall_offset_s"] == 0.0  # root is its own epoch


# ----------------------------------------------------------------------
# null tracer
# ----------------------------------------------------------------------
def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    assert isinstance(NULL_TRACER, NullTracer)
    with NULL_TRACER.span("anything", attr=1) as span:
        span.add("rows", 5)
        span.set("k", "v")
        NULL_TRACER.add("rows")
        NULL_TRACER.set("k", "v")
        NULL_TRACER.event("e")
    NULL_TRACER.record_op("conv1", 0.5)
    assert NULL_TRACER.export() is None
    assert span.counters == {}
    assert span.attrs == {}


def test_null_span_swallows_exceptions_transparently():
    with pytest.raises(RuntimeError):
        with NULL_TRACER.span("x"):
            raise RuntimeError("must propagate")


# ----------------------------------------------------------------------
# renderer
# ----------------------------------------------------------------------
def _sample_trace():
    tracer = Tracer()
    with tracer.span("workload", plan="staged/aj"):
        with tracer.span("read"):
            tracer.add("bytes_images", 2 * 1024 * 1024)
        with tracer.span("inference:fc7"):
            tracer.add("rows", 40)
            tracer.record_op("conv1", 0.002)
        tracer.set("sizing", {
            "fc7": {"estimated_bytes": 2048, "measured_bytes": 1024},
        })
        tracer.event("degrade", step="join:broadcast->shuffle")
    return tracer


def test_render_trace_from_span_tracer_and_dict():
    tracer = _sample_trace()
    from_tracer = render_trace(tracer)
    from_dict = render_trace(tracer.export())
    assert from_tracer == from_dict
    assert "workload" in from_tracer
    assert "plan=staged/aj" in from_tracer
    assert "2.0MB" in from_tracer                # human bytes
    assert "~ sizing fc7" in from_tracer         # estimate vs measured
    assert "x2.00" in from_tracer                # est/meas ratio
    assert "* degrade" in from_tracer            # events
    assert "per-operator CNN time:" in from_tracer
    assert "conv1" in from_tracer


def test_render_trace_marks_error_spans():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("bad"):
            raise ValueError()
    text = render_trace(tracer)
    assert "!error:ValueError" in text


def test_render_trace_none():
    assert render_trace(None) == "(no trace recorded)"
