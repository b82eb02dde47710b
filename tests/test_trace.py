"""Unit tests for the span tracer, its one pairing, and the renderer."""

import json

import pytest

from repro.core.api import Vista, default_resources
from repro.data import foods_dataset
from repro.faults.clock import SimulatedClock
from repro.observe.ledger import RunLedger
from repro.report import render_trace
from repro.trace import NULL_TRACER, NullTracer, Tracer, spans_from_events


def _by_name(spans, name):
    return next(span for span in spans if span["name"] == name)


# ----------------------------------------------------------------------
# span records
# ----------------------------------------------------------------------
def test_span_nesting():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner-1"):
            tracer.add("rows", 10)
        with tracer.span("inner-2", kind="join"):
            tracer.add("rows", 5)
    spans = tracer.export()
    assert [(s["name"], s["depth"]) for s in spans] == [
        ("trace", 0), ("outer", 1), ("inner-1", 2), ("inner-2", 2),
    ]
    assert _by_name(spans, "inner-2")["path"] == "trace/outer/inner-2"
    assert _by_name(spans, "inner-2")["attrs"] == {"kind": "join"}
    assert sum(s["counters"].get("rows", 0) for s in spans) == 15


def test_current_span_tracks_stack():
    tracer = Tracer()
    tracer.add("n")                   # the root is current
    with tracer.span("a") as a:
        tracer.add("n")
        with tracer.span("b") as b:
            tracer.add("n", 2)
            assert b.counters == {"n": 2}
        tracer.set("after_b", True)   # back on a
        assert a.counters == {"n": 1}
    tracer.add("n", 10)               # back on the root
    spans = tracer.export()
    assert [s["counters"] for s in spans] == [
        {"n": 11}, {"n": 1}, {"n": 2},
    ]
    assert _by_name(spans, "a")["attrs"] == {"after_b": True}


def test_counters_accumulate_and_attrs_overwrite():
    tracer = Tracer()
    with tracer.span("s") as span:
        span.add("bytes", 100)
        span.add("bytes", 50)
        span.set("join", "shuffle")
        span.set("join", "broadcast")
    record = _by_name(tracer.export(), "s")
    assert record["counters"]["bytes"] == 150
    assert record["attrs"]["join"] == "broadcast"


def test_exception_marks_error_status():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            raise ValueError("nope")
    with tracer.span("next"):
        pass
    spans = tracer.export()
    assert spans[1]["status"] == "error:ValueError"
    assert spans[1]["wall_s"] >= 0.0
    assert spans[2]["depth"] == 1     # stack unwound: a root child


def test_a_span_whose_start_cannot_be_recorded_never_opens():
    """A sink whose ``span_start`` emit raises (a ledger flush hitting
    ENOSPC) must not leave the span on the stack."""
    class FailingSink:
        def __init__(self):
            self.kinds = []

        def emit(self, kind, **fields):
            if kind == "span_start" and fields["name"] == "a":
                raise OSError(28, "No space left on device")
            self.kinds.append(kind)

    tracer = Tracer()
    tracer.sink = FailingSink()
    with pytest.raises(OSError):
        with tracer.span("a"):
            pass
    with tracer.span("b"):
        tracer.add("rows")
    spans = tracer.export()
    assert [(s["name"], s["depth"], s["status"]) for s in spans] == [
        ("trace", 0, "ok"), ("b", 1, "ok"),
    ]
    assert spans[1]["counters"] == {"rows": 1}
    assert tracer.sink.kinds == ["span_start", "span_end"]


def test_a_span_life_reads_back_from_its_record():
    clock = SimulatedClock()
    tracer = Tracer(clock=clock, name="run")
    with tracer.span("stage", plan="staged") as span:
        clock.advance(1.0)
        span.add("rows", 3)
        span.set("join", "shuffle")
        tracer.event("spill", bytes=64)
        clock.advance(0.5)
    with pytest.raises(KeyError):
        with tracer.span("bad"):
            clock.advance(0.25)
            raise KeyError("x")
    with tracer.span("open") as live:
        live.add("rows", 1)
        clock.advance(2.0)
        tracer.event("tick")
        spans = tracer.export()
    root, stage, bad, running = spans
    assert root["name"] == "run" and root["status"] == "ok"
    assert stage == {
        **stage,
        "status": "ok", "counters": {"rows": 3},
        "attrs": {"plan": "staged", "join": "shuffle"},
        "events": [{"event": "spill", "sim_time_s": 1.0, "bytes": 64}],
        "sim_start_s": 0.0, "sim_end_s": 1.5, "sim_s": 1.5,
    }
    assert (bad["status"], bad["sim_start_s"], bad["sim_end_s"]) == (
        "error:KeyError", 1.5, 1.75,
    )
    assert running["status"] == "running"
    assert running["counters"] == {"rows": 1}   # read live
    assert running["events"] == [{"event": "tick", "sim_time_s": 3.75}]
    assert (running["sim_start_s"], running["sim_end_s"]) == (1.75, 3.75)
    assert root["sim_end_s"] == 3.75
    # the opening attrs stay what the span_start event carried
    assert tracer.events[1]["attrs"] == {"plan": "staged"}


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

    def sim_view(spans):
        return [
            (s["name"], s["depth"], s["sim_start_s"], s["sim_end_s"],
             s["events"])
            for s in spans
        ]

    assert sim_view(first) == sim_view(second)
    stage1 = first[1]
    assert stage1["sim_start_s"] == 0.0
    assert stage1["sim_end_s"] == 1.5
    assert stage1["events"][0]["sim_time_s"] == 1.5
    stage2 = first[2]
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
    work = parsed[1]
    assert work["attrs"]["plan"] == "staged/aj"
    assert work["counters"]["rows"] == 7
    assert work["start_wall_s"] >= 0.0
    assert parsed[0]["start_wall_s"] == 0.0  # root is its own epoch


# ----------------------------------------------------------------------
# the one pairing: a live trace and its ledger agree
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["threads", "process"])
def test_tracer_and_ledger_pair_into_the_same_spans(backend):
    tracer, ledger = Tracer(name="root"), RunLedger()
    Vista(
        model_name="alexnet", num_layers=2,
        dataset=foods_dataset(num_records=24),
        resources=default_resources(num_nodes=2), exec_backend=backend,
    ).run(tracer=tracer, ledger=ledger)

    traced = {span["path"]: span for span in tracer.export()}
    recorded = spans_from_events(ledger.events)
    opened = [e for e in tracer.events if e["kind"] == "span_start"]
    # the ledger holds neither the root nor the pre-attach optimize span
    assert set(traced) - {f"root/{s['path']}" for s in recorded} == {
        "root", "root/optimize",
    }
    assert len(recorded) > 10
    for span in recorded:
        twin = traced[f"root/{span['path']}"]
        assert (twin["name"], twin["depth"], twin["status"]) == (
            span["name"], span["depth"] + 1, span["status"],
        )
        assert opened[twin["start_seq"] - 1]["attrs"] == span["attrs"]
    # the ledger's span events keep their fields
    envelope = {"schema", "seq", "wall_s", "sim_time_s", "kind", "name"}
    assert {frozenset(e) for e in ledger.of("span_end")} == {
        frozenset(envelope | {"status", "span_s"}),
    }
    assert {frozenset(e) for e in ledger.of("span_start")} == {
        frozenset(envelope | {"attrs"}),
    }


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
    assert type(span).__slots__ == ()     # nowhere to keep anything
    assert NULL_TRACER.span("other") is span


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
    from_records = render_trace(json.loads(json.dumps(tracer.export())))
    assert from_tracer == from_records
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
