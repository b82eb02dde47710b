"""The streaming observability stack: run ledger, Perfetto export,
live progress/ETA, and the declarative SLO gate engine.

The contract under test is the one the CI ``observe`` job exercises
end to end: every observable fact of a run streams into an append-only
``obs/v1`` ledger *as it happens* (so a SIGKILLed driver still leaves
a readable record to the kill point), the ledger replays losslessly
into the live progress monitor and the Chrome trace-event exporter,
and the repo's run-health gates evaluate as declarative SLO rules
against the ``runsum/v1`` record any ledger summarizes to.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.core.api import Vista, default_resources
from repro.data import foods_dataset
from repro.dataflow.context import local_context
from repro.dataflow.table import DistributedTable
from repro.faults import FaultPlan, FaultInjector, equip_context
from repro.metrics import MetricsRegistry
from repro.observe import (
    LEDGER_SCHEMA,
    NULL_LEDGER,
    ProgressState,
    RunLedger,
    SloRule,
    StagePlan,
    chrome_trace,
    evaluate_slo,
    has_breach,
    load_rules,
    predict_stage_plan,
    read_ledger,
    render_progress,
    render_slo,
    summarize_path,
    validate_chrome_trace,
    validate_events,
    write_chrome_trace,
)
from repro.observe.ledger import BARRIER_KINDS, EVENT_KINDS, FLUSH_KINDS
from repro.trace import Tracer

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_RULES = os.path.join(REPO_ROOT, "slo", "default.yaml")


def _make_vista(records=48, layers=2, backend="serial"):
    return Vista(
        model_name="alexnet",
        num_layers=layers,
        dataset=foods_dataset(num_records=records),
        resources=default_resources(num_nodes=2),
        exec_backend=backend,
    )


def _ledgered_run(tmp_path, backend="serial", records=48, layers=2,
                  name="run"):
    """One full ledgered+traced run; returns (ledger_path, events,
    tracer, vista)."""
    path = os.path.join(str(tmp_path), f"{name}.ledger.jsonl")
    vista = _make_vista(records=records, layers=layers, backend=backend)
    tracer = Tracer(name=name)
    ledger = RunLedger(path)
    vista.run(tracer=tracer, ledger=ledger)
    ledger.emit("run_end", status="ok")
    ledger.close()
    return path, list(ledger.events), tracer, vista


# ---------------------------------------------------------------------
# ledger: append discipline, round trip, torn tails
# ---------------------------------------------------------------------
def test_ledger_round_trip(tmp_path):
    path = os.path.join(str(tmp_path), "l.jsonl")
    ledger = RunLedger(path)
    ledger.emit("run_meta", model="alexnet", records=48)
    ledger.emit("wave_start", worker=0, size=4, what="t")
    ledger.emit("wave_end", worker=0, results=4, what="t", status="ok")
    ledger.emit("run_end", status="ok")
    ledger.close()
    events, problems = read_ledger(path)
    assert problems == []
    assert validate_events(events) == []
    assert [e["kind"] for e in events] == [
        "ledger_open", "run_meta", "wave_start", "wave_end", "run_end",
    ]
    # File and memory views agree event for event.
    assert events == ledger.events
    # Envelope invariants.
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    assert all(e["schema"] == LEDGER_SCHEMA for e in events)


def test_ledger_unflushed_events_survive_on_barrier(tmp_path):
    """Group commit: non-barrier events buffer, then land in one write
    at the next flush kind — and never out of order."""
    path = os.path.join(str(tmp_path), "l.jsonl")
    ledger = RunLedger(path)  # ledger_open is a barrier: flushed
    ledger.emit("span_start", name="read", attrs={})
    ledger.emit("metric", metric="x", labels={}, value=1.0)
    on_disk, _ = read_ledger(path)
    assert [e["kind"] for e in on_disk] == ["ledger_open"]
    ledger.emit("wave_start", worker=0, size=1, what="t")  # flush kind
    on_disk, _ = read_ledger(path)
    assert [e["kind"] for e in on_disk] == [
        "ledger_open", "span_start", "metric", "wave_start",
    ]
    ledger.close()


def test_ledger_torn_tail_is_tolerated_interior_is_not(tmp_path):
    path = os.path.join(str(tmp_path), "l.jsonl")
    ledger = RunLedger(path)
    ledger.emit("run_end", status="ok")
    ledger.close()
    with open(path, "ab") as fh:  # simulate a kernel-torn final write
        fh.write(b'{"schema": "obs/v1", "seq": 3, "ki')
    events, problems = read_ledger(path)
    assert len(events) == 2
    assert len(problems) == 1 and problems[0].startswith("torn tail")
    assert validate_events(events) == []
    # The same garbage *inside* the file is a real problem.
    with open(path, "ab") as fh:
        fh.write(b"\n")
        fh.write(json.dumps(ledger.events[-1]).encode() + b"\n")
    _, problems = read_ledger(path)
    assert problems and not problems[0].startswith("torn tail")


def test_reader_contract_at_every_truncation(tmp_path):
    """Cut a recorded ledger anywhere — every 97th byte, and around
    every newline — and the reader still returns a prefix of the full
    event list with at most one ``torn tail`` problem, schema-clean,
    which summarizes as ``torn``/``ok`` or is refused with
    ``ValueError`` when no event survived."""
    path, _, _, _ = _ledgered_run(tmp_path, records=24)
    with open(path, "rb") as fh:
        raw = fh.read()
    full, problems = read_ledger(path)
    assert problems == [] and len(full) > 50
    newlines = [i for i, byte in enumerate(raw) if byte == 0x0A]
    offsets = set(range(0, len(raw), 97)) | {
        cut for i in newlines for cut in (i - 1, i, i + 1)
    }
    cut_path = os.path.join(str(tmp_path), "cut.jsonl")
    for offset in sorted(offsets):
        with open(cut_path, "wb") as fh:
            fh.write(raw[:offset])
        events, problems = read_ledger(cut_path)
        assert events == full[:len(events)], offset
        assert len(problems) <= 1, (offset, problems)
        assert all(p.startswith("torn tail") for p in problems)
        assert validate_events(events) == [], offset
        try:
            record, hashed = summarize_path(cut_path)
        except ValueError:
            assert not events, offset
        else:
            assert hashed == raw[:offset]
            assert record["events"] == len(events)
            assert record["status"] == (
                "ok" if len(events) == len(full) else "torn"), offset


def test_ledger_fork_guard(tmp_path):
    """A forked child inheriting the ledger must not interleave writes
    with the parent: emit() in the child is a no-op."""
    path = os.path.join(str(tmp_path), "l.jsonl")
    ledger = RunLedger(path)
    pid = os.fork()
    if pid == 0:
        ledger.emit("metric", metric="child", labels={}, value=1.0)
        os._exit(0)
    os.waitpid(pid, 0)
    ledger.emit("run_end", status="ok")
    ledger.close()
    events, problems = read_ledger(path)
    assert problems == []
    assert all(e.get("metric") != "child" for e in events)


def test_validate_events_flags_schema_problems():
    good = RunLedger()  # memory-only
    good.emit("run_end", status="ok")
    assert validate_events(good.events) == []
    bad = [
        {"schema": "obs/v0", "seq": 1, "wall_s": 0.0,
         "sim_time_s": 0.0, "kind": "x"},
        {"schema": LEDGER_SCHEMA, "seq": 1, "wall_s": "soon",
         "sim_time_s": 0.0, "kind": ""},
        {"schema": LEDGER_SCHEMA, "seq": 0, "sim_time_s": 0.0,
         "kind": "y"},
    ]
    problems = validate_events(bad)
    assert any("schema" in p for p in problems)
    assert any("wall_s" in p for p in problems)
    assert any("seq" in p for p in problems)
    assert any("missing" in p for p in problems)
    assert any("kind" in p for p in problems)


def test_null_ledger_is_inert():
    assert not NULL_LEDGER.enabled
    assert NULL_LEDGER.emit("run_end", status="ok") is None
    assert len(NULL_LEDGER) == 0 and NULL_LEDGER.count("run_end") == 0
    NULL_LEDGER.flush()
    NULL_LEDGER.close()


def test_barrier_kinds_are_flush_kinds():
    assert BARRIER_KINDS <= FLUSH_KINDS <= EVENT_KINDS


# ---------------------------------------------------------------------
# instrument sinks: tracer, metrics, recovery log
# ---------------------------------------------------------------------
def test_tracer_sink_streams_span_lifecycle():
    ledger = RunLedger()
    tracer = Tracer()
    tracer.sink = ledger
    with tracer.span("outer"):
        with tracer.span("inner") as sp:
            sp.add("k", 1)
        tracer.event("tick", n=2)
    kinds = [(e["kind"], e.get("name")) for e in ledger.events[1:]]
    assert kinds == [
        ("span_start", "outer"),
        ("span_start", "inner"),
        ("span_end", "inner"),
        ("trace_point", "tick"),
        ("span_end", "outer"),
    ]
    ends = [e for e in ledger.events if e["kind"] == "span_end"]
    assert all(e["status"] == "ok" and e["span_s"] >= 0 for e in ends)


def test_metrics_sink_throttles_samples():
    ledger = RunLedger()
    registry = MetricsRegistry()
    registry.sink = ledger
    counter = registry.counter("ticks", owner="driver")
    for _ in range(130):
        counter.inc()
    sampled = [e for e in ledger.events if e["kind"] == "metric"]
    # First sample always lands; then every sink_every-th (64).
    assert len(sampled) == 3
    assert all(e["metric"] == "ticks" for e in sampled)


def _ledger_after_attaching(order):
    """One ``map_blocks`` on a context whose recorders were attached in
    ``order``; returns the ledger."""
    ctx = equip_context(local_context(num_nodes=2, cores_per_node=4))
    recorders = {"tracer": Tracer(), "metrics": MetricsRegistry(),
                 "ledger": RunLedger()}
    for name in order.split():
        getattr(ctx, f"attach_{name}")(recorders[name])
    rows = [{"id": i, "x": np.full(4, i, dtype=np.float32)}
            for i in range(16)]
    table = DistributedTable.from_rows(ctx, rows, 4, name="t_in")
    table.map_blocks(lambda block: block, name="t_out")
    assert ctx.recovery_log.sink is recorders["ledger"]
    return recorders["ledger"]


@pytest.mark.parametrize("order", ["ledger tracer metrics",
                                   "metrics ledger tracer"])
def test_recorders_stream_into_the_ledger_in_any_attach_order(order):
    """Sinks land on the live recorders whichever is attached first,
    and the region budgets ``attach_metrics`` publishes enter the
    ledger exactly once either way."""
    def shape(ledger):
        return sorted(
            (e["kind"], e.get("name") or e.get("metric"),
             str(e.get("labels")))
            for e in ledger.events
        )

    documented = _ledger_after_attaching("tracer metrics ledger")
    ledger = _ledger_after_attaching(order)
    assert ledger.count("span_start") == ledger.count("span_end") > 0
    budgets = [e for e in ledger.of("metric")
               if e["metric"] == "mem_capacity_bytes"]
    # 2 workers + the driver, 5 regions each, once
    assert len(budgets) == 15
    assert len({str(e["labels"]) for e in budgets}) == 15
    assert shape(ledger) == shape(documented)


# ---------------------------------------------------------------------
# end-to-end ledgers from both backends
# ---------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["serial", "process"])
def test_run_ledger_end_to_end(tmp_path, backend):
    path, events, tracer, _ = _ledgered_run(tmp_path, backend=backend)
    parsed, problems = read_ledger(path)
    assert problems == []
    assert validate_events(parsed) == []
    assert parsed == json.loads(json.dumps(events, default=str))
    kinds = {e["kind"] for e in parsed}
    assert {"ledger_open", "span_start", "span_end", "stage_tasks",
            "wave_start", "wave_end", "run_end"} <= kinds
    if backend == "process":
        assert "task_fork" in kinds and "task_collect" in kinds
        forks = [e for e in parsed if e["kind"] == "task_fork"]
        collects = [e for e in parsed if e["kind"] == "task_collect"]
        assert len(forks) == len(collects)
        assert all(e["pid"] != os.getpid() for e in forks)
        assert all(
            {"compute_s", "transfer_bytes", "wait_s"} <= set(e)
            for e in collects
        )
        # Workers are resident for a stage: at most ``cpu`` pids serve
        # it, each forked once (spawn_s > 0) and reused after (== 0).
        cpu = next(
            e["cpu"] for e in parsed if e["kind"] == "optimizer_decision")
        stage_forks = []
        for event in parsed:
            if event["kind"] == "stage_tasks":
                stage_forks.append([])
            elif event["kind"] == "task_fork":
                stage_forks[-1].append(event)
        assert any(len(in_stage) > cpu for in_stage in stage_forks)
        for in_stage in stage_forks:
            pids = {e["pid"] for e in in_stage}
            assert len(pids) <= cpu
            assert sum(e["spawn_s"] > 0 for e in in_stage) == len(pids)
    # Wave accounting: starts and ends pair up per worker/stage.
    starts = [e for e in parsed if e["kind"] == "wave_start"]
    ends = [e for e in parsed if e["kind"] == "wave_end"]
    assert len(starts) == len(ends) > 0
    assert all(e["status"] == "ok" for e in ends)
    # Every stage's committed tasks equal its announced partitions.
    stages = []
    for e in parsed:
        if e["kind"] == "stage_tasks":
            stages.append([e["partitions"], 0])
        elif e["kind"] == "wave_end":
            stages[-1][1] += e["results"]
    assert stages and all(announced == done for announced, done in stages)


def test_backends_emit_equivalent_wave_ledgers(tmp_path):
    """One seeded plan, both backends: the stage/wave story in the
    ledger is identical; only the transport events differ."""
    def story(events):
        out = []
        for e in events:
            if e["kind"] == "stage_tasks":
                out.append(("stage", e["what"], e["partitions"]))
            elif e["kind"] == "wave_end":
                out.append(("wave", e["what"], e["worker"], e["results"],
                            e["status"]))
        return out

    _, serial_events, _, _ = _ledgered_run(
        tmp_path, backend="serial", name="serial")
    _, process_events, _, _ = _ledgered_run(
        tmp_path, backend="process", name="process")
    assert story(serial_events) == story(process_events)


# ---------------------------------------------------------------------
# Perfetto / Chrome trace-event export
# ---------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["serial", "process"])
def test_chrome_trace_from_run_ledger(tmp_path, backend):
    """Satellite: the Perfetto export of a ProcessPoolBackend run has
    one track per resident worker pid, one slice per task it served,
    and those tracks match the driver's wave ledger exactly."""
    path, events, tracer, _ = _ledgered_run(tmp_path, backend=backend)
    doc = chrome_trace(events)
    assert validate_chrome_trace(doc) == []
    trace_events = doc["traceEvents"]
    driver_pid = os.getpid()
    pids = {e["pid"] for e in trace_events}
    forks = [e for e in events if e["kind"] == "task_fork"]
    if backend == "process":
        # One Perfetto track (pid) per distinct worker, each holding
        # exactly the task slices the wave ledger dispatched to it —
        # more than one on a worker that stayed resident.
        child_pids = {e["pid"] for e in forks}
        assert child_pids and child_pids <= pids
        assert len(child_pids) < len(forks)
        for child in child_pids:
            slices = [
                e for e in trace_events
                if e["pid"] == child and e["ph"] == "X"
            ]
            ledger_tasks = sorted(
                f"task p{e['partition']}" for e in forks
                if e["pid"] == child
            )
            assert sorted(e["name"] for e in slices) == ledger_tasks
    else:
        assert not forks and pids == {driver_pid}
    # Wave slices ride the driver's wave-scheduler track.
    wave_slices = [
        e for e in trace_events
        if e["ph"] == "X" and e["name"].startswith("wave w")
    ]
    assert len(wave_slices) == sum(
        1 for e in events if e["kind"] == "wave_start"
    )
    assert all(e["pid"] == driver_pid for e in wave_slices)


def test_chrome_trace_closes_torn_ledger(tmp_path):
    """A killed run's ledger (open spans, unfinished waves and forks)
    still renders: everything open is closed at the last event with
    status 'torn'."""
    ledger = RunLedger()
    ledger.emit("span_start", name="inference:fc7", attrs={})
    ledger.emit("wave_start", worker=0, size=4, what="t_feat")
    ledger.emit("task_fork", pid=4242, partition=3, attempt=1,
                what="t_feat")
    doc = chrome_trace(ledger_events=list(ledger.events))
    assert validate_chrome_trace(doc) == []
    torn = [
        e for e in doc["traceEvents"]
        if e["ph"] == "X" and e.get("args", {}).get("status") == "torn"
    ]
    assert {e["name"] for e in torn} == {
        "inference:fc7", "wave w0", "task p3",
    }


def test_write_chrome_trace_accepts_path_and_ledger(tmp_path):
    path, _, _, _ = _ledgered_run(tmp_path, name="w")
    out = os.path.join(str(tmp_path), "trace.json")
    write_chrome_trace(out, path)
    doc = json.load(open(out))
    assert validate_chrome_trace(doc) == []
    assert doc["traceEvents"]


# ---------------------------------------------------------------------
# progress monitor and ETA
# ---------------------------------------------------------------------
def _run_with_progress(tmp_path, backend="process", records=96,
                       layers=3):
    vista = _make_vista(records=records, layers=layers, backend=backend)
    tracer = Tracer()
    ledger = RunLedger(
        os.path.join(str(tmp_path), "progress.ledger.jsonl"))
    config = vista.optimize()
    stage_plan = predict_stage_plan(
        vista.workload, vista.plan, config, vista.resources,
        backend=vista.backend,
    )
    ledger.emit("stage_plan", plan=vista.plan.label,
                stages=stage_plan.to_list())
    state = ProgressState(stage_plan)
    ledger.listeners.append(state)
    vista.run(tracer=tracer, ledger=ledger)
    ledger.emit("run_end", status="ok")
    ledger.close()
    return state, list(ledger.events), stage_plan


def test_progress_tracks_stages_to_completion(tmp_path):
    state, events, stage_plan = _run_with_progress(tmp_path)
    assert state.run_ended and state.run_status == "ok"
    assert state.stages_done() == len(stage_plan)
    assert state.fraction() == 1.0
    assert state.eta_s() == 0.0
    # Snapshots were taken at every stage completion, monotonically.
    assert len(state.snapshots) == len(stage_plan)
    fractions = [s[1] for s in state.snapshots]
    assert fractions == sorted(fractions)
    rendered = render_progress(state)
    assert "run ok" in rendered


#: One recorded run (4 layers, 96 records, process backend): the
#: ``stage_plan`` event's stages and the ``span_end`` events that close
#: them as ``(name, span_s, wall_s)``, then ``run_end``'s ``wall_s``.
#: ``ProgressState`` reads nothing else of a stream at stage ends.
_RECORDED_STAGES = [
    ("read", 0.702624), ("join", 0.008289),
    ("inference:conv5", 0.518733), ("train:conv5", 23.477372),
    ("inference:fc6", 0.018169), ("train:fc6", 23.477372),
    ("inference:fc7", 0.008289), ("train:fc7", 23.477372),
    ("inference:fc8", 0.008289), ("train:fc8", 23.477372),
]
_RECORDED_SPAN_ENDS = [
    ("read", 0.001431, 0.00593), ("join:broadcast", 0.032504, 0.038667),
    ("inference:conv5", 0.047323, 0.086182),
    ("train:conv5", 0.040415, 0.126869),
    ("inference:fc6", 0.03567, 0.162775), ("train:fc6", 0.031449, 0.194741),
    ("inference:fc7", 0.030156, 0.225028), ("train:fc7", 0.032781, 0.25815),
    ("inference:fc8", 0.03541, 0.293696), ("train:fc8", 0.032441, 0.326457),
]
_RECORDED_RUN_END_WALL_S = 0.327053


def test_halfway_eta_within_2x_of_actual():
    """The ISSUE acceptance bound, as a test: at the first snapshot at
    or past 50% predicted progress, ETA is within 2x either way of the
    wall time actually remaining. Replayed from a recorded stream with
    fixed ``wall_s`` stamps, so machine load cannot move it."""
    state = ProgressState(StagePlan.from_list([
        {"key": key, "matcher": key, "predicted_s": predicted_s}
        for key, predicted_s in _RECORDED_STAGES
    ]))
    for name, span_s, wall_s in _RECORDED_SPAN_ENDS:
        state.on_event({"kind": "span_end", "name": name,
                        "span_s": span_s, "wall_s": wall_s})
    state.on_event({"kind": "run_end", "status": "ok",
                    "wall_s": _RECORDED_RUN_END_WALL_S})
    assert state.stages_done() == len(_RECORDED_STAGES)
    snap = next(s for s in state.snapshots if s[1] >= 0.5)
    wall, _, eta, _ = snap
    actual = _RECORDED_RUN_END_WALL_S - wall
    assert actual > 0
    assert 0.5 <= eta / actual <= 2.0, (
        f"eta {eta:.3f}s vs actual remaining {actual:.3f}s"
    )


def test_progress_replays_from_ledger_file(tmp_path):
    """`repro top` contract: the stage_plan event plus the event
    stream rebuild the exact live state, no tracer or run objects."""
    state, events, _ = _run_with_progress(tmp_path)
    plan_event = next(e for e in events if e["kind"] == "stage_plan")
    replayed = ProgressState(StagePlan.from_list(plan_event["stages"]))
    for event in events:
        replayed.on_event(event)
    assert replayed.stages_done() == state.stages_done()
    assert replayed.fraction() == pytest.approx(state.fraction())
    # Snapshots agree modulo the stage plan's serialized rounding.
    assert len(replayed.snapshots) == len(state.snapshots)
    for live, replay in zip(state.snapshots, replayed.snapshots):
        assert replay[0] == live[0] and replay[3] == live[3]
        assert replay[1] == pytest.approx(live[1], rel=1e-4)
        assert replay[2] == pytest.approx(live[2], rel=1e-4)


def test_stage_plan_round_trip():
    vista = _make_vista()
    config = vista.optimize()
    plan = predict_stage_plan(
        vista.workload, vista.plan, config, vista.resources,
        backend=vista.backend,
    )
    assert len(plan) > 0 and plan.total_predicted_s > 0
    clone = StagePlan.from_list(
        json.loads(json.dumps(plan.to_list())))
    assert clone.to_list() == plan.to_list()


def test_eta_affine_calibration_handles_flat_observed_costs():
    """Mini-scale regression: predictions inside a bucket span orders
    of magnitude while observed cost is flat; the per-bucket affine
    fit must price pending stages near the flat observed cost instead
    of scaling the tiny predictions down to nothing."""
    stages = [
        {"key": "inference:a", "matcher": "inference:a",
         "predicted_s": 1.0},
        {"key": "inference:b", "matcher": "inference:b",
         "predicted_s": 0.04},
        {"key": "inference:c", "matcher": "inference:c",
         "predicted_s": 0.01},
    ]
    state = ProgressState(StagePlan.from_list(stages))
    wall = 0.0
    for name, observed in (("inference:a", 0.05), ("inference:b", 0.05)):
        wall += observed
        state.on_event({"kind": "span_start", "name": name,
                        "wall_s": wall - observed})
        state.on_event({"kind": "span_end", "name": name,
                        "span_s": observed, "wall_s": wall})
    eta = state.eta_s()
    assert 0.025 <= eta <= 0.1, f"eta {eta:.4f}s not near the flat 0.05s"


def test_eta_prices_an_unseen_kind_from_observed_walls():
    """A sub-second run whose train stages the cost model prices at
    21.5 s each: after the read and the first inference stage finished
    in milliseconds, and before any train stage did, the ETA stays
    under a second — not 21.5 s scaled by the ratio the read and the
    inference stage learned."""
    stages = [{"key": "read", "matcher": "read", "predicted_s": 0.005}]
    for layer in ("conv5", "fc6", "fc7"):
        stages += [
            {"key": f"inference:{layer}", "matcher": f"inference:{layer}",
             "predicted_s": 0.01},
            {"key": f"train:{layer}", "matcher": f"train:{layer}",
             "predicted_s": 21.5},
        ]
    state = ProgressState(StagePlan.from_list(stages))
    wall = 0.0
    for name in ("read", "inference:conv5"):
        wall += 0.004
        state.on_event({"kind": "span_end", "name": name,
                        "span_s": 0.004, "wall_s": wall})
    eta = state.eta_s()
    assert 0.0 < eta < 1.0, f"eta {eta:.2f}s for a sub-second run"


# ---------------------------------------------------------------------
# worker_kill chaos: the ledger records the loss as it happens
# ---------------------------------------------------------------------
def test_worker_kill_ledger_within_one_wave(tmp_path):
    """Acceptance: a ProcessPoolBackend task killed mid-wave
    (FaultPlan.worker_kill, a real SIGKILL) leaves a ledger whose loss
    events land inside the wave that died — and the whole ledger
    replays through the SLO engine and the Perfetto exporter."""
    path = os.path.join(str(tmp_path), "kill.ledger.jsonl")
    ctx = local_context(num_nodes=2, cores_per_node=4, cpu=2,
                        exec_backend="process")
    ctx = equip_context(
        ctx,
        injector=FaultInjector(
            FaultPlan().worker_kill(partition=5, phase="start"), seed=0),
    )
    ledger = RunLedger(path)
    ctx.attach_ledger(ledger)
    rows = [
        {"id": i, "x": np.full((4, 4), i, dtype=np.float32)}
        for i in range(24)
    ]
    table = DistributedTable.from_rows(ctx, rows, 8, name="t_in")
    table.map_partitions(
        lambda rs: [{"id": r["id"], "x": r["x"] * 2.0} for r in rs],
        name="t_out",
    )
    ledger.emit("run_end", status="ok")
    ledger.close()

    events, problems = read_ledger(path)
    assert problems == [] and validate_events(events) == []
    kinds = [e["kind"] for e in events]
    # The injected kill is visible three ways, in stream order inside
    # one wave: the fork, the lost collect, the failed wave, then the
    # recovery-log entries the supervisor wrote.
    lost = kinds.index("task_collect")
    collects = [e for e in events if e["kind"] == "task_collect"]
    lost_collects = [
        e for e in collects if e["status"] == "worker-lost"]
    assert len(lost_collects) == 1
    lost_seq = next(
        e["seq"] for e in events
        if e["kind"] == "task_collect" and e["status"] == "worker-lost")
    wave_bounds = [
        e["seq"] for e in events
        if e["kind"] in ("wave_start", "wave_end")]
    # Within one wave: some wave boundary brackets the loss tightly.
    before = max((s for s in wave_bounds if s < lost_seq), default=None)
    after = min((s for s in wave_bounds if s > lost_seq), default=None)
    assert before is not None and after is not None
    failed_wave = next(
        e for e in events
        if e["kind"] == "wave_end" and e["seq"] == after)
    assert failed_wave["status"] == "worker-lost"
    recoveries = [e for e in events if e["kind"] == "recovery"]
    assert {e["event"] for e in recoveries} >= {
        "worker_kill", "worker_lost", "blacklist"}
    # Replayable through the SLO engine...
    verdicts = evaluate_slo(load_rules(DEFAULT_RULES), path)
    assert not has_breach(verdicts)
    # ...and the Perfetto exporter, with the kill's task slice present.
    doc = chrome_trace(ledger_events=events)
    assert validate_chrome_trace(doc) == []
    lost_pid = lost_collects[0]["pid"]
    assert any(e["pid"] == lost_pid for e in doc["traceEvents"])


def test_sigkilled_driver_leaves_readable_ledger(tmp_path):
    """Real driver death: SIGKILL the CLI mid-run and the ledger file
    still parses to the kill point with zero schema problems."""
    path = os.path.join(str(tmp_path), "killed.ledger.jsonl")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", "--records", "96",
         "--nodes", "2", "--model", "alexnet", "--layers", "4",
         "--backend", "process", "--ledger", path],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.time() + 120
        while time.time() < deadline:
            try:
                with open(path, "rb") as fh:
                    if b'"kind":"wave_start"' in fh.read():
                        break
            except FileNotFoundError:
                pass
            assert proc.poll() is None, "run finished before the kill"
            time.sleep(0.01)
        else:
            pytest.fail("never saw a wave_start event")
        os.kill(proc.pid, signal.SIGKILL)
    finally:
        proc.wait()
    events, problems = read_ledger(path)
    assert [p for p in problems if not p.startswith("torn tail")] == []
    assert validate_events(events) == []
    kinds = [e["kind"] for e in events]
    assert "wave_start" in kinds and "run_end" not in kinds
    # Replayable: the torn run still renders as a Chrome trace and
    # passes the SLO gates (completion is a warn, not a breach).
    assert validate_chrome_trace(chrome_trace(ledger_events=events)) == []
    verdicts = evaluate_slo(load_rules(DEFAULT_RULES), path)
    assert not has_breach(verdicts)
    statuses = {v.rule.name: v.status for v in verdicts}
    assert statuses["ledger-run-completed"] == "warn"


# ---------------------------------------------------------------------
# SLO engine
# ---------------------------------------------------------------------
def test_slo_rule_validation():
    with pytest.raises(ValueError):
        SloRule(name="x", metric="results.a", comparator="~=",
                threshold=1.0)
    with pytest.raises(ValueError):
        SloRule(name="x", metric="results.a", comparator=">=",
                threshold=1.0, severity="fatal")
    with pytest.raises(ValueError):
        SloRule(name="x", metric="results.a", comparator=">=",
                threshold=1.0, against="delta")


def test_slo_evaluation_against_record():
    record = {
        "schema": "runsum/v1",
        "problems": {"parse": 0, "schema": 2},
        "stages": {"read": {"wall_s": 3.2}, "join": {"wall_s": 5.1}},
    }
    rules = [
        SloRule(name="floor", metric="stages.*.wall_s",
                comparator=">=", threshold=3.0),
        SloRule(name="budget", metric="problems.parse",
                comparator="<=", threshold=0),
        SloRule(name="absent", metric="problems.nope",
                comparator=">=", threshold=1.0),
        SloRule(name="needed", metric="problems.nope",
                comparator=">=", threshold=1.0, required=True),
        SloRule(name="soft", metric="stages.*.wall_s",
                comparator=">=", threshold=100.0, severity="warn"),
    ]
    verdicts = evaluate_slo(rules, record)
    statuses = {v.rule.name: v.status for v in verdicts}
    assert statuses == {
        "floor": "pass", "budget": "pass", "absent": "skip",
        "needed": "breach", "soft": "warn",
    }
    assert has_breach(verdicts)
    rendered = render_slo(verdicts)
    assert "breach" in rendered and "needed" in rendered


def test_slo_baseline_ratio_and_equal():
    baseline = {
        "stages": {"a": {"sim_s": 2.0}, "b": {"sim_s": 4.0}},
        "knobs": {"plan": "staged/aj", "cpu": 7},
    }
    drifted = {
        "stages": {"a": {"sim_s": 2.1}, "b": {"sim_s": 400.0}},
        "knobs": {"plan": "lazy/aj", "cpu": 7},
    }
    rules = [
        SloRule(name="drift", metric="stages.*.sim_s",
                comparator="<=", threshold=25.0,
                against="baseline-ratio"),
        SloRule(name="exact", metric="knobs.*",
                comparator="<=", threshold=0, against="baseline-equal"),
    ]
    clean = evaluate_slo(rules, baseline, baseline=baseline)
    assert not has_breach(clean)
    dirty = evaluate_slo(rules, drifted, baseline=baseline)
    statuses = {v.rule.name: v.status for v in dirty}
    assert statuses == {"drift": "breach", "exact": "breach"}
    (exact,) = [v for v in dirty if v.rule.name == "exact"]
    assert list(exact.details) == ["plan"]  # names the knob that flipped


def test_ratio_note_is_wrapped_once():
    rule = SloRule(name="r", metric="sim_s", comparator="<=",
                   threshold=1.0, against="baseline-ratio")
    (verdict,) = evaluate_slo([rule], {"sim_s": 1.0},
                              baseline={"sim_s": 1.0})
    assert verdict.note == "target/baseline ratio"
    assert render_slo([verdict]).splitlines()[1].endswith(
        "— value 1 (target/baseline ratio)")


def test_ratio_over_a_glob_with_one_element_names_the_element():
    """A glob keeps its element keys when one element compares, so
    the failing detail names ``total``, not the spec."""
    rule = SloRule(name="r", metric="recovery.*", comparator="<=",
                   threshold=1.0, against="baseline-ratio")
    (verdict,) = evaluate_slo(
        [rule], {"recovery": {"straggler": 1, "total": 1}},
        baseline={"recovery": {"total": 0}})
    assert verdict.status == "breach"
    assert verdict.details == {"total": float("inf")}
    assert "           total: inf" in render_slo([verdict])


def test_equal_rule_without_shared_elements_honours_required():
    rules = [SloRule(name=name, metric="knobs.*", comparator="<=",
                     threshold=0, against="baseline-equal",
                     required=required)
             for name, required in (("soft", False), ("hard", True))]
    verdicts = evaluate_slo(rules, {"knobs": {"cpu": 7}},
                            baseline={"knobs": {"plan": "lazy"}})
    assert {v.rule.name: v.status for v in verdicts} == {
        "soft": "skip", "hard": "breach"}
    assert verdicts[1].note == "no shared elements with baseline (required)"


def test_default_ruleset_loads_and_self_gates(tmp_path):
    """The committed ruleset parses (flat-YAML, no PyYAML installed)
    and one recorded file clears all of it: with a twin run's ledger
    as the baseline every value and baseline rule passes (only the
    trend rules, which read a history window, skip), and a baseline
    whose recorded ``optimizer_decision`` differs breaches
    ``exact-plan-choice``."""
    rules = load_rules(DEFAULT_RULES)
    assert [r.name for r in rules if r.against != "trend"] == [
        "exact-plan-choice", "ledger-no-parse-errors",
        "ledger-no-schema-problems", "ledger-run-completed",
        "stage-sim-growth", "stage-status-stable", "recovery-growth",
        "memory-within-budget",
    ]
    run_a, run_b = (os.path.join(str(tmp_path), name)
                    for name in ("twin_a.jsonl", "twin_b.jsonl"))
    for ledger in (run_a, run_b):
        assert _cli("run", "--records", "48", "--nodes", "2", "--model",
                    "alexnet", "--layers", "2", "--metrics",
                    "--ledger", ledger) == 0

    def statuses(baseline):
        return {v.rule.name: v.status
                for v in evaluate_slo(rules, run_b, baseline=baseline)}

    assert statuses(run_a) == {
        r.name: "skip" if r.against == "trend" else "pass" for r in rules}
    assert statuses(None)["exact-plan-choice"] == "skip"  # needs a twin
    edited = os.path.join(str(tmp_path), "edited.jsonl")
    events, _ = read_ledger(run_a)
    with open(edited, "w") as fh:
        for event in events:
            if event["kind"] == "optimizer_decision":
                event["cpu"] += 1
            fh.write(json.dumps(event) + "\n")
    assert statuses(edited) == {**statuses(run_a),
                                "exact-plan-choice": "breach"}


def test_one_line_ledger_is_judged_not_skipped(tmp_path):
    """A driver killed right after ``ledger_open`` leaves one line —
    itself one JSON object. It is a ledger, and the rule whose whole
    point is that run must warn on it, not skip."""
    path = os.path.join(str(tmp_path), "one.jsonl")
    RunLedger(path).close()
    with open(path) as fh:
        assert len(fh.read().splitlines()) == 1
    judged = {v.rule.name: v.status
              for v in evaluate_slo(load_rules(DEFAULT_RULES), path)
              if v.status != "skip"}  # no baseline, no history given
    assert judged == {
        "ledger-no-parse-errors": "pass",
        "ledger-no-schema-problems": "pass",
        "ledger-run-completed": "warn",
    }


def test_load_rules_json_and_yaml_agree(tmp_path):
    yaml_rules = load_rules(DEFAULT_RULES)
    as_json = os.path.join(str(tmp_path), "rules.json")
    with open(as_json, "w") as fh:
        json.dump(
            {"rules": [vars(r) for r in yaml_rules]}, fh, default=str)
    assert load_rules(as_json) == yaml_rules


# ---------------------------------------------------------------------
# CLI: run/resume parity, top, report --slo
# ---------------------------------------------------------------------
def _cli(*argv):
    from repro.cli import main
    return main(list(argv))


def test_cli_run_and_resume_share_observability_flags():
    """Satellite: resume registers the identical observability flag
    set as run, via the one shared helper."""
    from repro.cli import build_parser
    parser = build_parser()
    subparsers = next(
        a for a in parser._actions
        if isinstance(a, type(parser._subparsers._group_actions[0])))
    flag_names = {}
    for name in ("run", "resume"):
        sub = subparsers.choices[name]
        flag_names[name] = {
            o for a in sub._actions for o in a.option_strings
            if o in ("--trace", "--trace-json", "--metrics",
                     "--metrics-json", "--progress", "--ledger",
                     "--perfetto")
        }
    assert flag_names["run"] == flag_names["resume"] == {
        "--trace", "--trace-json", "--metrics", "--metrics-json",
        "--progress", "--ledger", "--perfetto",
    }


def test_cli_run_writes_ledger_and_perfetto(tmp_path, capsys):
    ledger = os.path.join(str(tmp_path), "run.ledger.jsonl")
    perfetto = os.path.join(str(tmp_path), "run.perfetto.json")
    rc = _cli("run", "--records", "48", "--nodes", "2", "--model",
              "alexnet", "--layers", "2", "--progress",
              "--ledger", ledger, "--perfetto", perfetto)
    assert rc == 0
    out = capsys.readouterr().out
    assert "progress:" in out
    events, problems = read_ledger(ledger)
    assert problems == [] and validate_events(events) == []
    assert {"run_meta", "stage_plan", "optimizer_decision",
            "run_end"} <= {e["kind"] for e in events}
    doc = json.load(open(perfetto))
    assert validate_chrome_trace(doc) == []


def test_cli_top_renders_and_validates(tmp_path, capsys):
    ledger = os.path.join(str(tmp_path), "run.ledger.jsonl")
    assert _cli("run", "--records", "48", "--nodes", "2", "--model",
                "alexnet", "--layers", "2", "--ledger", ledger) == 0
    capsys.readouterr()
    assert _cli("top", ledger) == 0
    out = capsys.readouterr().out
    assert "run ok" in out
    assert _cli("top", ledger, "--validate") == 0
    # Corrupt an interior line: --validate must now fail.
    lines = open(ledger, "rb").read().split(b"\n")
    lines[1] = b"{not json"
    with open(ledger, "wb") as fh:
        fh.write(b"\n".join(lines))
    capsys.readouterr()
    assert _cli("top", ledger, "--validate") == 1


def test_cli_top_shows_the_lanes_each_model_trained_on(tmp_path, capsys):
    """Each train stage reads the lanes its ``downstream:<layer>`` span
    was opened with — the run's ``cpu`` — and no other stage any."""
    ledger = os.path.join(str(tmp_path), "run.ledger.jsonl")
    assert _cli("run", "--records", "48", "--nodes", "2", "--model",
                "alexnet", "--layers", "2", "--ledger", ledger) == 0
    capsys.readouterr()
    events, _ = read_ledger(ledger)
    (cpu,) = {e["attrs"]["lanes"] for e in events
              if e["kind"] == "span_start"
              and e["name"].startswith("downstream:")}
    assert _cli("top", ledger) == 0
    rows = {line.split()[0]: line.endswith(f"| done ({cpu} lanes)")
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ") and "|" in line}
    assert rows == {stage: stage.startswith("train:") for stage in rows}
    assert sum(rows.values()) == 2


def test_cli_report_slo_exit_codes(tmp_path, capsys):
    ledger = os.path.join(str(tmp_path), "run.ledger.jsonl")
    assert _cli("run", "--records", "48", "--nodes", "2", "--model",
                "alexnet", "--layers", "2", "--ledger", ledger) == 0
    assert _cli("report", "--slo", DEFAULT_RULES, ledger) == 0
    out = capsys.readouterr().out
    assert "0 breach" in out
    # A breaching ruleset exits 1.
    breaching = os.path.join(str(tmp_path), "strict.json")
    with open(breaching, "w") as fh:
        json.dump({"rules": [{
            "name": "impossible", "metric": "events_by_kind.run_end",
            "comparator": ">=", "threshold": 99,
        }]}, fh)
    assert _cli("report", "--slo", breaching, ledger) == 1
    # --slo without a target is a usage error.
    assert _cli("report", "--slo", DEFAULT_RULES) == 2
    # A target that is not a ledger: exit 2 and one line, no traceback.
    capsys.readouterr()
    readme = os.path.join(REPO_ROOT, "README.md")
    assert _cli("report", "--slo", DEFAULT_RULES, readme) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "not an obs/v1 ledger" in captured.err


def test_cli_resume_accepts_ledger(tmp_path):
    ckpt = os.path.join(str(tmp_path), "ckpts")
    ledger = os.path.join(str(tmp_path), "resume.ledger.jsonl")
    assert _cli("run", "--records", "48", "--nodes", "2", "--model",
                "alexnet", "--layers", "2",
                "--checkpoint-dir", ckpt) == 0
    assert _cli("resume", "--records", "48", "--nodes", "2", "--model",
                "alexnet", "--layers", "2", "--checkpoint-dir", ckpt,
                "--ledger", ledger) == 0
    events, problems = read_ledger(ledger)
    assert problems == [] and validate_events(events) == []
    assert any(e["kind"] == "run_end" for e in events)
