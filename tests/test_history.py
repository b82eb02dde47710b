"""The run-history warehouse: runsum/v1 summarization, the
content-addressed :class:`HistoryStore`, span-aligned profile diffs,
and robust-z drift timelines.

The contract under test is the CI ``history`` job's: any obs/v1 ledger
— including a torn one a SIGKILLed driver left behind — summarizes
into one ``runsum/v1`` record and joins the timeline, and a file that
is not a ledger is refused, never stored; ingest is idempotent by
construction (run ids are content hashes); twin runs diff with zero
breaches while an injected straggler is flagged both by ``history
diff`` (deterministic sim-second growth against the baseline) and by
``history trend`` (robust z over the window) — both judged by the one
SLO engine. The judges that engine replaced live on at the bottom of
this file as oracles.
"""

import builtins
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cnn import build_model
from repro.core.api import Vista, default_resources
from repro.core.config import VistaConfig
from repro.core.executor import FeatureTransferExecutor
from repro.core.plans import STAGED
from repro.data import foods_dataset
from repro.dataflow.context import ClusterContext
from repro.exceptions import UserMemoryExceeded
from repro.faults.clock import SimulatedClock
from repro.memory.model import GB, MemoryBudget, Region
from repro.metrics import MetricsRegistry
from repro.faults import FaultInjector, FaultPlan, equip_context
from repro.observe import (
    HistoryStore,
    RUNSUM_SCHEMA,
    RunLedger,
    SloRule,
    diff_runs,
    environment_meta,
    evaluate_slo,
    has_breach,
    load_rules,
    read_ledger,
    run_fingerprint,
    spans_from_events,
    summarize_ledger,
)
from repro.observe.history import summarize_path
from repro.observe.slo import (
    resolve_path,
    robust_scale,
    trend_key,
    trend_series,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_RULES = os.path.join(REPO_ROOT, "slo", "default.yaml")

#: The four committed rules that replaced ``history diff``'s
#: hard-coded regression tiers.
DIFF_RULE_NAMES = ("stage-sim-growth", "stage-status-stable",
                   "recovery-growth", "memory-within-budget")


def _rules(*names):
    by_name = {rule.name: rule for rule in load_rules(DEFAULT_RULES)}
    return [by_name[name] for name in names]


def _statuses(verdicts):
    return {v.rule.name: v.status for v in verdicts}


# ---------------------------------------------------------------------
# synthetic ledgers with controlled wall/sim offsets
# ---------------------------------------------------------------------
def _event(kind, seq, wall_s, sim_s=0.0, **fields):
    return {"schema": "obs/v1", "seq": seq, "wall_s": wall_s,
            "sim_time_s": sim_s, "kind": kind, **fields}


def _write_ledger(path, straggle_s=0.0, extra=(), run_end="ok",
                  meta=None):
    """One deterministic synthetic run: workload with two stage
    children, explicit wall/sim offsets (``emit`` honors field
    overrides), optional straggler sim seconds on the join stage."""
    clock = SimulatedClock()
    ledger = RunLedger(path, clock=clock, fsync_barriers=False)
    ledger.emit("run_meta", fingerprint="feedfacefeedface",
                **(meta or {"model": "alexnet", "records": 48}))
    ledger.emit("optimizer_decision", plan="staged/aj", cpu=7,
                join="broadcast")
    ledger.emit("span_start", name="workload", attrs={}, wall_s=0.0)
    ledger.emit("span_start", name="read", attrs={}, wall_s=0.0)
    ledger.emit("span_end", name="read", status="ok", span_s=0.010,
                wall_s=0.010)
    ledger.emit("span_start", name="join", attrs={}, wall_s=0.010)
    if straggle_s:
        clock.advance(straggle_s)
        ledger.emit("recovery", event="straggler", partition=1,
                    delay_s=straggle_s)
    ledger.emit("span_end", name="join", status="ok", span_s=0.020,
                wall_s=0.030)
    for emit_args in extra:
        ledger.emit(*emit_args[:1], **emit_args[1])
    ledger.emit("span_end", name="workload", status="ok", span_s=0.040,
                wall_s=0.040)
    if run_end:
        ledger.emit("run_end", status=run_end, wall_s=0.041)
    ledger.close()
    return path


def _summarize_file(path):
    events, problems = read_ledger(path)
    return summarize_ledger(events, problems, source=path)


# ---------------------------------------------------------------------
# span reconstruction from the flat event stream
# ---------------------------------------------------------------------
def test_spans_from_events_nesting_paths_and_self_time():
    events = [
        _event("span_start", 1, 0.0, name="a"),
        _event("span_start", 2, 1.0, name="b"),
        _event("span_end", 3, 3.0, name="b", status="ok", span_s=2.0),
        _event("span_start", 4, 3.0, name="b"),
        _event("span_end", 5, 4.0, name="b", status="ok", span_s=1.0),
        _event("span_end", 6, 5.0, name="a", status="ok", span_s=5.0),
    ]
    spans = spans_from_events(events)
    assert [s["path"] for s in spans] == ["a", "a/b", "a/b@2"]
    assert [s["depth"] for s in spans] == [0, 1, 1]
    by_path = {s["path"]: s for s in spans}
    assert by_path["a"]["wall_s"] == pytest.approx(5.0)
    # self time = own wall minus direct children (2.0 + 1.0).
    assert by_path["a"]["self_s"] == pytest.approx(2.0)
    assert by_path["a/b@2"]["wall_s"] == pytest.approx(1.0)
    assert all(s["status"] == "ok" for s in spans)


def test_spans_from_events_unclosed_span_closes_torn():
    events = [
        _event("span_start", 1, 0.0, name="workload"),
        _event("span_start", 2, 1.0, name="join"),
        _event("trace_point", 3, 4.0, label="last sign of life"),
    ]
    spans = spans_from_events(events)
    by_path = {s["path"]: s for s in spans}
    assert by_path["workload/join"]["status"] == "torn"
    assert by_path["workload/join"]["wall_s"] == pytest.approx(3.0)
    assert by_path["workload"]["status"] == "torn"
    assert by_path["workload"]["wall_s"] == pytest.approx(4.0)


def test_spans_from_events_mismatched_end_pops_inner_as_torn():
    events = [
        _event("span_start", 1, 0.0, name="a"),
        _event("span_start", 2, 1.0, name="b"),
        _event("span_end", 3, 2.0, name="a", status="ok", span_s=2.0),
    ]
    spans = spans_from_events(events)
    by_path = {s["path"]: s for s in spans}
    assert by_path["a/b"]["status"] == "torn"
    assert by_path["a"]["status"] == "ok"
    # An end with no matching open frame is ignored, not crashed on.
    assert spans_from_events(
        [_event("span_end", 1, 1.0, name="ghost", status="ok")]
    ) == []


# ---------------------------------------------------------------------
# summarization: ledgers, torn ledgers
# ---------------------------------------------------------------------
def test_summarize_ledger_full_record(tmp_path):
    path = _write_ledger(
        os.path.join(str(tmp_path), "a.jsonl"),
        extra=[
            ("metric", {"metric": "mem_used_bytes",
                        "labels": {"worker": "w0", "region": "cache"},
                        "value": 100.0}),
            ("metric", {"metric": "mem_used_bytes",
                        "labels": {"worker": "w0", "region": "cache"},
                        "value": 900.0}),
            ("metric", {"metric": "mem_capacity_bytes",
                        "labels": {"worker": "w0", "region": "cache"},
                        "value": 500.0}),
        ],
    )
    record = _summarize_file(path)
    assert record["schema"] == RUNSUM_SCHEMA
    assert record["kind"] == "ledger"
    assert record["status"] == "ok"
    assert record["fingerprint"] == "feedfacefeedface"
    assert record["meta"]["model"] == "alexnet"
    assert record["knobs"]["join"] == "broadcast"
    # Stage keys: depth-0 spans plus workload children, prefix-stripped.
    assert set(record["stages"]) == {"workload", "read", "join"}
    assert record["stages"]["join"]["wall_s"] == pytest.approx(0.020)
    # Memory block: peak vs budget, over-budget flagged.
    region = record["memory"]["w0/cache"]
    assert region["peak_bytes"] == pytest.approx(900.0)
    assert region["budget_bytes"] == pytest.approx(500.0)
    assert region["over_budget"] is True
    peaks = record["metrics"]
    assert peaks["mem_used_bytes{region=cache,worker=w0}"] == 900.0
    assert record["recovery"] == {"total": 0}
    assert record["parse_problems"] == []


def test_summarize_ledger_without_run_end_is_torn_not_rejected(tmp_path):
    path = _write_ledger(os.path.join(str(tmp_path), "t.jsonl"),
                         run_end=None)
    record = _summarize_file(path)
    assert record["status"] == "torn"
    assert record["stages"]  # the spans to the tear still summarize


def test_summarize_ledger_counts_recovery_events(tmp_path):
    path = _write_ledger(os.path.join(str(tmp_path), "s.jsonl"),
                         straggle_s=12.5)
    record = _summarize_file(path)
    assert record["recovery"] == {"straggler": 1, "total": 1}
    assert record["sim_s"] == pytest.approx(12.5)
    assert record["stages"]["join"]["sim_s"] == pytest.approx(12.5)


def test_summarize_ledger_holds_facts_only(tmp_path):
    """A record is what the run did, never a verdict on it: verdicts
    are computed on demand by whichever front end reads the record."""
    path = _write_ledger(os.path.join(str(tmp_path), "a.jsonl"))
    record = _summarize_file(path)
    assert "slo" not in record
    store = HistoryStore(os.path.join(str(tmp_path), "store"))
    assert "slo" not in store.ingest(path)[0]


def test_sigkilled_driver_ledger_summarizes_as_torn(tmp_path):
    """The satellite edge case end to end: SIGKILL a real driver
    mid-run and the torn ledger it leaves still ingests into the
    warehouse with status ``"torn"`` — never rejected."""
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
    store = HistoryStore(os.path.join(str(tmp_path), "store"))
    record, created = store.ingest(path)
    assert created
    assert record["status"] == "torn"
    assert record["events"] > 0
    # The enriched run_meta made it in before the kill (barrier fsync).
    assert record["meta"]["env"]["python"]
    assert record["fingerprint"]
    # And the torn run joins list/diff/trend like any other.
    assert store.run_ids() == [record["run_id"]]


# ---------------------------------------------------------------------
# the store: idempotent ingest, torn tails, self-healing index
# ---------------------------------------------------------------------
def test_ingest_is_idempotent_by_content(tmp_path):
    path = _write_ledger(os.path.join(str(tmp_path), "a.jsonl"))
    store = HistoryStore(os.path.join(str(tmp_path), "store"))
    record, created = store.ingest(path)
    again, created_again = store.ingest(path)
    assert created and not created_again
    assert again["run_id"] == record["run_id"]
    assert len(store) == 1
    # One index line, not two.
    with open(store.index_path) as handle:
        assert len(handle.read().strip().splitlines()) == 1


def test_ingest_torn_tail_ledger_file(tmp_path):
    path = _write_ledger(os.path.join(str(tmp_path), "a.jsonl"))
    with open(path, "ab") as handle:
        handle.write(b'{"schema":"obs/v1","seq":99,"wal')  # torn write
    store = HistoryStore(os.path.join(str(tmp_path), "store"))
    record, created = store.ingest(path)
    assert created
    assert record["status"] == "ok"  # run_end landed before the tear
    assert len(record["parse_problems"]) == 1
    assert "torn tail" in record["parse_problems"][0]


def test_ingest_summarizes_exactly_the_bytes_it_hashed(
    tmp_path, monkeypatch
):
    """A ledger still being appended to: whatever lands after the
    ingest's read must not leak into the record — the run id addresses
    one set of bytes and the summary describes the same set."""
    path = _write_ledger(os.path.join(str(tmp_path), "live.jsonl"))
    with open(path, "rb") as handle:
        original = handle.read()
    late_line = json.dumps(
        _event("trace_point", 99, 0.05, name="late")
    ).encode() + b"\n"
    opens = []
    real_open = builtins.open

    def appending_open(file, *args, **kwargs):
        if file == path:
            if opens:  # a writer got in between two reads of the file
                with real_open(path, "ab") as handle:
                    handle.write(late_line)
            opens.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", appending_open)
    store = HistoryStore(os.path.join(str(tmp_path), "store"))
    record, created = store.ingest(path)
    assert created and len(opens) == 1
    assert record["run_id"] == hashlib.sha256(original).hexdigest()[:16]
    assert record["events"] == len(original.splitlines())


_RUN_ENVELOPE = {"schema": "trace/v2", "bench": "run", "params": {},
                 "results": {}, "trace": None, "metrics": None}


@pytest.mark.parametrize("content", [
    "# not a run\n\nplain text, no JSON line in it\n",
    json.dumps(_RUN_ENVELOPE, indent=2, sort_keys=True),
    json.dumps(_RUN_ENVELOPE),  # one line: parses, but is no obs/v1 event
    "",
], ids=["text", "envelope-indented", "envelope-one-line", "empty"])
def test_ingest_refuses_a_file_that_is_not_a_ledger(
    content, tmp_path, capsys
):
    path = tmp_path / "stray"
    path.write_text(content)
    store = HistoryStore(str(tmp_path / "store"))
    with pytest.raises(ValueError, match="not an obs/v1 ledger"):
        store.ingest(str(path))
    assert main(["history", "--store", store.root, "ingest",
                 str(path)]) == 2
    assert "not an obs/v1 ledger" in capsys.readouterr().err
    assert len(store) == 0
    assert not os.path.exists(store.root)


def test_index_self_heals_orphan_records(tmp_path):
    a = _write_ledger(os.path.join(str(tmp_path), "a.jsonl"))
    b = _write_ledger(os.path.join(str(tmp_path), "b.jsonl"),
                      straggle_s=1.0)
    store = HistoryStore(os.path.join(str(tmp_path), "store"))
    id_a = store.ingest(a)[0]["run_id"]
    id_b = store.ingest(b)[0]["run_id"]
    # A crash between record write and index append leaves an orphan:
    # simulate the worst case by deleting the whole index.
    os.remove(store.index_path)
    assert store.run_ids() == [id_a, id_b]  # ingested_seq order
    # A torn index tail (partial last line, no newline) is tolerated.
    store.ingest(a)  # rewrite the index
    with open(store.index_path, "ab") as handle:
        handle.write(b'{"run_id":"deadbeef')
    assert id_a in store.run_ids() and id_b in store.run_ids()


def test_short_writes_lose_no_ledger_event_or_index_line(
    tmp_path, monkeypatch
):
    """``write`` may take fewer bytes than it was given: the ledger's
    group commit and the index append finish the rest, not drop it."""
    real_write = os.write
    monkeypatch.setattr(
        os, "write", lambda fd, data: real_write(fd, data[:7])
    )
    path = str(tmp_path / "run.jsonl")
    ledger = RunLedger(path)
    ledger.emit("stage_start", stage="infer")
    ledger.emit("run_end", status="ok")
    ledger.close()
    events, problems = read_ledger(path)
    assert problems == []
    assert [e["kind"] for e in events] == [
        "ledger_open", "stage_start", "run_end"
    ]
    store = HistoryStore(str(tmp_path / "store"))
    record, _ = store.ingest(path)
    assert [e["run_id"] for e in store._read_index()] == [record["run_id"]]


def test_resolve_run_references(tmp_path):
    a = _write_ledger(os.path.join(str(tmp_path), "a.jsonl"))
    b = _write_ledger(os.path.join(str(tmp_path), "b.jsonl"),
                      straggle_s=1.0)
    store = HistoryStore(os.path.join(str(tmp_path), "store"))
    id_a = store.ingest(a)[0]["run_id"]
    id_b = store.ingest(b)[0]["run_id"]
    assert store.resolve("@0") == id_a
    assert store.resolve("@-1") == id_b
    assert store.resolve(id_a[:8]) == id_a
    with pytest.raises(KeyError):
        store.resolve("zzzzzzzz")
    with pytest.raises(KeyError):
        store.resolve("@7")
    shared = os.path.commonprefix([id_a, id_b])
    if shared:
        with pytest.raises(ValueError):
            store.resolve(shared)
    empty = HistoryStore(os.path.join(str(tmp_path), "empty"))
    with pytest.raises(KeyError):
        empty.resolve("@0")


# ---------------------------------------------------------------------
# environment fingerprint
# ---------------------------------------------------------------------
def test_environment_meta_shape():
    env = environment_meta()
    assert env["python"] and env["machine"]
    assert env["cpu_count"] >= 1
    assert env["repo_dirty"] in (True, False, None)
    assert env["schemas"]["ledger"] == "obs/v1"
    assert env["schemas"]["summary"] == RUNSUM_SCHEMA


def test_run_fingerprint_is_order_insensitive():
    meta = {"model": "alexnet", "records": 48,
            "env": {"python": "3.11.7", "cpu_count": 8}}
    flipped = {"env": {"cpu_count": 8, "python": "3.11.7"},
               "records": 48, "model": "alexnet"}
    assert run_fingerprint(meta) == run_fingerprint(flipped)
    assert len(run_fingerprint(meta)) == 16
    assert run_fingerprint(meta) != run_fingerprint(
        {**meta, "records": 96}
    )


def test_cli_run_emits_enriched_run_meta(tmp_path, capsys):
    path = os.path.join(str(tmp_path), "run.jsonl")
    assert main(["run", "--model", "alexnet", "--records", "24",
                 "--nodes", "2", "--ledger", path]) == 0
    capsys.readouterr()
    events, _ = read_ledger(path)
    meta = next(e for e in events if e["kind"] == "run_meta")
    assert meta["fingerprint"]
    assert meta["resumed"] is False
    assert meta["env"]["python"] == environment_meta()["python"]
    assert meta["env"]["schemas"]["summary"] == RUNSUM_SCHEMA
    assert meta["exec_backend"] == "threads"


# ---------------------------------------------------------------------
# span-aligned diffs
# ---------------------------------------------------------------------
def test_twin_runs_diff_with_zero_regressions(tmp_path):
    a, b = (_summarize_file(_write_ledger(os.path.join(str(tmp_path), name)))
            for name in ("a.jsonl", "b.jsonl"))
    diff = diff_runs(a, b)
    assert diff["matched"] == 3
    assert diff["new"] == diff["vanished"] == 0
    assert diff["fingerprint_match"] is True
    assert diff["knob_changes"] == {}
    verdicts = evaluate_slo(load_rules(DEFAULT_RULES), b, baseline=a)
    assert not has_breach(verdicts)
    assert {_statuses(verdicts)[name] for name in DIFF_RULE_NAMES} == {
        "pass", "skip"}  # no memory gauges in these ledgers


def test_straggler_diff_flags_sim_and_recovery_regressions(tmp_path):
    a = _write_ledger(os.path.join(str(tmp_path), "a.jsonl"))
    b = _write_ledger(os.path.join(str(tmp_path), "b.jsonl"),
                      straggle_s=12.5)
    clean, straggler = _summarize_file(a), _summarize_file(b)
    diff = diff_runs(clean, straggler)
    assert diff["recovery_deltas"]["straggler"] == {"base": 0,
                                                    "target": 1}
    verdicts = {v.rule.name: v for v in evaluate_slo(
        _rules(*DIFF_RULE_NAMES), straggler, baseline=clean)}
    # Any sim growth regresses, at any magnitude — the straggler's 12.5
    # sim seconds land on join and on the workload that encloses it.
    sim = verdicts["stage-sim-growth"]
    assert sim.status == "breach"
    assert set(sim.details) == {"workload", "join"}
    recovery = verdicts["recovery-growth"]
    assert recovery.status == "breach"
    assert set(recovery.details) == {"total"}
    # The reverse direction (straggler -> clean) is an improvement.
    reverse = evaluate_slo(_rules(*DIFF_RULE_NAMES), clean,
                           baseline=straggler)
    assert not has_breach(reverse)


def test_diff_reports_new_vanished_spans_and_knob_changes():
    base = {
        "run_id": "aaa", "fingerprint": "f1", "status": "ok",
        "knobs": {"join": "broadcast"},
        "spans": [{"path": "workload", "name": "workload", "depth": 0,
                   "start_seq": 1, "wall_s": 1.0, "self_s": 1.0,
                   "sim_s": 0.0, "status": "ok"},
                  {"path": "workload/old", "name": "old", "depth": 1,
                   "start_seq": 2, "wall_s": 0.5, "self_s": 0.5,
                   "sim_s": 0.0, "status": "ok"}],
    }
    target = {
        "run_id": "bbb", "fingerprint": "f2", "status": "ok",
        "knobs": {"join": "shuffle"},
        "meta": {"records": 96},
        "spans": [{"path": "workload", "name": "workload", "depth": 0,
                   "start_seq": 1, "wall_s": 1.0, "self_s": 1.0,
                   "sim_s": 0.0, "status": "ok"},
                  {"path": "workload/new", "name": "new", "depth": 1,
                   "start_seq": 2, "wall_s": 0.5, "self_s": 0.5,
                   "sim_s": 0.0, "status": "ok"}],
    }
    diff = diff_runs(base, target)
    assert diff["matched"] == 1 and diff["new"] == 1
    assert diff["vanished"] == 1
    assert diff["fingerprint_match"] is False
    assert diff["knob_changes"]["join"] == {"base": "broadcast",
                                            "target": "shuffle"}
    assert "regressions" not in diff  # the diff reports, rules judge


def test_diff_flags_status_downgrade_and_new_over_budget():
    base = {"stages": {"w": {"sim_s": 0.0, "status": "ok"}},
            "memory": {"w0/cache": {"peak_bytes": 100.0,
                                    "budget_bytes": 500.0,
                                    "over_budget": False}}}
    target = {"stages": {"w": {"sim_s": 0.0, "status": "error:boom"}},
              "memory": {"w0/cache": {"peak_bytes": 600.0,
                                      "budget_bytes": 500.0,
                                      "over_budget": True}}}
    verdicts = evaluate_slo(_rules(*DIFF_RULE_NAMES), target,
                            baseline=base)
    assert {name for name, status in _statuses(verdicts).items()
            if status == "breach"} == {"stage-status-stable",
                                       "memory-within-budget"}


# ---------------------------------------------------------------------
# trend rules and change-point detection
# ---------------------------------------------------------------------
def test_resolve_trend_metric_scalar_glob_and_absent(tmp_path):
    path = _write_ledger(os.path.join(str(tmp_path), "a.jsonl"),
                         straggle_s=2.0)
    record = _summarize_file(path)
    assert resolve_path(record, "wall_s") == record["wall_s"]
    # Mid-path glob fans out to one element per matched stage.
    sims = resolve_path(record, "stages.*.sim_s")
    assert set(sims) == {"workload", "read", "join"}
    assert sims["join"] == pytest.approx(2.0)
    assert resolve_path(record, "no.such.path") is None
    assert resolve_path(record, "recovery.total") == 1


def test_robust_scale_floors():
    # Constant series: MAD is zero, the 5%-of-median floor holds.
    assert robust_scale([10.0, 10.0, 10.0]) == pytest.approx(0.5)
    # All-zero series: the epsilon keeps z finite.
    assert robust_scale([0.0, 0.0, 0.0]) == pytest.approx(1e-9)
    # Genuine spread: the MAD term dominates.
    assert robust_scale([1.0, 2.0, 3.0, 4.0, 100.0]) == pytest.approx(
        1.4826
    )


def _trend_rule(name, metric, comparator="<=", threshold=3.5, **kw):
    return SloRule(name=name, metric=metric, comparator=comparator,
                   threshold=threshold, against="trend", **kw)


def _timeline(paths):
    """Summaries in ingest order, each with the run id a store gives."""
    records = [_summarize_file(path) for path in paths]
    for position, record in enumerate(records):
        record["run_id"] = f"r{position}"
    return records


def test_trend_flags_straggler_and_passes_twins(tmp_path):
    paths = [
        _write_ledger(os.path.join(str(tmp_path), f"r{i}.jsonl"),
                      straggle_s=0.0)
        for i in range(3)
    ]
    paths.append(_write_ledger(os.path.join(str(tmp_path), "s.jsonl"),
                               straggle_s=12.5))
    records = _timeline(paths)
    rules = [_trend_rule("stage-sim-drift", "stages.*.sim_s"),
             _trend_rule("recovery-burst", "recovery.total")]
    clean = evaluate_slo(rules, history=records[:3])
    assert _statuses(clean) == {"stage-sim-drift": "pass",
                                "recovery-burst": "pass"}
    verdicts = evaluate_slo(rules, history=records)
    assert has_breach(verdicts)
    flagged = {(v.rule.name, key) for v in verdicts for key in v.details}
    # Every flag points at the straggler run, never the twins.
    assert flagged == {
        ("stage-sim-drift", trend_key("join", "r3")),
        ("stage-sim-drift", trend_key("workload", "r3")),
        ("recovery-burst", trend_key("recovery.total", "r3")),
    }


def test_trend_min_runs_skips_short_series(tmp_path):
    paths = [_write_ledger(os.path.join(str(tmp_path), f"r{i}.jsonl"))
             for i in range(2)]
    (verdict,) = evaluate_slo([_trend_rule("w", "wall_s")],
                              history=_timeline(paths))
    assert verdict.status == "skip"
    assert verdict.note == "no series of 3+ runs; skipped"
    # Judged only when given a history at all; required says so.
    (no_history,) = evaluate_slo(
        [_trend_rule("w", "wall_s", required=True)],
        target=_timeline(paths)[0])
    assert no_history.status == "breach"
    assert no_history.note == "no history (required)"


def test_trend_last_window_and_absent_metrics(tmp_path):
    straggler = _write_ledger(os.path.join(str(tmp_path), "s.jsonl"),
                              straggle_s=9.0)
    twins = [_write_ledger(os.path.join(str(tmp_path), f"r{i}.jsonl"))
             for i in range(3)]
    records = _timeline([straggler] + twins)
    rule = _trend_rule("rec", "recovery.total")
    assert _statuses(evaluate_slo([rule], history=records)) == {
        "rec": "breach"}
    # Windowed to the last 3 runs, the old straggler ages out.
    assert _statuses(evaluate_slo([rule], history=records[-3:])) == {
        "rec": "pass"}
    # A record without the metric is skipped, not treated as zero.
    series = trend_series(
        records + [{"run_id": "x"}], "recovery.total"
    )
    assert len(series[""]) == 4


def test_trend_rule_validation():
    assert _trend_rule("r", "wall_s").against == "trend"
    with pytest.raises(ValueError):
        SloRule(name="r", metric="wall_s", comparator="<=",
                threshold=3.5, against="sideways")
    with pytest.raises(ValueError):
        _trend_rule("r", "wall_s", severity="meh")


# ---------------------------------------------------------------------
# the ruleset file: one `rules:` list
# ---------------------------------------------------------------------
def test_default_ruleset_trend_rules_load():
    by_name = {rule.name: rule for rule in load_rules(DEFAULT_RULES)
               if rule.against == "trend"}
    assert list(by_name) == [
        "stage-sim-drift", "recovery-burst", "memory-peak-drift",
        "calibration-drift-high", "calibration-drift-low", "wall-drift"]
    assert all(rule.threshold == 3.5 or rule.threshold == -3.5
               for rule in by_name.values())
    assert by_name["wall-drift"].severity == "warn"
    # `direction: both` is two one-tailed rules.
    high, low = (by_name["calibration-drift-high"],
                 by_name["calibration-drift-low"])
    assert (high.comparator, high.threshold) == ("<=", 3.5)
    assert (low.comparator, low.threshold) == (">=", -3.5)
    assert high.severity == low.severity == "warn"


def test_load_rules_rejects_a_history_scope(tmp_path):
    """Oracle (c): the second YAML scope is gone; a file that still
    carries one fails loudly rather than losing its trend rules."""
    path = os.path.join(str(tmp_path), "rules.yaml")
    with open(path, "w") as handle:
        handle.write(
            "rules:\n"
            "  - name: ok\n"
            "    metric: status\n"
            "    comparator: \"!=\"\n"
            "    threshold: torn\n"
            "history:\n"
            "  - name: stage-sim-drift\n"
            "    metric: stages.*.sim_s\n"
            "    threshold: 3.5\n"
        )
    with pytest.raises(ValueError, match="history"):
        load_rules(path)
    as_json = os.path.join(str(tmp_path), "rules.json")
    with open(as_json, "w") as handle:
        json.dump({"rules": [], "history": []}, handle)
    with pytest.raises(ValueError, match="history"):
        load_rules(as_json)


def test_scoped_yaml_parser_headerless_entries_default_to_rules(
    tmp_path,
):
    path = os.path.join(str(tmp_path), "rules.yaml")
    with open(path, "w") as handle:
        handle.write(
            "# comment\n"
            "- name: top-level\n"
            "  metric: wall_s\n"
            "  comparator: <=\n"
            "  threshold: 4.0\n"
            "  against: trend\n"
        )
    (rule,) = load_rules(path)
    assert (rule.name, rule.threshold, rule.against) == (
        "top-level", 4.0, "trend")


# ---------------------------------------------------------------------
# crest-preserving metric sink (the 1-in-64 throttle fix)
# ---------------------------------------------------------------------
def test_gauge_crest_survives_sink_throttle(tmp_path):
    """A one-sample memory spike between throttle points must reach
    the ledger: watermark-setting samples bypass the 1-in-64 gate."""
    path = os.path.join(str(tmp_path), "m.jsonl")
    ledger = RunLedger(path, fsync_barriers=False)
    registry = MetricsRegistry()
    registry.sink = ledger
    gauge = registry.gauge("mem_used_bytes", worker="w0",
                           region="cache")
    gauge.set(100.0)
    for _ in range(30):
        gauge.set(100.0)  # throttled: steady state
    gauge.set(9999.0)     # the mid-run spike, sample #32 of 64
    for _ in range(30):
        gauge.set(100.0)
    ledger.emit("run_end", status="ok")
    ledger.close()
    events, _ = read_ledger(path)
    values = [e["value"] for e in events if e.get("kind") == "metric"]
    assert 9999.0 in values
    # Crests stream, steady-state samples stay throttled.
    assert len(values) < 10
    # And the spike survives all the way into the history summary.
    record = summarize_ledger(events, source=path)
    assert record["memory"]["w0/cache"]["peak_bytes"] == 9999.0
    assert record["metrics"][
        "mem_used_bytes{region=cache,worker=w0}"
    ] == 9999.0


def test_gauge_low_watermark_also_streams(tmp_path):
    path = os.path.join(str(tmp_path), "m.jsonl")
    ledger = RunLedger(path, fsync_barriers=False)
    registry = MetricsRegistry()
    registry.sink = ledger
    gauge = registry.gauge("queue_depth")
    gauge.set(50.0)
    for _ in range(20):
        gauge.set(50.0)
    gauge.set(1.0)  # new low watermark mid-window
    ledger.close()
    events, _ = read_ledger(path)
    values = [e["value"] for e in events if e.get("kind") == "metric"]
    assert 1.0 in values


# ---------------------------------------------------------------------
# region budgets: published before the ledger is attached
# ---------------------------------------------------------------------
def test_region_budgets_reach_the_ledger_and_the_record(tmp_path, capsys):
    """``attach_metrics`` publishes the region budgets before
    ``attach_ledger`` gives the registry its sink; the attach itself
    must carry them over, or every summary reads ``budget —``."""
    path = os.path.join(str(tmp_path), "run.jsonl")
    vista = Vista(model_name="alexnet", num_layers=2,
                  dataset=foods_dataset(num_records=24),
                  resources=default_resources(num_nodes=2))
    context = vista.build_context()
    ledger = RunLedger(path)
    vista.run(context=context, metrics=MetricsRegistry(), ledger=ledger)
    ledger.emit("run_end", status="ok")
    ledger.close()
    record, _ = summarize_path(path)
    budget = context.workers[0].accountant.capacity(Region.USER)
    region = record["memory"]["w0/user"]
    assert region["budget_bytes"] == budget > 0
    assert region["over_budget"] is False
    store_dir = os.path.join(str(tmp_path), "store")
    assert main(["history", "--store", store_dir, "ingest", path]) == 0
    assert main(["history", "--store", store_dir, "show", "@0"]) == 0
    (shown,) = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("  mem w0/user")]
    assert "—" not in shown and "OVER BUDGET" not in shown


def test_run_past_its_budget_summarizes_over_budget(tmp_path):
    path = os.path.join(str(tmp_path), "crash.jsonl")
    budget = MemoryBudget(
        system_bytes=32 * GB, os_reserved_bytes=0, user_bytes=10_000,
        core_bytes=GB, storage_bytes=GB, dl_bytes=GB, driver_bytes=GB,
    )
    context = ClusterContext(budget, num_nodes=2, cores_per_node=4, cpu=4)
    config = VistaConfig(
        cpu=4, num_partitions=8, mem_storage_bytes=0, mem_user_bytes=0,
        mem_dl_bytes=0, join="shuffle", persistence="deserialized",
    )
    ledger = RunLedger(path)
    executor = FeatureTransferExecutor(
        context, build_model("alexnet", profile="mini"),
        foods_dataset(num_records=24), ["fc7", "fc8"], config,
        downstream_fn=lambda f, l: {}, metrics=MetricsRegistry(),
        ledger=ledger,
    )
    with pytest.raises(UserMemoryExceeded):
        executor.run(STAGED)
    ledger.close()
    memory = summarize_path(path)[0]["memory"]
    over = {key for key, region in memory.items()
            if region["over_budget"]}
    assert over and all(key.endswith("/user") for key in over)
    assert all(memory[key]["budget_bytes"] == 10_000 for key in over)


# ---------------------------------------------------------------------
# the CLI surface and its exit codes
# ---------------------------------------------------------------------
def _store_with_three_runs(tmp_path):
    store_dir = os.path.join(str(tmp_path), "store")
    paths = [
        _write_ledger(os.path.join(str(tmp_path), "a.jsonl")),
        _write_ledger(os.path.join(str(tmp_path), "b.jsonl")),
        _write_ledger(os.path.join(str(tmp_path), "c.jsonl"),
                      straggle_s=12.5),
    ]
    assert main(["history", "--store", store_dir, "ingest"] + paths) == 0
    return store_dir


def test_cli_history_ingest_list_show(tmp_path, capsys):
    store_dir = _store_with_three_runs(tmp_path)
    out = capsys.readouterr().out
    assert out.count("ingested ") == 3
    assert main(["history", "--store", store_dir, "list"]) == 0
    out = capsys.readouterr().out
    assert "3 run(s)" in out
    assert "12.500" in out  # the straggler's sim seconds
    assert main(["history", "--store", store_dir, "show", "@-1"]) == 0
    out = capsys.readouterr().out
    assert "straggler=1" in out
    assert "join" in out
    # The verdict counts are judged on demand, on the target alone.
    assert "  slo         0 breach, 0 warn, 3 pass, " in out
    # Re-ingest is idempotent and says so.
    assert main(["history", "--store", store_dir, "ingest",
                 os.path.join(str(tmp_path), "a.jsonl")]) == 0
    assert "already ingested" in capsys.readouterr().out


def test_cli_history_diff_exit_codes(tmp_path, capsys):
    store_dir = _store_with_three_runs(tmp_path)
    capsys.readouterr()
    # Twins: exit 0, nothing breached.
    assert main(["history", "--store", store_dir, "diff",
                 "@0", "@1"]) == 0
    assert "  0 breach, 0 warn, " in capsys.readouterr().out
    # Twin vs straggler: exit 1, the breached rule and stage named.
    assert main(["history", "--store", store_dir, "diff",
                 "@1", "@2"]) == 1
    out = capsys.readouterr().out
    assert "[breach] stage-sim-growth" in out
    assert "           join: inf" in out
    # Unknown run: exit 2.
    assert main(["history", "--store", store_dir, "diff",
                 "@0", "zzzz"]) == 2


def test_cli_history_trend_gate(tmp_path, capsys):
    store_dir = _store_with_three_runs(tmp_path)
    capsys.readouterr()
    # The straggler is judged without a flag: exit 1, the drift named.
    assert main(["history", "--store", store_dir, "trend"]) == 1
    out = capsys.readouterr().out
    assert "3 run(s), 3 flag(s)" in out
    assert "[breach] stage-sim-drift" in out
    # Windowed to the two twins, no series is long enough to judge.
    assert main(["history", "--store", store_dir, "trend",
                 "--last", "2"]) == 0
    # `history --rules` swaps the ruleset: a warn-only one reports.
    rules = os.path.join(str(tmp_path), "warn.json")
    with open(rules, "w") as handle:
        json.dump([{"name": "sim", "metric": "sim_s",
                    "comparator": "<=", "threshold": 3.5,
                    "severity": "warn", "against": "trend"}], handle)
    capsys.readouterr()
    assert main(["history", "--store", store_dir, "--rules", rules,
                 "trend"]) == 0
    assert "0 breach, 1 warn" in capsys.readouterr().out
    # A ruleset that does not load: exit 2.
    assert main(["history", "--store", store_dir, "--rules",
                 os.path.join(str(tmp_path), "nope.yaml"), "trend"]) == 2


def test_cli_history_empty_store_exit_codes(tmp_path, capsys):
    store_dir = os.path.join(str(tmp_path), "void")
    assert main(["history", "--store", store_dir, "list"]) == 2
    assert main(["history", "--store", store_dir, "diff",
                 "@0", "@1"]) == 2
    assert main(["history", "--store", store_dir, "trend"]) == 2
    assert main(["history", "--store", store_dir, "show", "@0"]) == 2
    err = capsys.readouterr().err
    assert "empty" in err
    # Ingesting a missing file: exit 2, not a traceback.
    assert main(["history", "--store", store_dir, "ingest",
                 os.path.join(str(tmp_path), "nope.jsonl")]) == 2


def test_cli_inject_straggler_end_to_end(tmp_path, capsys):
    """The controlled drift source: a real run with an injected
    straggler leaves deterministic sim seconds and a recovery event
    in its ledger — exactly what diff and trend key on."""
    path = os.path.join(str(tmp_path), "s.jsonl")
    assert main(["run", "--model", "alexnet", "--records", "24",
                 "--nodes", "2", "--ledger", path,
                 "--inject-straggler", "1:7.5"]) == 0
    capsys.readouterr()
    events, _ = read_ledger(path)
    recoveries = [e for e in events if e["kind"] == "recovery"]
    assert any(e.get("event") == "straggler" for e in recoveries)
    assert max(e["sim_time_s"] for e in events) >= 7.5
    record = summarize_ledger(events, source=path)
    assert record["recovery"].get("straggler", 0) >= 1
    assert record["sim_s"] >= 7.5
    with pytest.raises(SystemExit):
        main(["run", "--model", "alexnet", "--records", "24",
              "--inject-straggler", "not-a-spec"])


# ---------------------------------------------------------------------
# oracles: the judges the SLO engine replaced, kept to check it
# ---------------------------------------------------------------------
def _old_status_rank(status):
    if status == "ok":
        return 0
    return 2 if str(status).startswith("error") else 1  # torn & co


def _old_diff_regressions(base, target):
    """The regression tiers ``diff_runs`` hard-coded before the four
    diff rules replaced them: ``(tier, key)`` for sim growth or a
    status downgrade on any aligned span, a recovery kind whose count
    grew, a memory region newly over its budget."""
    found = set()
    base_spans = {span["path"]: span for span in base.get("spans", ())}
    for span in target.get("spans", ()):
        old = base_spans.get(span["path"])
        if old is None:
            continue
        if round(span["sim_s"] - old["sim_s"], 9) > 1e-9:
            found.add(("sim", span["path"]))
        if _old_status_rank(span["status"]) > _old_status_rank(
                old["status"]):
            found.add(("status", span["path"]))
    base_recovery = base.get("recovery") or {}
    target_recovery = target.get("recovery") or {}
    for key in set(base_recovery) | set(target_recovery):
        if key != "total" and (int(target_recovery.get(key) or 0)
                               > int(base_recovery.get(key) or 0)):
            found.add(("recovery", key))
    base_memory = base.get("memory") or {}
    for key, region in (target.get("memory") or {}).items():
        if region.get("over_budget") and not (
                base_memory.get(key) or {}).get("over_budget"):
            found.add(("memory", key))
    return found


#: The documented differences of the four rules from the old tiers
#: (DESIGN.md §4l), by which side alone flags them.
_OLD_ONLY = {"nested span", "recovery kind swap"}
_NEW_ONLY = {"any status change", "over budget in both runs"}


def _intended_differences(base, target):
    found = set()
    stage_paths = {span["path"] for span in target.get("spans", ())
                   if span["depth"] == 0 or (
                       span["depth"] == 1
                       and span["path"].startswith("workload/"))}
    total_grew = ((target.get("recovery") or {}).get("total", 0)
                  > (base.get("recovery") or {}).get("total", 0))
    for tier, key in _old_diff_regressions(base, target):
        if tier in ("sim", "status") and key not in stage_paths:
            found.add("nested span")
        if tier == "recovery" and not total_grew:
            found.add("recovery kind swap")
    base_stages = base.get("stages") or {}
    for key, stage in (target.get("stages") or {}).items():
        old = base_stages.get(key)
        if old and old["status"] != stage["status"] and (
                _old_status_rank(stage["status"])
                <= _old_status_rank(old["status"])):
            found.add("any status change")
    base_memory = base.get("memory") or {}
    for key, region in (target.get("memory") or {}).items():
        if region.get("over_budget") and (
                base_memory.get(key) or {}).get("over_budget"):
            found.add("over budget in both runs")
    return found


def _diff_exits(base, target):
    """``(old exit, new exit)`` for one pair; asserts that a pair on
    which they disagree hits an intended difference of the right
    side."""
    old = bool(_old_diff_regressions(base, target))
    new = has_breach(evaluate_slo(_rules(*DIFF_RULE_NAMES), target,
                                  baseline=base))
    if old != new:
        intended = _intended_differences(base, target)
        assert intended & (_OLD_ONLY if old else _NEW_ONLY), (
            old, new, intended, _old_diff_regressions(base, target))
    return int(old), int(new)


def test_diff_rules_match_the_old_tiers_on_the_golden_pairs(tmp_path):
    """Oracle (a), golden pairs: the same exit verdict, no exception."""
    def record(name, **kwargs):
        return _summarize_file(
            _write_ledger(os.path.join(str(tmp_path), name), **kwargs))

    clean, twin = record("a.jsonl"), record("b.jsonl")
    straggler = record("c.jsonl", straggle_s=12.5)
    torn = record("t.jsonl", run_end=None)
    over = record("o.jsonl", extra=[
        ("metric", {"metric": name, "value": value,
                    "labels": {"worker": "w0", "region": "cache"}})
        for name, value in (("mem_used_bytes", 900.0),
                            ("mem_capacity_bytes", 500.0))])
    pairs = [(clean, twin), (twin, straggler), (clean, torn),
             (clean, over), (straggler, clean)]
    assert [_diff_exits(base, target) for base, target in pairs] == [
        (0, 0), (1, 1), (0, 0), (1, 1), (0, 0)]


@pytest.fixture(scope="module")
def fault_plan_runs(tmp_path_factory):
    """One traced, ledgered serial run per :class:`FaultPlan` — clean,
    straggler, task retries, worker loss — summarized."""
    from repro.trace import Tracer

    root = tmp_path_factory.mktemp("faults")
    plans = {
        "clean": None,
        "straggler": FaultPlan().straggler(partition=1, delay_s=5.0),
        "retry": FaultPlan().task_crash(partition=2),
        "retries": FaultPlan().task_crash(partition=0).task_oom(
            partition=3),
        "worker-loss": FaultPlan().worker_loss(worker=1),
    }
    records = {}
    for name, plan in plans.items():
        vista = Vista(model_name="alexnet", num_layers=2,
                      dataset=foods_dataset(num_records=24),
                      resources=default_resources(num_nodes=2))
        context = vista.build_context()
        if plan is not None:
            context = equip_context(
                context, injector=FaultInjector(plan, seed=0))
        path = str(root / f"{name}.jsonl")
        ledger = RunLedger(path)
        vista.run(context=context, tracer=Tracer(), ledger=ledger)
        ledger.emit("run_end", status="ok")
        ledger.close()
        records[name] = _summarize_file(path)
    return records


def test_diff_rules_match_the_old_tiers_on_fault_plan_runs(
        fault_plan_runs):
    """Oracle (a), real faults: every ordered pair of runs agrees or
    differs only as documented — and a fault is always caught against
    the clean run."""
    exits = {(a, b): _diff_exits(fault_plan_runs[a], fault_plan_runs[b])
             for a in fault_plan_runs for b in fault_plan_runs if a != b}
    for name in fault_plan_runs:
        if name != "clean":
            assert exits[("clean", name)] == (1, 1), name
            assert exits[(name, "clean")] == (0, 0), name
    # A straggler swapped for a retry at the same total: the old tier
    # flagged the new kind; the rules judge the shared kinds and total.
    assert exits[("straggler", "retry")] == (1, 0)


_SIM = st.sampled_from([0.0, 0.5, 2.0])
_STAGE = st.tuples(
    _SIM,  # sim seconds inside the stage's nested task span
    _SIM,  # sim seconds in the stage outside it
    st.sampled_from(["ok", "ok", "error:boom"]),
    st.sampled_from([None, "ok", "error:boom"]),  # None: no task span
)
_RUN = st.fixed_dictionaries({
    "stages": st.tuples(_STAGE, _STAGE, _STAGE),
    "recovery": st.lists(st.sampled_from(
        ["straggler", "task_retry", "worker_lost"]), max_size=3),
    "peak": st.sampled_from([None, 100.0, 900.0]),
    "run_end": st.booleans(),
    "cut": st.integers(0, 3),  # events lost to a torn tail
})


def _synthetic_record(run):
    """Summarize one generated run: three stages under ``workload``,
    each optionally with a nested ``task`` span, the recovery events,
    a ``w0/user`` gauge against a 500-byte budget, and the last
    ``cut`` events torn off."""
    events = []
    clock = {"wall": 0.0, "sim": 0.0}

    def emit(kind, **fields):
        clock["wall"] += 0.001
        events.append(_event(kind, len(events) + 1, clock["wall"],
                             clock["sim"], **fields))

    emit("run_meta", fingerprint="feedfacefeedface", model="alexnet")
    emit("span_start", name="workload", attrs={})
    for name, (task_sim, own_sim, status, task_status) in zip(
            ("read", "join", "train"), run["stages"]):
        emit("span_start", name=name, attrs={})
        if task_status is not None:
            emit("span_start", name="task", attrs={})
        clock["sim"] += task_sim
        if task_status is not None:
            emit("span_end", name="task", status=task_status)
        clock["sim"] += own_sim
        emit("span_end", name=name, status=status)
    for kind in run["recovery"]:
        emit("recovery", event=kind)
    if run["peak"] is not None:
        labels = {"worker": "w0", "region": "user"}
        emit("metric", metric="mem_used_bytes", value=run["peak"],
             labels=labels)
        emit("metric", metric="mem_capacity_bytes", value=500.0,
             labels=labels)
    emit("span_end", name="workload", status="ok")
    if run["run_end"]:
        emit("run_end", status="ok")
    return summarize_ledger(events[:len(events) - run["cut"]])


@settings(max_examples=300, deadline=None)
@given(base=_RUN, target=_RUN)
def test_diff_rules_match_the_old_tiers_on_generated_ledgers(base,
                                                             target):
    """Oracle (a), generated: stragglers, retries, worker loss, torn
    tails and over-budget gauges in any mix."""
    _diff_exits(_synthetic_record(base), _synthetic_record(target))


def _old_trend_flags(records, metric, threshold, direction, last=None):
    """``evaluate_trend`` for one ``HistoryRule`` as it was before
    ``against: trend`` replaced it (``min_runs`` 3): the flagged
    ``(element, run_id)`` pairs, the element named by the metric for
    a scalar spec."""
    def median(values):
        ordered = sorted(values)
        middle = len(ordered) // 2
        if len(ordered) % 2:
            return float(ordered[middle])
        return (ordered[middle - 1] + ordered[middle]) / 2.0

    if last is not None and last > 0:
        records = records[-last:]
    series = {}
    for record in records:
        resolved = resolve_path(record, metric)
        if resolved is None:
            continue
        items = (resolved.items() if isinstance(resolved, dict)
                 else [("", resolved)])
        for key, value in items:
            series.setdefault(key, []).append(
                (record["run_id"], float(value)))
    flags = set()
    for key, points in series.items():
        values = [value for _, value in points]
        if len(values) < 3:
            continue
        med = median(values)
        scale = max(1.4826 * median([abs(v - med) for v in values]),
                    0.05 * abs(med), 1e-9)
        for run_id, value in points:
            z = (value - med) / scale
            if direction == "high" and z <= threshold:
                continue
            if direction == "low" and z >= -threshold:
                continue
            flags.add((key or metric, run_id))
    return flags


def _assert_trend_matches(values, threshold=3.5, last=None):
    """One scalar series (``x``) and one two-element glob series
    (``m.*``; ``None`` leaves a run without the value), both tails."""
    records = []
    for position, value in enumerate(values):
        record = {"run_id": f"r{position}", "m": {}}
        if value is not None:
            record["x"] = value
            record["m"]["a"] = value
            record["m"]["b"] = value * position
        records.append(record)
    window = records[-last:] if last else records
    for metric in ("x", "m.*"):
        for direction, comparator, bound in (("high", "<=", threshold),
                                             ("low", ">=", -threshold)):
            rule = SloRule(name="t", metric=metric, comparator=comparator,
                           threshold=bound, against="trend")
            (verdict,) = evaluate_slo([rule], history=window)
            expected = _old_trend_flags(records, metric, threshold,
                                        direction, last=last)
            assert set(verdict.details) == {
                trend_key(label, run_id) for label, run_id in expected}
            assert (verdict.ok is False) == bool(expected)


@pytest.mark.parametrize("values", [
    [0.0] * 6,                                  # all zero
    [4.2] * 6,                                  # constant
    [1.0, 1.0, 1.0, 250.0, 1.0],                # a single outlier
    [1.0, 1.0, 1.0, -250.0, 1.0],               # ... in the low tail
    [1.0, 9.0],                                 # fewer than 3 points
    [1.0, None, 9.0, None],                     # 2 of 4 runs carry it
])
def test_trend_rules_flag_what_evaluate_trend_flagged(values):
    """Oracle (b): the same ``(element, run)`` set, case by case."""
    _assert_trend_matches(values)
    _assert_trend_matches(values, last=3)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(
           st.none(), st.sampled_from([0.0, 1.0, 1e6]),
           st.floats(-1e3, 1e3, allow_nan=False)), max_size=9),
       threshold=st.sampled_from([0.5, 2.0, 3.5]),
       last=st.one_of(st.none(), st.integers(1, 9)))
def test_trend_rules_flag_what_evaluate_trend_flagged_generated(
        values, threshold, last):
    """Oracle (b), generated series, windows and thresholds."""
    _assert_trend_matches(values, threshold=threshold, last=last)
