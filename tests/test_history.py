"""The run-history warehouse: runsum/v1 summarization, the
content-addressed :class:`HistoryStore`, span-aligned profile diffs,
and robust-z drift timelines.

The contract under test is the CI ``history`` job's: any obs/v1 ledger
— including a torn one a SIGKILLed driver left behind — summarizes
into one ``runsum/v1`` record and joins the timeline, and a file that
is not a ledger is refused, never stored; ingest is idempotent by
construction (run ids are content hashes); twin runs diff with zero regressions while an injected
straggler is flagged both by the span-aligned diff (deterministic
sim-second growth) and by the ``trend --gate`` change-point detector.
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
from repro.observe import (
    HistoryRule,
    HistoryStore,
    RUNSUM_SCHEMA,
    RunLedger,
    diff_runs,
    environment_meta,
    evaluate_trend,
    has_regressions,
    load_history_rules,
    load_rules,
    load_ruleset,
    read_ledger,
    run_fingerprint,
    spans_from_events,
    summarize_ledger,
    trend_has_breach,
)
from repro.observe.history import (
    robust_scale,
    summarize_path,
    trend_series,
)
from repro.observe.slo import resolve_path

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_RULES = os.path.join(REPO_ROOT, "slo", "default.yaml")


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


def _summarize_file(path, slo_rules=None):
    events, problems = read_ledger(path)
    return summarize_ledger(events, problems, source=path,
                            slo_rules=slo_rules)


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


def test_summarize_ledger_evaluates_slo_rules(tmp_path):
    path = _write_ledger(os.path.join(str(tmp_path), "a.jsonl"))
    record = _summarize_file(path, slo_rules=load_rules(DEFAULT_RULES))
    slo = record["slo"]
    # Evaluated over the record just built; only the baseline-relative
    # plan-choice rule skips (no baseline at ingest). Nothing breaches.
    assert (slo["breach"], slo["pass"], slo["skip"]) == (0, 3, 1)
    assert slo["failing"] == []
    assert _summarize_file(path)["slo"] is None


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
    assert meta["exec_backend"] == "serial"


# ---------------------------------------------------------------------
# span-aligned diffs
# ---------------------------------------------------------------------
def test_twin_runs_diff_with_zero_regressions(tmp_path):
    a = _write_ledger(os.path.join(str(tmp_path), "a.jsonl"))
    b = _write_ledger(os.path.join(str(tmp_path), "b.jsonl"))
    diff = diff_runs(_summarize_file(a), _summarize_file(b))
    assert diff["matched"] == 3
    assert diff["new"] == diff["vanished"] == 0
    assert diff["regressions"] == []
    assert not has_regressions(diff)
    assert diff["fingerprint_match"] is True
    assert diff["knob_changes"] == {}


def test_straggler_diff_flags_sim_and_recovery_regressions(tmp_path):
    a = _write_ledger(os.path.join(str(tmp_path), "a.jsonl"))
    b = _write_ledger(os.path.join(str(tmp_path), "b.jsonl"),
                      straggle_s=12.5)
    diff = diff_runs(_summarize_file(a), _summarize_file(b))
    assert has_regressions(diff)
    kinds = {(r["kind"], r["path"]) for r in diff["regressions"]}
    # Deterministic tier: any sim growth regresses, at any magnitude —
    # the straggler's 12.5 sim seconds land on join and its ancestors.
    assert ("span", "workload/join") in kinds
    assert ("span", "workload") in kinds
    assert ("recovery", "straggler") in kinds
    assert diff["recovery_deltas"]["straggler"] == {"base": 0,
                                                    "target": 1}
    # The reverse direction (straggler -> clean) is an improvement.
    reverse = diff_runs(_summarize_file(b), _summarize_file(a))
    assert not any(r["kind"] == "span" for r in reverse["regressions"])


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
    # Structural changes inform but do not regress by themselves.
    assert diff["regressions"] == []


def test_diff_flags_status_downgrade_and_new_over_budget():
    base = {"spans": [{"path": "w", "name": "w", "depth": 0,
                       "start_seq": 1, "wall_s": 1.0, "self_s": 1.0,
                       "sim_s": 0.0, "status": "ok"}],
            "memory": {"w0/cache": {"peak_bytes": 100.0,
                                    "budget_bytes": 500.0,
                                    "over_budget": False}}}
    target = {"spans": [{"path": "w", "name": "w", "depth": 0,
                         "start_seq": 1, "wall_s": 1.0, "self_s": 1.0,
                         "sim_s": 0.0, "status": "error:boom"}],
              "memory": {"w0/cache": {"peak_bytes": 600.0,
                                      "budget_bytes": 500.0,
                                      "over_budget": True}}}
    diff = diff_runs(base, target)
    kinds = {r["kind"] for r in diff["regressions"]}
    assert kinds == {"span", "memory"}


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


def test_trend_flags_straggler_and_passes_twins(tmp_path):
    paths = [
        _write_ledger(os.path.join(str(tmp_path), f"r{i}.jsonl"),
                      straggle_s=0.0)
        for i in range(3)
    ]
    paths.append(_write_ledger(os.path.join(str(tmp_path), "s.jsonl"),
                               straggle_s=12.5))
    records = [_summarize_file(p) for p in paths]
    rules = [HistoryRule(name="stage-sim-drift",
                         metric="stages.*.sim_s"),
             HistoryRule(name="recovery-burst",
                         metric="recovery.total")]
    clean = evaluate_trend(records[:3], rules)
    assert clean["flags"] == []
    assert not trend_has_breach(clean)
    report = evaluate_trend(records, rules)
    assert trend_has_breach(report)
    flagged = {(f["rule"], f["element"]) for f in report["flags"]}
    assert ("stage-sim-drift", "join") in flagged
    assert ("recovery-burst", "") in flagged
    # Every flag points at the straggler run, never the twins.
    straggler_id = records[-1].get("run_id", "?")
    assert all(f["run_id"] == straggler_id for f in report["flags"])


def test_trend_min_runs_skips_short_series(tmp_path):
    paths = [_write_ledger(os.path.join(str(tmp_path), f"r{i}.jsonl"))
             for i in range(2)]
    records = [_summarize_file(p) for p in paths]
    report = evaluate_trend(
        records, [HistoryRule(name="w", metric="wall_s", min_runs=3)]
    )
    assert report["flags"] == []
    assert report["rules"][0]["skipped"].startswith("2 run(s)")


def test_trend_last_window_and_absent_metrics(tmp_path):
    straggler = _write_ledger(os.path.join(str(tmp_path), "s.jsonl"),
                              straggle_s=9.0)
    twins = [_write_ledger(os.path.join(str(tmp_path), f"r{i}.jsonl"))
             for i in range(3)]
    records = [_summarize_file(p) for p in [straggler] + twins]
    rule = HistoryRule(name="rec", metric="recovery.total")
    # Windowed to the last 3 runs, the old straggler ages out.
    assert evaluate_trend(records, [rule], last=3)["flags"] == []
    # A record without the metric is skipped, not treated as zero.
    series = trend_series(
        records + [{"run_id": "x"}], "recovery.total"
    )
    assert len(series[""]) == 4


def test_history_rule_validation():
    with pytest.raises(ValueError):
        HistoryRule(name="r", metric="wall_s", direction="sideways")
    with pytest.raises(ValueError):
        HistoryRule(name="r", metric="wall_s", severity="meh")
    with pytest.raises(ValueError):
        HistoryRule(name="r", metric="wall_s", threshold=0.0)


# ---------------------------------------------------------------------
# the scoped ruleset file
# ---------------------------------------------------------------------
def test_default_ruleset_history_scope_loads():
    rules = load_history_rules(DEFAULT_RULES)
    names = {rule.name for rule in rules}
    assert {"stage-sim-drift", "recovery-burst", "memory-peak-drift",
            "calibration-drift", "wall-drift"} <= names
    by_name = {rule.name: rule for rule in rules}
    assert by_name["wall-drift"].severity == "warn"
    assert by_name["calibration-drift"].direction == "both"


def test_history_scope_is_invisible_to_slo_loader():
    """Backward compatibility: the new ``history:`` scope must not
    leak into the SLO rule list the gates run on."""
    slo_rules = load_rules(DEFAULT_RULES)
    assert slo_rules  # the existing gates still load
    slo_names = {rule.name for rule in slo_rules}
    assert "stage-sim-drift" not in slo_names
    scopes = load_ruleset(DEFAULT_RULES)
    assert set(scopes) == {"rules", "history"}


def test_scoped_yaml_parser_headerless_entries_default_to_rules(
    tmp_path,
):
    path = os.path.join(str(tmp_path), "rules.yaml")
    with open(path, "w") as handle:
        handle.write(
            "# comment\n"
            "- name: top-level\n"
            "  metric: results.x\n"
            "  max: 1\n"
            "history:\n"
            "- name: drift\n"
            "  metric: wall_s\n"
            "  threshold: 4.0\n"
        )
    scopes = load_ruleset(path)
    assert [e["name"] for e in scopes["rules"]] == ["top-level"]
    assert scopes["history"][0]["threshold"] == 4.0
    assert load_history_rules(path)[0].threshold == 4.0


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
    # Re-ingest is idempotent and says so.
    assert main(["history", "--store", store_dir, "ingest",
                 os.path.join(str(tmp_path), "a.jsonl")]) == 0
    assert "already ingested" in capsys.readouterr().out


def test_cli_history_diff_exit_codes(tmp_path, capsys):
    store_dir = _store_with_three_runs(tmp_path)
    capsys.readouterr()
    # Twins: exit 0, zero regressions.
    assert main(["history", "--store", store_dir, "diff",
                 "@0", "@1"]) == 0
    assert "zero regressions" in capsys.readouterr().out
    # Twin vs straggler: exit 1, the regression named.
    assert main(["history", "--store", store_dir, "diff",
                 "@1", "@2"]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "sim +12.500s" in out
    # Unknown run: exit 2.
    assert main(["history", "--store", store_dir, "diff",
                 "@0", "zzzz"]) == 2


def test_cli_history_trend_gate(tmp_path, capsys):
    store_dir = _store_with_three_runs(tmp_path)
    capsys.readouterr()
    base = ["history", "--store", store_dir, "trend",
            "--metric", "stages.*.sim_s", "--min-runs", "3"]
    assert main(base) == 0  # report only: flags shown, exit 0
    out = capsys.readouterr().out
    assert "flag(s)" in out
    # --gate turns breach flags into a nonzero exit.
    assert main(base + ["--gate"]) == 1
    out = capsys.readouterr().out
    assert "breach" in out
    # Windowing past the straggler gates clean... the straggler is
    # last, so shrink the window to the two twins + min-runs guard.
    assert main(["history", "--store", store_dir, "trend",
                 "--metric", "wall_s", "--min-runs", "3",
                 "--last", "2", "--gate"]) == 0


def test_cli_history_empty_store_exit_codes(tmp_path, capsys):
    store_dir = os.path.join(str(tmp_path), "void")
    assert main(["history", "--store", store_dir, "list"]) == 2
    assert main(["history", "--store", store_dir, "diff",
                 "@0", "@1"]) == 2
    assert main(["history", "--store", store_dir, "trend",
                 "--gate"]) == 2
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
