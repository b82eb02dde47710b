"""Golden output of every offline view of a recorded run.

``repro top``, ``repro history list|show|diff|trend``, ``repro report
--slo`` and the Perfetto export all read the same ``obs/v1`` ledger;
this module pins their exact output over the deterministic synthetic
ledgers :func:`tests.test_history._write_ledger` builds, so a change
to the one reader underneath them shows up as a text diff here.

Regenerate after an intended output change with::

    PYTHONPATH=src python -m tests.test_golden_views

and quote the diff of ``tests/golden/`` in CHANGES.md.
"""

import contextlib
import io
import json
import os
import shutil
import tempfile

import pytest

from repro.cli import main
from repro.observe import chrome_trace, read_ledger
from tests.test_history import DEFAULT_RULES, _write_ledger

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")

#: Wall offsets for the event kinds ``_write_ledger`` leaves on the
#: real clock; everything else in its ledgers is already pinned.
_PINNED_WALL_S = {"ledger_open": 0.0, "run_meta": 0.0,
                  "optimizer_decision": 0.0, "recovery": 0.02}

_STAGE_PLAN = ("stage_plan", {
    "wall_s": 0.03, "plan": "staged/aj",
    "stages": [
        {"key": "read", "matcher": "read", "predicted_s": 0.5},
        {"key": "join", "matcher": "join", "predicted_s": 0.25},
        {"key": "train:fc7", "matcher": "train:fc7", "predicted_s": 2.0},
    ],
})


def _metric(name, value, wall_s):
    return ("metric", {"wall_s": wall_s, "metric": name, "value": value,
                       "labels": {"worker": "w0", "region": "cache"}})


def _ledger(name, **kwargs):
    """``_write_ledger`` with the run-to-run noise (driver pid, wall
    offsets of unpinned events) fixed, so the file's bytes — and the
    content-addressed run id — are the same on every machine."""
    _write_ledger(name, **kwargs)
    events, problems = read_ledger(name)
    assert not problems
    with open(name, "w") as handle:
        for event in events:
            if event["kind"] == "ledger_open":
                event["pid"] = 4242
            if event["kind"] in _PINNED_WALL_S:
                event["wall_s"] = _PINNED_WALL_S[event["kind"]]
            handle.write(json.dumps(event, separators=(",", ":")) + "\n")
    return name


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return f"{out.getvalue()}[exit {code}]\n"


def _perfetto(path):
    events, _ = read_ledger(path)
    trace_events = chrome_trace(ledger_events=events)["traceEvents"]
    rows = sorted(json.dumps(event, sort_keys=True)
                  for event in trace_events)
    return "\n".join(rows) + "\n"


def render_views(workdir):
    """Build the synthetic ledgers under ``workdir`` and render every
    view; returns ``{golden name: text}``."""
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        os.mkdir("slo")
        shutil.copy(DEFAULT_RULES, os.path.join("slo", "default.yaml"))
        _ledger("a.jsonl")
        _ledger("b.jsonl")
        _ledger("c.jsonl", straggle_s=12.5)
        _ledger("t.jsonl", run_end=None)
        _ledger("o.jsonl", extra=[
            _metric("mem_used_bytes", 100.0, 0.031),
            _metric("mem_used_bytes", 900.0, 0.032),
            _metric("mem_capacity_bytes", 500.0, 0.033),
        ])
        _ledger("p.jsonl", extra=[_STAGE_PLAN])
        _ledger("pt.jsonl", extra=[_STAGE_PLAN], run_end=None)
        _ledger("m.jsonl", extra=[
            ("span_start", {"wall_s": 0.031, "name": "orphan",
                            "attrs": {"layer": "fc7"}}),
        ])
        history = ("history", "--store", "store")
        rules = os.path.join("slo", "default.yaml")
        return {
            "top-clean": _cli("top", "a.jsonl"),
            "top-torn": _cli("top", "t.jsonl"),
            "top-planned": _cli("top", "p.jsonl"),
            "top-planned-torn": _cli("top", "pt.jsonl"),
            "top-validate": _cli("top", "a.jsonl", "--validate"),
            "history-ingest": _cli(
                *history, "ingest", "a.jsonl", "b.jsonl", "c.jsonl",
                "t.jsonl", "o.jsonl"),
            "history-list": _cli(*history, "list"),
            "history-show-clean": _cli(*history, "show", "@0"),
            "history-show-straggler": _cli(*history, "show", "@2"),
            "history-show-torn": _cli(*history, "show", "@3"),
            "history-show-over-budget": _cli(*history, "show", "@4"),
            "history-diff-twins": _cli(*history, "diff", "@0", "@1"),
            "history-diff-straggler": _cli(*history, "diff", "@1", "@2"),
            "history-diff-torn": _cli(*history, "diff", "@0", "@3"),
            "history-diff-over-budget": _cli(*history, "diff", "@0", "@4"),
            "history-trend": _cli(*history, "trend", "--gate"),
            "history-trend-metric": _cli(
                *history, "trend", "--metric", "stages.*.sim_s",
                "--min-runs", "3"),
            "slo-clean": _cli("report", "--slo", rules, "a.jsonl"),
            "slo-torn": _cli("report", "--slo", rules, "t.jsonl"),
            "slo-twin": _cli("report", "--slo", rules, "b.jsonl",
                             "--baseline", "a.jsonl"),
            "perfetto-clean": _perfetto("a.jsonl"),
            "perfetto-straggler": _perfetto("c.jsonl"),
            "perfetto-torn": _perfetto("t.jsonl"),
            "perfetto-over-budget": _perfetto("o.jsonl"),
            "perfetto-mismatched": _perfetto("m.jsonl"),
        }
    finally:
        os.chdir(previous)


def _golden_names():
    return sorted(name[:-len(".txt")] for name in os.listdir(GOLDEN_DIR)
                  if name.endswith(".txt"))


@pytest.fixture(scope="module")
def views(tmp_path_factory):
    return render_views(str(tmp_path_factory.mktemp("golden")))


def test_every_view_has_a_golden_and_no_golden_is_stale(views):
    assert sorted(views) == _golden_names()


@pytest.mark.parametrize("name", _golden_names())
def test_view_matches_golden(views, name):
    with open(os.path.join(GOLDEN_DIR, f"{name}.txt")) as handle:
        assert views[name] == handle.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for view_name, text in render_views(scratch).items():
            with open(os.path.join(GOLDEN_DIR, f"{view_name}.txt"),
                      "w") as handle:
                handle.write(text)
