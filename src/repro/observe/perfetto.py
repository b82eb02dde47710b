"""Chrome trace-event / Perfetto export.

Renders a run's ``obs/v1`` ledger into the standard Chrome trace-event
JSON (``{"traceEvents": [...]}``) that ``ui.perfetto.dev`` and
``chrome://tracing`` load directly.

Track mapping (DESIGN.md §4k):

- the **driver** process is one pid (from the ledger's ``ledger_open``
  event); its span tree — the pairing
  :func:`repro.observe.history.spans_from_events` rebuilds — lands on
  tid 1 as nested ``X`` (complete) events, point events as ``i``
  instants;
- the **wave scheduler** gets tid 2 on the driver pid: one ``X`` event
  per dispatched wave (args: worker, size, stage);
- every :class:`~repro.dataflow.backend.ProcessPoolBackend` worker is
  its own pid track. A worker is resident for a stage, so its track
  holds one ``X`` event per task it served, each from a
  ``task_fork``/``task_collect`` ledger pair (args: partition,
  attempt, stage, status, ``spawn_s``, ``compute_s``, ``wait_s``,
  ``transfer_bytes``) — a worker SIGKILLed mid-task renders with
  status ``worker-lost``, closed at the collect that discovered it;
- throttled ``metric`` events become ``C`` counter tracks;
- recovery events, optimizer decisions, and run start/end become
  ``i`` instants on the driver track.

Timestamps are microseconds on the ledger epoch.
"""

from __future__ import annotations

import json

from repro.observe.history import metric_key, spans_from_events
from repro.observe.ledger import read_ledger

#: tid of the driver's span track / the wave-scheduler track.
DRIVER_TID = 1
WAVES_TID = 2

#: Ledger kinds rendered as ``i`` instants on the driver track.
_INSTANT_KINDS = (
    "ledger_open", "run_meta", "stage_plan", "optimizer_decision",
    "recovery", "trace_point", "run_end",
)


def _us(seconds):
    return round(float(seconds or 0.0) * 1e6, 3)


def _meta(pid, tid, name, kind="thread_name"):
    return {
        "ph": "M", "name": kind, "pid": pid, "tid": tid,
        "args": {"name": name},
    }


def _events_from_ledger(ledger_events, pid):
    """Events for an ``obs/v1`` ledger: driver spans, wave track,
    worker-pid task tracks, counter samples, and instants."""
    events = [
        {
            "name": span["name"],
            "ph": "X",
            "ts": _us(span["start_wall_s"]),
            "dur": _us(span["end_wall_s"] - span["start_wall_s"]),
            "pid": pid,
            "tid": DRIVER_TID,
            "args": {**span["attrs"], "status": span["status"]},
        }
        for span in spans_from_events(ledger_events)
    ]
    open_wave = None
    forks = {}
    child_pids = []
    last_wall = 0.0
    for event in ledger_events:
        wall = float(event.get("wall_s") or 0.0)
        last_wall = max(last_wall, wall)
        kind = event.get("kind")
        if kind == "wave_start":
            open_wave = (event, wall)
        elif kind == "wave_end":
            if open_wave is not None:
                start_event, start = open_wave
                open_wave = None
                events.append({
                    "name": f"wave w{start_event.get('worker')}",
                    "ph": "X",
                    "ts": _us(start),
                    "dur": _us(wall - start),
                    "pid": pid,
                    "tid": WAVES_TID,
                    "args": {
                        "worker": start_event.get("worker"),
                        "size": start_event.get("size"),
                        "stage": start_event.get("what"),
                        "results": event.get("results"),
                    },
                })
        elif kind == "task_fork":
            child = event.get("pid")
            forks[child] = (event, wall)
            if child not in child_pids:
                child_pids.append(child)
        elif kind == "task_collect":
            child = event.get("pid")
            forked = forks.pop(child, None)
            start = forked[1] if forked else wall
            fork_event = forked[0] if forked else {}
            events.append({
                "name": f"task p{event.get('partition')}",
                "ph": "X",
                "ts": _us(start),
                "dur": _us(wall - start),
                "pid": child,
                "tid": 0,
                "args": {
                    "partition": event.get("partition"),
                    "attempt": fork_event.get("attempt"),
                    "stage": fork_event.get("what"),
                    "status": event.get("status", "ok"),
                    "spawn_s": fork_event.get("spawn_s"),
                    "compute_s": event.get("compute_s"),
                    "wait_s": event.get("wait_s"),
                    "transfer_bytes": event.get("transfer_bytes"),
                },
            })
        elif kind == "metric":
            events.append({
                "name": metric_key(event.get("metric", "metric"),
                                   event.get("labels") or {}),
                "ph": "C",
                "ts": _us(wall),
                "pid": pid,
                "args": {"value": event.get("value")},
            })
        elif kind in _INSTANT_KINDS:
            name = kind
            if kind == "recovery":
                name = f"recovery:{event.get('event', '?')}"
            elif kind == "trace_point":
                name = event.get("name", "event")
            events.append({
                "name": name,
                "ph": "i",
                "s": "p",
                "ts": _us(wall),
                "pid": pid,
                "tid": DRIVER_TID,
                "args": {
                    k: v for k, v in event.items()
                    if k not in ("schema", "seq", "wall_s", "kind")
                },
            })
    # A torn ledger (driver SIGKILLed) leaves a wave and forked tasks
    # open: close them at the last observed timestamp so the export
    # still loads and shows exactly how far the run got.
    if open_wave is not None:
        start_event, start = open_wave
        events.append({
            "name": f"wave w{start_event.get('worker')}", "ph": "X",
            "ts": _us(start), "dur": _us(last_wall - start),
            "pid": pid, "tid": WAVES_TID,
            "args": {"worker": start_event.get("worker"),
                     "size": start_event.get("size"),
                     "stage": start_event.get("what"), "status": "torn"},
        })
    for child, (fork_event, start) in forks.items():
        events.append({
            "name": f"task p{fork_event.get('partition')}", "ph": "X",
            "ts": _us(start), "dur": _us(last_wall - start),
            "pid": child, "tid": 0,
            "args": {"partition": fork_event.get("partition"),
                     "attempt": fork_event.get("attempt"),
                     "stage": fork_event.get("what"), "status": "torn"},
        })
    return events, child_pids


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def chrome_trace(ledger_events):
    """Build the Chrome trace-event payload from a parsed ledger
    event list."""
    pid = 0
    for event in ledger_events:
        if event.get("kind") == "ledger_open" and event.get("pid"):
            pid = int(event["pid"])
            break
    events = [
        _meta(pid, DRIVER_TID, "vista driver", kind="process_name"),
        _meta(pid, DRIVER_TID, "driver spans"),
        _meta(pid, WAVES_TID, "wave scheduler"),
    ]
    ledger_rendered, child_pids = _events_from_ledger(ledger_events, pid)
    events.extend(ledger_rendered)
    for child in child_pids:
        events.append(_meta(child, 0, f"forked worker {child}",
                            kind="process_name"))
        events.append(_meta(child, 0, "wave tasks"))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.observe.perfetto",
                      "ledger_schema": "obs/v1"},
    }


def validate_chrome_trace(payload):
    """Problems with a trace-event payload (empty list when valid):
    the structural checks the CI ``observe`` job runs on exports."""
    problems = []
    if not isinstance(payload, dict):
        return ["payload is not an object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "i", "M", "C", "B", "E"):
            problems.append(f"{where}: unknown phase {ph!r}")
        if "name" not in event:
            problems.append(f"{where}: missing name")
        if ph != "M":
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        if not isinstance(event.get("pid", 0), int):
            problems.append(f"{where}: pid must be an integer")
    return problems


def write_chrome_trace(path, ledger):
    """Export to ``path``. ``ledger`` is a :class:`~repro.observe.
    ledger.RunLedger`, a parsed event list, or a ledger file path
    (read tolerantly, so exporting a killed run's ledger works)."""
    if isinstance(ledger, (list, tuple)):
        ledger_events = list(ledger)
    elif hasattr(ledger, "events"):
        ledger_events = list(ledger.events)
    else:
        ledger_events, _ = read_ledger(ledger)
    payload = chrome_trace(ledger_events)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    return payload
