"""Chrome trace-event / Perfetto export.

Renders a run — an exported :class:`~repro.trace.Tracer` span tree, an
``obs/v1`` run ledger, or both — into the standard Chrome trace-event
JSON (``{"traceEvents": [...]}``) that ``ui.perfetto.dev`` and
``chrome://tracing`` load directly.

Track mapping (DESIGN.md §4k):

- the **driver** process is one pid (from the ledger's ``ledger_open``
  event when available); its span tree lands on tid 1 as nested ``X``
  (complete) events, point events as ``i`` instants;
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

Timestamps are microseconds. Span trees use their own epoch
(``wall_offset_s`` of the root); ledgers use the ledger epoch — when
both sources are given, spans are preferred *from the ledger* (one
timebase) and the exported tree is only used if the ledger carries no
span events (e.g. the run was ledgered without a tracer).
"""

from __future__ import annotations

import json

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


# ----------------------------------------------------------------------
# span-tree source
# ----------------------------------------------------------------------
def _events_from_trace(trace, pid):
    """``X``/``i`` events for an exported span tree (dict form)."""
    events = []

    def walk(span):
        args = {**span.get("attrs", {}), **span.get("counters", {})}
        args["status"] = span.get("status", "ok")
        events.append({
            "name": span.get("name", "span"),
            "ph": "X",
            "ts": _us(span.get("wall_offset_s")),
            "dur": _us(span.get("wall_s")),
            "pid": pid,
            "tid": DRIVER_TID,
            "args": args,
        })
        for point in span.get("events", ()):
            events.append({
                "name": point.get("event", "event"),
                "ph": "i",
                "s": "t",
                "ts": _us(span.get("wall_offset_s")),
                "pid": pid,
                "tid": DRIVER_TID,
                "args": {k: v for k, v in point.items() if k != "event"},
            })
        for child in span.get("children", ()):
            walk(child)

    walk(trace)
    return events


# ----------------------------------------------------------------------
# ledger source
# ----------------------------------------------------------------------
def _events_from_ledger(ledger_events, pid):
    """Events for an ``obs/v1`` ledger: driver spans (reconstructed
    from start/end pairs), wave track, worker-pid task tracks, counter
    samples, and instants."""
    events = []
    span_stack = []
    open_wave = None
    forks = {}
    child_pids = []
    last_wall = 0.0
    for event in ledger_events:
        wall = float(event.get("wall_s") or 0.0)
        last_wall = max(last_wall, wall)
        kind = event.get("kind")
        if kind == "span_start":
            span_stack.append((event.get("name", "span"), wall,
                               event.get("attrs") or {}))
        elif kind == "span_end":
            name = event.get("name", "span")
            while span_stack:
                open_name, start, attrs = span_stack.pop()
                closes = open_name == name
                events.append({
                    "name": open_name,
                    "ph": "X",
                    "ts": _us(start),
                    "dur": _us(wall - start),
                    "pid": pid,
                    "tid": DRIVER_TID,
                    "args": {
                        **attrs,
                        "status": (event.get("status", "ok")
                                   if closes else "implicit-close"),
                    },
                })
                if closes:
                    break
        elif kind == "wave_start":
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
                "name": _counter_name(event),
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
    # A torn ledger (driver SIGKILLed) leaves spans, a wave, and forked
    # tasks open: close them at the last observed timestamp so the
    # export still loads and shows exactly how far the run got.
    while span_stack:
        open_name, start, attrs = span_stack.pop()
        events.append({
            "name": open_name, "ph": "X", "ts": _us(start),
            "dur": _us(last_wall - start), "pid": pid, "tid": DRIVER_TID,
            "args": {**attrs, "status": "torn"},
        })
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


def _counter_name(event):
    labels = event.get("labels") or {}
    if not labels:
        return str(event.get("metric", "metric"))
    rendered = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{event.get('metric', 'metric')}{{{rendered}}}"


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def chrome_trace(trace=None, ledger_events=None):
    """Build the Chrome trace-event payload from an exported span tree
    and/or a parsed ledger event list. At least one must be given."""
    if trace is None and ledger_events is None:
        raise ValueError("chrome_trace needs a trace, a ledger, or both")
    if trace is not None and hasattr(trace, "export"):
        trace = trace.export()
    elif trace is not None and hasattr(trace, "to_dict"):
        trace = trace.to_dict()
    pid = 0
    if ledger_events:
        for event in ledger_events:
            if event.get("kind") == "ledger_open" and event.get("pid"):
                pid = int(event["pid"])
                break
    events = [
        _meta(pid, DRIVER_TID, "vista driver", kind="process_name"),
        _meta(pid, DRIVER_TID, "driver spans"),
        _meta(pid, WAVES_TID, "wave scheduler"),
    ]
    child_pids = []
    ledger_has_spans = any(
        e.get("kind") == "span_start" for e in ledger_events or ()
    )
    if ledger_events:
        ledger_rendered, child_pids = _events_from_ledger(
            ledger_events, pid
        )
        events.extend(ledger_rendered)
    if trace is not None and not ledger_has_spans:
        events.extend(_events_from_trace(trace, pid))
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


def write_chrome_trace(path, trace=None, ledger=None):
    """Export to ``path``. ``ledger`` is a :class:`~repro.observe.
    ledger.RunLedger`, a parsed event list, or a ledger file path
    (read tolerantly, so exporting a killed run's ledger works)."""
    ledger_events = None
    if ledger is not None:
        if isinstance(ledger, (list, tuple)):
            ledger_events = list(ledger)
        elif hasattr(ledger, "events"):
            ledger_events = list(ledger.events)
        else:
            from repro.observe.ledger import read_ledger

            ledger_events, _ = read_ledger(ledger)
    payload = chrome_trace(trace=trace, ledger_events=ledger_events)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    return payload
