"""Span-based tracing for Vista runs: one event stream, one pairing.

A :class:`Tracer` records ``obs/v1`` span events — ``span_start`` and
``span_end`` around each logical stage of a workload (read, inference
per layer, join, cache, train, recovery attempt) and ``trace_point``
for point occurrences (spills, degradation rungs) — into
``Tracer.events`` and, once a ledger is attached, into its ``sink``.
:func:`spans_from_events` is the one code that pairs such events into
span records; ``Tracer.export()``, the run summary, ``repro history
diff`` and the Perfetto export all read it, so a live trace and a
recorded ledger share one span shape. Records render as a flame-style
summary via :mod:`repro.report.trace_ascii`.

Two clocks, deliberately:

- **wall** time (``time.perf_counter``) measures where real CPU time
  goes — what the benchmarks read;
- **simulated** time (a shared :class:`~repro.faults.clock.
  SimulatedClock`) stamps every event, so traces of fault-injected runs
  are deterministic: backoff and straggler delays land in the trace at
  exactly reproducible offsets while wall times merely jitter.

The module-level :data:`NULL_TRACER` is the default everywhere: its
``span``/``add``/``set``/``event`` are no-ops built on one shared
context-manager object, so untraced runs pay only an attribute lookup
and a falsy check per instrumentation point.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: Event fields that are not a point event's own payload.
_POINT_ENVELOPE = ("schema", "seq", "wall_s", "sim_time_s", "kind", "name")


def spans_from_events(events):
    """Pair a flat ``span_start``/``span_end``/``trace_point`` stream —
    a ledger's or a :class:`Tracer`'s — into span records in start
    order. This is the one start/end pairing in the package.

    Each record carries a ``path`` — ancestor names joined with ``/``,
    with an ``@N`` occurrence suffix for repeated siblings (the second
    ``join`` under ``workload`` is ``workload/join@2``) — which is the
    alignment key :func:`repro.observe.diff.diff_runs` joins on.
    ``self_s`` is wall seconds minus the direct children's wall
    seconds, clamped at zero. ``start_wall_s``/``end_wall_s`` and
    ``sim_start_s``/``sim_end_s`` are the stream offsets of the events
    that opened and closed it. ``attrs`` are what it was opened with,
    updated by any ``attrs`` its ``span_end`` carries; ``counters``
    come from its ``span_end``; ``events`` are the ``trace_point``
    events recorded while it was the innermost open span, each as
    ``{"event": name, "sim_time_s": ..., **fields}``. A span closed by
    an outer span's end, or left open at the end of the stream (a torn
    ledger), closes with status ``"torn"`` at the offsets the stream
    had reached.
    """
    spans = []
    stack = []
    root_counts = {}
    last_wall = 0.0
    last_sim = 0.0
    start_seq = 0

    def close(frame, end_wall, wall_s, sim_end, status, end=None):
        attrs = frame["attrs"]
        counters = {}
        if end is not None:
            if end.get("attrs"):
                attrs = {**attrs, **end["attrs"]}
            counters = end.get("counters") or {}
        span = {
            "path": frame["path"],
            "name": frame["name"],
            "depth": frame["depth"],
            "start_seq": frame["start_seq"],
            "wall_s": round(max(0.0, wall_s), 9),
            "sim_s": round(max(0.0, sim_end - frame["sim_start"]), 9),
            "self_s": round(max(0.0, wall_s - frame["children_s"]), 9),
            "status": status,
            "start_wall_s": frame["wall_start"],
            "end_wall_s": end_wall,
            "sim_start_s": frame["sim_start"],
            "sim_end_s": sim_end,
            "attrs": attrs,
            "counters": counters,
            "events": frame["events"],
        }
        spans.append(span)
        if stack:
            stack[-1]["children_s"] += span["wall_s"]

    for event in events:
        wall = float(event.get("wall_s") or 0.0)
        sim = float(event.get("sim_time_s") or 0.0)
        last_wall = max(last_wall, wall)
        last_sim = max(last_sim, sim)
        kind = event.get("kind")
        if kind == "span_start":
            name = str(event.get("name") or "span")
            counts = stack[-1]["counts"] if stack else root_counts
            seen = counts.get(name, 0)
            counts[name] = seen + 1
            label = name if seen == 0 else f"{name}@{seen + 1}"
            path = f"{stack[-1]['path']}/{label}" if stack else label
            start_seq += 1
            stack.append({
                "name": name, "path": path, "depth": len(stack),
                "start_seq": start_seq, "wall_start": wall,
                "sim_start": sim, "children_s": 0.0, "counts": {},
                "attrs": event.get("attrs") or {}, "events": [],
            })
        elif kind == "span_end":
            name = str(event.get("name") or "span")
            if not any(frame["name"] == name for frame in stack):
                continue
            while stack:
                frame = stack.pop()
                if frame["name"] != name:
                    close(frame, wall, wall - frame["wall_start"], sim,
                          "torn")
                    continue
                wall_s = event.get("span_s")
                wall_s = (wall - frame["wall_start"] if wall_s is None
                          else float(wall_s))
                close(frame, wall, wall_s, sim,
                      str(event.get("status") or "ok"), event)
                break
        elif kind == "trace_point" and stack:
            stack[-1]["events"].append({
                "event": event.get("name"), "sim_time_s": sim,
                **{key: value for key, value in event.items()
                   if key not in _POINT_ENVELOPE},
            })
    while stack:
        frame = stack.pop()
        close(frame, last_wall, last_wall - frame["wall_start"], last_sim,
              "torn")
    spans.sort(key=lambda span: span["start_seq"])
    return spans


class _OpenSpan:
    """What ``Tracer.span`` yields: the counters and attrs of a span
    while it is open. Its ``span_end`` event carries both."""

    __slots__ = ("counters", "attrs")

    def __init__(self, attrs):
        self.counters = {}
        self.attrs = attrs

    def add(self, counter, value=1):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def set(self, key, value):
        self.attrs[key] = value


class Tracer:
    """Records one run's span events; ``export()`` pairs them.

    Parameters
    ----------
    clock:
        Optional :class:`~repro.faults.clock.SimulatedClock`; when a
        fault injector is attached to the cluster context the executor
        shares its clock with the tracer so events carry deterministic
        simulated timestamps. Without one, sim timestamps stay 0.
    name:
        Name of the root span, the first record of every export. It is
        open for the tracer's whole life and never reaches the sink.
    """

    enabled = True

    def __init__(self, clock=None, name="trace"):
        self.clock = clock
        #: Optional :class:`~repro.observe.ledger.RunLedger`: when set
        #: (via ``ClusterContext.attach_ledger``) every span open/close
        #: and point event is streamed into the ledger as it happens,
        #: with the fields the ledger has always held.
        self.sink = None
        self._epoch = time.perf_counter()
        #: The recorded ``obs/v1`` span events, wall offsets measured
        #: from the tracer's creation.
        self.events = [{"kind": "span_start", "name": name, "attrs": {},
                        "wall_s": 0.0, "sim_time_s": self._sim_now()}]
        self._stack = [_OpenSpan({})]

    # ------------------------------------------------------------------
    def _sim_now(self):
        return self.clock.now if self.clock is not None else 0.0

    def _record(self, kind, **fields):
        fields.update(kind=kind, sim_time_s=self._sim_now(),
                      wall_s=round(time.perf_counter() - self._epoch, 9))
        self.events.append(fields)

    @contextmanager
    def span(self, name, **attrs):
        """Open a child span of the innermost open span for the
        duration of the ``with`` block; exceptions mark its status."""
        # Copy: the span keeps mutating attrs after the open event,
        # and the ledger's memory view must match what hit disk.
        opened = dict(attrs)
        if self.sink is not None:
            # A failed emit raises before the span is recorded or open.
            self.sink.emit("span_start", name=name, attrs=opened)
        self._record("span_start", name=name, attrs=opened)
        span = _OpenSpan(attrs)
        self._stack.append(span)
        started = time.perf_counter()
        status = "ok"
        try:
            yield span
        except BaseException as exc:
            status = f"error:{type(exc).__name__}"
            raise
        finally:
            span_s = time.perf_counter() - started
            self._stack.pop()
            self._record("span_end", name=name, status=status,
                         span_s=span_s, counters=span.counters,
                         attrs=span.attrs)
            if self.sink is not None:
                self.sink.emit("span_end", name=name, status=status,
                               span_s=span_s)

    def add(self, counter, value=1):
        """Increment a counter on the innermost open span."""
        self._stack[-1].add(counter, value)

    def set(self, key, value):
        """Set an attribute on the innermost open span."""
        self._stack[-1].set(key, value)

    def event(self, name, **fields):
        """Record a point event on the innermost open span, stamped
        with the simulated time."""
        self._record("trace_point", name=name, **fields)
        if self.sink is not None:
            self.sink.emit("trace_point", name=name, **fields)

    def record_op(self, name, seconds):
        """Add already-measured wall seconds to the innermost open
        span's ``op_s:<name>`` counter. The CNN engine's ``op_timer``
        hook uses this shape — the engine reads the clock itself, so
        the per-op cost stays at one call."""
        self._stack[-1].add(f"op_s:{name}", seconds)

    def op_seconds(self):
        """The innermost open span's ``op_s:<name>`` counters, by name:
        what a forked worker diffs around a task and ships back."""
        return {key[5:]: value
                for key, value in self._stack[-1].counters.items()
                if key.startswith("op_s:")}

    # ------------------------------------------------------------------
    def export(self):
        """The span records :func:`spans_from_events` pairs from
        ``events`` (JSON-safe), root first. Spans still open close at
        the last recorded offset with their counters and attrs read
        live: the root reads ``ok``, any other ``running``."""
        spans = spans_from_events(self.events)
        # The tracer's own stream is well nested, so "torn" can only
        # mean "still open", and those records follow the stack's order.
        live = iter(self._stack)
        for span in spans:
            if span["status"] == "torn":
                handle = next(live)
                span.update(status="running", attrs=dict(handle.attrs),
                            counters=dict(handle.counters))
        spans[0]["status"] = "ok"
        return spans

    def __repr__(self):
        return (f"<Tracer {self.events[0]['name']}: "
                f"{len(self.events)} events, depth={len(self._stack)}>")


class _NullSpanContext:
    """Shared no-op stand-in for both open spans and their context
    managers; every mutating method silently discards its input."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def add(self, counter, value=1):
        pass

    def set(self, key, value):
        pass

    def __repr__(self):
        return "<NullSpan>"


_NULL_SPAN = _NullSpanContext()


class NullTracer:
    """Disabled tracer: every hook is a no-op. Instrumented code can
    test ``tracer.enabled`` before doing anything expensive (byte
    estimation, per-operator timing)."""

    enabled = False
    clock = None
    sink = None

    def span(self, name, **attrs):
        return _NULL_SPAN

    def add(self, counter, value=1):
        pass

    def set(self, key, value):
        pass

    def event(self, name, **fields):
        pass

    def record_op(self, name, seconds):
        pass

    def op_seconds(self):
        return {}

    def export(self):
        return None

    def __repr__(self):
        return "<NullTracer>"


#: The process-wide disabled tracer every layer defaults to.
NULL_TRACER = NullTracer()
