"""Span-based tracing for Vista runs.

A :class:`Tracer` records a tree of :class:`Span` values — one per
logical stage of a workload (read, inference per layer, join, cache,
train, recovery attempt) — with wall-clock durations, simulated-clock
timestamps, per-stage counters (rows, bytes, partitions, retries), and
arbitrary attributes (join strategy, persistence format, optimizer
decisions). The tree exports as a JSON-safe dict (``Span.to_dict``)
and renders as a flame-style summary via
:mod:`repro.report.trace_ascii`.

Two clocks, deliberately:

- **wall** time (``time.perf_counter``) measures where real CPU time
  goes — what the benchmarks read;
- **simulated** time (a shared :class:`~repro.faults.clock.
  SimulatedClock`) stamps ``sim_start``/``sim_end`` on every span, so
  traces of fault-injected runs are deterministic: backoff and
  straggler delays land in the trace at exactly reproducible offsets
  while wall times merely jitter.

The module-level :data:`NULL_TRACER` is the default everywhere: its
``span``/``add``/``set``/``event`` are no-ops built on one shared
context-manager object, so untraced runs pay only an attribute lookup
and a falsy check per instrumentation point.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Span:
    """One node of the trace tree.

    ``counters`` accumulate numeric facts (rows, bytes, retries,
    per-operator seconds under ``op_s:<name>`` keys); ``attrs`` hold
    one-shot descriptive values (plan label, join strategy); ``events``
    are timestamped point occurrences (spills, degradation rungs).
    """

    __slots__ = ("name", "attrs", "counters", "events", "children",
                 "wall_start", "wall_s", "sim_start", "sim_end", "status")

    def __init__(self, name, attrs=None, sim_start=0.0):
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.counters = {}
        self.events = []
        self.children = []
        self.wall_start = time.perf_counter()
        self.wall_s = None
        self.sim_start = float(sim_start)
        self.sim_end = float(sim_start)
        self.status = "running"

    # ------------------------------------------------------------------
    def finish(self, sim_end=None, status="ok"):
        self.wall_s = time.perf_counter() - self.wall_start
        if sim_end is not None:
            self.sim_end = float(sim_end)
        self.status = status
        return self

    def add(self, counter, value=1):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def set(self, key, value):
        self.attrs[key] = value

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def walk(self):
        """Depth-first iteration over this span and its subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name):
        """First span in the subtree whose name equals or starts with
        ``name`` (prefix match lets callers ignore suffixes like the
        layer in ``inference:fc7``); None if absent."""
        for span in self.walk():
            if span.name == name or span.name.startswith(name):
                return span
        return None

    def find_all(self, name):
        return [
            span for span in self.walk()
            if span.name == name or span.name.startswith(name)
        ]

    def total(self, counter):
        """Sum of a counter over this span's whole subtree."""
        return sum(span.counters.get(counter, 0) for span in self.walk())

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_dict(self, _epoch=None):
        """JSON-safe dict of the subtree. Wall starts are exported
        relative to the outermost exported span so flame renderings
        work straight from the JSON."""
        epoch = self.wall_start if _epoch is None else _epoch
        wall_s = (
            self.wall_s if self.wall_s is not None
            else time.perf_counter() - self.wall_start
        )
        return {
            "name": self.name,
            "status": self.status,
            "wall_offset_s": round(self.wall_start - epoch, 9),
            "wall_s": round(wall_s, 9),
            "sim_start_s": self.sim_start,
            "sim_end_s": self.sim_end,
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
            "events": list(self.events),
            "children": [c.to_dict(_epoch=epoch) for c in self.children],
        }

    def __repr__(self):
        dur = "running" if self.wall_s is None else f"{self.wall_s:.4f}s"
        return (
            f"<Span {self.name}: {dur}, {len(self.children)} children, "
            f"counters={sorted(self.counters)}>"
        )


class Tracer:
    """Collects a span tree for one (or several) workload runs.

    Parameters
    ----------
    clock:
        Optional :class:`~repro.faults.clock.SimulatedClock`; when a
        fault injector is attached to the cluster context the executor
        shares its clock with the tracer so spans carry deterministic
        simulated timestamps. Without one, sim timestamps stay 0.
    name:
        Name of the implicit root span.
    """

    enabled = True

    def __init__(self, clock=None, name="trace"):
        self.clock = clock
        #: Optional :class:`~repro.observe.ledger.RunLedger`: when set
        #: (via ``ClusterContext.attach_ledger``) every span open/close
        #: and point event is streamed into the ledger as it happens —
        #: the live counterpart of the post-hoc ``export()`` tree.
        self.sink = None
        self.root = Span(name, sim_start=self._sim_now())
        self._stack = [self.root]

    # ------------------------------------------------------------------
    def _sim_now(self):
        return self.clock.now if self.clock is not None else 0.0

    @property
    def current(self):
        """The innermost open span."""
        return self._stack[-1]

    @contextmanager
    def span(self, name, **attrs):
        """Open a child span of the current span for the duration of
        the ``with`` block; exceptions mark the span's status."""
        span = Span(name, attrs, sim_start=self._sim_now())
        self._stack[-1].children.append(span)
        self._stack.append(span)
        if self.sink is not None:
            # Copy: the span keeps mutating attrs after the open event,
            # and the ledger's memory view must match what hit disk.
            self.sink.emit("span_start", name=name,
                           attrs=dict(span.attrs))
        try:
            yield span
        except BaseException as exc:
            span.finish(self._sim_now(),
                        status=f"error:{type(exc).__name__}")
            raise
        else:
            span.finish(self._sim_now())
        finally:
            self._stack.pop()
            if self.sink is not None:
                self.sink.emit("span_end", name=name,
                               status=span.status, span_s=span.wall_s)

    def add(self, counter, value=1):
        """Increment a counter on the current span."""
        self._stack[-1].add(counter, value)

    def set(self, key, value):
        """Set an attribute on the current span."""
        self._stack[-1].set(key, value)

    def event(self, name, **fields):
        """Record a point event on the current span, stamped with the
        simulated time."""
        self._stack[-1].events.append(
            {"event": name, "sim_time_s": self._sim_now(), **fields}
        )
        if self.sink is not None:
            self.sink.emit("trace_point", name=name, **fields)

    def record_op(self, name, seconds):
        """Add already-measured wall seconds to the current span's
        ``op_s:<name>`` counter. The CNN engine's ``op_timer`` hook
        uses this shape — the engine reads the clock itself, so the
        per-op cost stays at one call."""
        self._stack[-1].add(f"op_s:{name}", seconds)

    # ------------------------------------------------------------------
    def finish(self):
        """Close the root span and return it."""
        if self.root.status == "running":
            self.root.finish(self._sim_now())
        return self.root

    def export(self):
        """Finish and export the whole trace as a JSON-safe dict."""
        return self.finish().to_dict()

    def __repr__(self):
        return (
            f"<Tracer {self.root.name}: depth={len(self._stack)}, "
            f"{sum(1 for _ in self.root.walk())} spans>"
        )


class _NullSpanContext:
    """Shared no-op stand-in for both spans and their context
    managers; every mutating method silently discards its input."""

    __slots__ = ()
    name = "null"
    attrs = {}
    counters = {}
    events = ()
    children = ()
    wall_s = 0.0
    status = "ok"

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def add(self, counter, value=1):
        pass

    def set(self, key, value):
        pass

    def finish(self, *args, **kwargs):
        return self

    def __repr__(self):
        return "<NullSpan>"


_NULL_SPAN = _NullSpanContext()


class NullTracer:
    """Disabled tracer: every hook is a no-op. Instrumented code can
    test ``tracer.enabled`` before doing anything expensive (byte
    estimation, per-operator timing)."""

    enabled = False
    clock = None
    root = None
    sink = None

    def span(self, name, **attrs):
        return _NULL_SPAN

    @property
    def current(self):
        return _NULL_SPAN

    def add(self, counter, value=1):
        pass

    def set(self, key, value):
        pass

    def event(self, name, **fields):
        pass

    def record_op(self, name, seconds):
        pass

    def finish(self):
        return None

    def export(self):
        return None

    def __repr__(self):
        return "<NullTracer>"


#: The process-wide disabled tracer every layer defaults to.
NULL_TRACER = NullTracer()
