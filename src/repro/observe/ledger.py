"""The streaming run ledger: an append-only ``obs/v1`` JSONL stream.

Every observable fact of a run — span starts/ends from the tracer,
throttled metric samples, recovery/fault events, optimizer decisions,
wave and fork lifecycle from the dataflow backends — is appended to
one ledger *as it happens*, so a run that never returns (real SIGKILL
included, per the process backend) still leaves a readable record up
to the kill point.

Durability discipline
---------------------
:mod:`repro.recovery.store` writes whole artifacts with
tmp + fsync + ``os.replace`` so a torn write can never be mistaken for
a valid checkpoint. The ledger is the append-stream analogue of that
discipline, with group commit: the file is opened ``O_APPEND``,
events buffer in userspace as complete JSON lines, and every *flush*
is **one** ``write_all`` of whole lines — flushed at wave boundaries,
on every :data:`BARRIER_KINDS` event, and every
:data:`FLUSH_EVERY` events. So a SIGKILLed *driver* leaves a ledger
current to the last wave boundary (the "within one wave of the kill"
guarantee the fault tests assert), and a tear can only hit the final
line of the final flush (kernel-interrupted write, i.e. power loss,
not process death) — :func:`read_ledger` tolerates exactly that one
torn tail. ``fsync`` runs only on barrier kinds (open, recovery
actions, run end); per-event syscalls or syncs would add to the
telemetry overhead — matching the store's "durable at the moments
that matter" stance. That overhead has a <5% target (``staged_ledgered``
vs ``staged_alexnet`` ``wall_s`` in ``benchmarks/e2e``) which is not
met: the ratio reads 1.13 over ten runs at commit ``6f53246``.
The ROADMAP's telemetry write-side item owns it.

Fork safety
-----------
The process backend forks its stage-resident workers mid-run and they
inherit the ledger fd. ``emit`` records the opening process's pid and
becomes a no-op in any other process, so worker writes can never
interleave with the parent's: workers ship their observability deltas
in their result frames and the *parent* emits ``task_fork`` (task
handed to a worker; ``spawn_s`` > 0 when that forked it) and
``task_collect`` (``compute_s``, ``wait_s``, ``transfer_bytes``)
events on their behalf.
"""

from __future__ import annotations

import json
import os
import time

from repro.atomic_io import write_all

#: Version tag carried by every ledger event.
LEDGER_SCHEMA = "obs/v1"

#: Event kinds that are fsynced immediately: the facts a post-mortem
#: cannot afford to lose. Everything else rides the page cache (it
#: still survives process death — only machine death can lose it).
BARRIER_KINDS = frozenset({
    "ledger_open",
    "run_meta",
    "stage_plan",
    "optimizer_decision",
    "recovery",
    "run_end",
})

#: The ``obs/v1`` event taxonomy (DESIGN.md §4k). ``validate_events``
#: accepts unknown kinds (forward compatibility) but flags events
#: missing the envelope fields below.
EVENT_KINDS = frozenset({
    "ledger_open",        # first event; records pid and path
    "run_meta",           # workload identity (model, dataset, records)
    "stage_plan",         # predicted per-stage seconds (progress/ETA)
    "optimizer_decision", # Algorithm 1's chosen configuration
    "span_start",         # tracer span opened
    "span_end",           # tracer span closed (status, wall_s)
    "trace_point",        # tracer point event
    "metric",             # throttled metric sample
    "stage_tasks",        # scheduler: partitions entering a stage
    "wave_start",         # scheduler: a wave dispatched to a worker
    "wave_end",           # scheduler: a wave's results committed
    "task_commit",        # exactly-once commit of one partition
    "task_fork",          # process backend: task sent to worker (pid)
    "task_collect",       # process backend: its frame collected (status)
    "recovery",           # RecoveryLog entry (retry/blacklist/degrade/…)
    "run_end",            # run returned (status ok/crash)
})

#: Envelope fields every event carries.
REQUIRED_FIELDS = ("schema", "seq", "wall_s", "sim_time_s", "kind")

#: Event kinds that force a flush of the userspace line buffer: wave
#: boundaries (the granularity the fault tests assert the ledger is
#: current to) plus every barrier kind.
FLUSH_KINDS = BARRIER_KINDS | frozenset({"wave_start", "wave_end"})

#: Flush the buffer unconditionally once this many lines accumulate,
#: so span/metric-only stretches (e.g. the eager inference stage) still
#: reach the file with bounded lag.
FLUSH_EVERY = 64


class RunLedger:
    """Append-only JSONL event stream for one run.

    Parameters
    ----------
    path:
        Ledger file (opened ``O_APPEND``, created if missing). ``None``
        keeps events in memory only — what ``--progress`` without
        ``--ledger`` uses.
    clock:
        Optional :class:`~repro.faults.clock.SimulatedClock`; attached
        contexts share the fault injector's clock here so events carry
        deterministic simulated timestamps next to wall offsets.
    fsync_barriers:
        fsync on :data:`BARRIER_KINDS` (default). Tests that hammer the
        ledger can turn it off.
    """

    enabled = True

    def __init__(self, path=None, clock=None, fsync_barriers=True):
        self.path = path
        self.clock = clock
        self.fsync_barriers = bool(fsync_barriers)
        self.events = []
        #: Callables ``listener(event_dict)`` invoked on every emit in
        #: the owning process — the live progress monitor's feed.
        self.listeners = []
        self._seq = 0
        self._epoch = time.perf_counter()
        self._owner_pid = os.getpid()
        self._fd = -1
        self._buffer = []
        if path is not None:
            self._fd = os.open(
                os.fspath(path),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644,
            )
        self.emit("ledger_open", pid=self._owner_pid,
                  path=str(path) if path is not None else None)

    # ------------------------------------------------------------------
    def _sim_now(self):
        return self.clock.now if self.clock is not None else 0.0

    def emit(self, kind, **fields):
        """Append one event; returns the event dict (None when emitted
        from a forked child, where the ledger is owned elsewhere)."""
        if os.getpid() != self._owner_pid:
            return None
        self._seq += 1
        event = {
            "schema": LEDGER_SCHEMA,
            "seq": self._seq,
            "wall_s": round(time.perf_counter() - self._epoch, 6),
            "sim_time_s": self._sim_now(),
            "kind": kind,
        }
        event.update(fields)
        self.events.append(event)
        if self._fd >= 0:
            # Envelope keys lead in insertion order; no sort_keys — this
            # runs per span/commit and the order is not part of obs/v1.
            self._buffer.append(json.dumps(
                event, separators=(",", ":"), default=str
            ).encode("utf-8"))
            if kind in FLUSH_KINDS or len(self._buffer) >= FLUSH_EVERY:
                self.flush()
                if self.fsync_barriers and kind in BARRIER_KINDS:
                    os.fsync(self._fd)
        for listener in self.listeners:
            listener(event)
        return event

    def flush(self):
        """Group-commit buffered lines: one ``write_all`` of complete
        lines (a short write is finished, never dropped), so a tear can
        only ever hit the final line."""
        if self._buffer and self._fd >= 0:
            payload = b"\n".join(self._buffer) + b"\n"
            self._buffer = []
            write_all(self._fd, payload)

    def close(self):
        """Flush and close the file (idempotent); memory events stay."""
        if self._fd >= 0 and os.getpid() == self._owner_pid:
            self.flush()
            try:
                os.fsync(self._fd)
            except OSError:
                pass
            os.close(self._fd)
        self._fd = -1

    # ------------------------------------------------------------------
    def of(self, kind):
        return [e for e in self.events if e.get("kind") == kind]

    def count(self, kind):
        return len(self.of(kind))

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __repr__(self):
        where = self.path if self.path is not None else "memory"
        return f"<RunLedger {where}: {self._seq} events>"


class NullLedger:
    """Disabled ledger: every hook is a no-op. Instrumented code tests
    ``ledger.enabled`` before assembling anything expensive."""

    enabled = False
    clock = None
    path = None
    events = ()
    listeners = ()

    def emit(self, kind, **fields):
        return None

    def flush(self):
        pass

    def close(self):
        pass

    def of(self, kind):
        return []

    def count(self, kind):
        return 0

    def __len__(self):
        return 0

    def __iter__(self):
        return iter(())

    def __repr__(self):
        return "<NullLedger>"


#: The process-wide disabled ledger every context defaults to.
NULL_LEDGER = NullLedger()


# ----------------------------------------------------------------------
# reading and validation
# ----------------------------------------------------------------------
def parse_ledger(raw):
    """Parse the bytes of an append-only JSONL stream into ``(events,
    problems)`` — the one tolerant line parser every reader of a
    ledger (and of the history store's index) goes through.

    Tolerates exactly one torn line at the very end (the only tear a
    single-write append stream can suffer); a torn tail is reported as
    ``"torn tail: …"`` in ``problems`` but any *interior* unparseable
    line is a real problem. Callers that only want the events can
    ignore ``problems``; :func:`validate_events` layers the schema
    checks on top.
    """
    events = []
    problems = []
    lines = raw.split(b"\n")
    trailing_newline = raw.endswith(b"\n")
    if trailing_newline:
        lines = lines[:-1]
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            event = json.loads(line.decode("utf-8", errors="replace"))
            if not isinstance(event, dict):
                raise ValueError("event is not an object")
        except ValueError as exc:
            is_tail = index == len(lines) - 1 and not trailing_newline
            label = "torn tail" if is_tail else f"line {index + 1}"
            problems.append(f"{label}: {exc}")
            continue
        events.append(event)
    return events, problems


def read_ledger(path):
    """:func:`parse_ledger` over a ledger file's bytes."""
    with open(path, "rb") as handle:
        return parse_ledger(handle.read())


def validate_events(events):
    """``obs/v1`` schema problems for a parsed event list (empty list
    when every event validates): envelope fields present and typed,
    the schema tag right, and ``seq`` strictly increasing."""
    problems = []
    last_seq = 0
    for position, event in enumerate(events):
        where = f"event {position + 1}"
        for field in REQUIRED_FIELDS:
            if field not in event:
                problems.append(f"{where}: missing {field!r}")
        schema = event.get("schema")
        if schema is not None and schema != LEDGER_SCHEMA:
            problems.append(
                f"{where}: schema {schema!r} != {LEDGER_SCHEMA!r}"
            )
        kind = event.get("kind")
        if kind is not None and (not isinstance(kind, str) or not kind):
            problems.append(f"{where}: kind must be a non-empty string")
        for field in ("wall_s", "sim_time_s"):
            value = event.get(field)
            if value is not None and not isinstance(value, (int, float)):
                problems.append(f"{where}: {field} must be numeric")
        seq = event.get("seq")
        if isinstance(seq, int):
            if seq <= last_seq:
                problems.append(
                    f"{where}: seq {seq} not increasing (last {last_seq})"
                )
            last_seq = seq
        elif seq is not None:
            problems.append(f"{where}: seq must be an integer")
    return problems
