"""Physical execution backends for the wave-based task engine.

The scheduler in :mod:`repro.dataflow.executor` decides *what* runs and
what becomes of it — which partitions form a wave, the attempt count,
fault screening, memory charges, who retries, who gets blacklisted. A
:class:`Backend` only runs tasks: it decides *how* one wave's tasks
physically execute. *Where* a stage runs is its caller's choice, per
stage (``run_partition_tasks(..., backend=)``; the context's
``exec_backend`` is the default): the plan interpreter sends only
compute-dense ``INFER`` steps there
(:func:`repro.core.executor.dispatches`) and runs every other stage on
:data:`SERIAL_BACKEND`, in the driver, where its table already is.

- :class:`SerialBackend` runs the wave's tasks sequentially in the
  driver; memory is still *accounted* as if ``cpu`` ran concurrently.
- :class:`ProcessPoolBackend` keeps up to ``cpu`` forked workers
  resident for the duration of a stage (§4.1's "each execution thread
  holds its replica for the stage"), so a wave of ``cpu`` tasks
  occupies ``cpu`` cores. A result travels back over a pipe as one
  length-prefixed frame whose payload is the VCB1 single-buffer
  encoding (:meth:`~repro.dataflow.columnar.ColumnarBlock.to_buffer`),
  so tensors are never pickled; a dead worker — real ``SIGKILL``
  included — is a short read on its pipe and surfaces as a genuine
  :class:`~repro.exceptions.WorkerLost` for the lineage/retry/blacklist
  machinery. Workers hold two pipe ends and nothing named, and are
  killed and reaped when the stage exits on every path; a worker whose
  driver dies reads EOF on its command pipe and exits.

Backends expose two hooks, one argument each: :meth:`Backend.stage`
brackets one stage and :meth:`Backend.run_wave` takes each task of one
wave through ``admit`` → ``task_fn`` → ``settle``
(:class:`~repro.dataflow.executor._Wave`: counting, charging, retry
and failure routing happen inside those two calls);
:class:`~repro.exceptions.WorkerLost` propagates out of all three
untouched.

``wave.admit`` screens fault injection in the *driver*, in wave order,
before anything is dispatched, so injected crashes, OOMs, stragglers
and simulated worker losses take the same seeded RNG draws on every
backend — which keeps recovered outputs bit-identical across them. The
one fault only a dispatched stage can take, ``worker-kill``
(:func:`repro.faults.plan.FaultPlan.worker_kill`), SIGKILLs the real
worker — before its task is sent (``phase="start"``) or after it
announced its result frame but before the frame was transferred
(``phase="transfer"``).
"""

from __future__ import annotations

import fcntl
import os
import pickle
import signal
import struct
from contextlib import contextmanager, nullcontext
from time import perf_counter

from repro.dataflow.columnar import ColumnarBlock
from repro.exceptions import WorkerLost

#: Worker -> parent frame header: pickled-meta length, payload length.
_FRAME_HEADER = struct.Struct("<II")
#: Parent -> worker command: the task's position in the stage's
#: partition list.
_COMMAND = struct.Struct("<I")


class Backend:
    """Protocol for physical task execution.

    ``stage`` brackets every wave of one ``run_partition_tasks`` call;
    ``run_wave`` runs one wave's tasks through the scheduler's
    ``admit`` → ``task_fn`` → ``settle`` protocol and returns nothing:
    results reach the scheduler through ``settle`` only.
    """

    name = "abstract"

    def stage(self, stage):
        """Context manager held for one stage. ``stage`` carries
        ``context``, ``partitions`` (which the positions of every
        wave's ``tasks`` index), ``task_fn`` and ``what``. A no-op
        unless the backend keeps per-stage resources."""
        return nullcontext()

    def run_wave(self, wave):
        raise NotImplementedError

    def close(self):
        """Release any backend-held resources (idempotent)."""

    def __repr__(self):
        return f"<{type(self).__name__}>"


class SerialBackend(Backend):
    """The in-process engine: tasks run sequentially, deterministic
    by construction, memory accounted as if ``cpu`` ran concurrently."""

    name = "serial"

    def run_wave(self, wave):
        for position, partition in wave.tasks:
            attempt = wave.admit(position, partition)
            if attempt is None:
                continue
            result = error = None
            try:
                result = wave.task_fn(partition)
            except WorkerLost:
                raise
            except Exception as exc:
                error = exc
            wave.settle(position, partition, attempt, result, error)


class _Slot:
    """Parent-side handle on one resident worker process."""

    __slots__ = ("lane", "pid", "command_w", "result_r", "busy")

    def __init__(self, lane, pid, command_w, result_r):
        self.lane = lane
        self.pid = pid
        self.command_w = command_w
        self.result_r = result_r
        self.busy = False   # a command was sent, its frame not yet read


class ProcessPoolBackend(Backend):
    """Up to ``cpu`` stage-resident forked workers, results over pipes.

    Inside :meth:`stage`, the i-th surviving task of a wave goes to
    lane i; a lane's worker is forked the first time the lane is used
    (and again after it was killed), binds itself to the lane's share
    of the driver's cores and serves one task per wave until the stage
    exits. It inherits ``task_fn`` and the stage's partition list by
    fork — no closure pickling, ever — so it sees parent state as of
    its fork: ``task_fn`` must not depend on parent mutations made
    mid-stage (engine tasks never do).

    Protocol per task:

    1. parent admits the task (fault injection screened in wave order
       on the parent RNG), then writes its 4-byte position down the
       lane's command pipe;
    2. worker runs the task, encodes the result (``ColumnarBlock`` →
       VCB1 single buffer, anything else → pickle), writes an 8-byte
       frame header (meta length, payload length), waits for a 1-byte
       go-ahead on the command pipe, then writes the pickled meta
       (status, shippable exception, metric counter deltas, per-op
       timer samples, ``compute_s``) and the payload;
    3. parent collects in wave order: a short read (worker killed,
       crashed, torn pipe) reaps the worker and raises
       :class:`WorkerLost` for the wave; a shipped task exception, or
       the result decoded as views over the buffer the frame was read
       into, is settled with the scheduler exactly as the serial
       backend settles it.
    """

    name = "process"

    def __init__(self):
        self._stage = None  # the scheduler's stage, inside stage()
        self._slots = {}    # lane -> _Slot of its live worker

    @contextmanager
    def stage(self, stage):
        outer = self._stage, self._slots
        self._stage, self._slots = stage, {}
        try:
            yield
        finally:
            self.close()
            self._stage, self._slots = outer

    def close(self):
        """Kill and reap any live worker (idempotent)."""
        live = list(self._slots.values())
        self._slots.clear()
        # signal all first so the exits overlap, then reap
        for slot in live:
            _hang_up(slot)
        for slot in live:
            os.waitpid(slot.pid, 0)

    # ------------------------------------------------------------------
    def run_wave(self, wave):
        stage = self._stage
        if stage is None:
            raise RuntimeError("run_wave called outside Backend.stage()")
        what, worker = stage.what, wave.worker
        injector = stage.context.fault_injector
        ledger = stage.context.ledger
        dispatched = []
        try:
            # Phase 1 — admit and dispatch, in wave order. All
            # surviving tasks run concurrently once dispatched.
            for position, partition in wave.tasks:
                attempt = wave.admit(position, partition)
                if attempt is None:
                    continue
                kill_phase = None
                if injector is not None:
                    kill_phase = injector.on_task_fork(
                        what=what, partition_index=partition.index,
                        worker_id=worker.node_id, attempt=attempt,
                    )
                # the i-th surviving task of a wave runs on lane i
                slot, spawn_s = self._slot(len(dispatched))
                slot.busy = True
                if kill_phase == "start":
                    os.kill(slot.pid, signal.SIGKILL)
                else:
                    _send(slot, _COMMAND.pack(position))
                dispatched.append(
                    (slot, position, partition, attempt, kill_phase)
                )
                # The parent emits on the worker's behalf: the forked
                # process inherits the ledger fd but its emit() is an
                # owner-pid-guarded no-op.
                ledger.emit("task_fork", pid=slot.pid,
                            partition=partition.index, attempt=attempt,
                            what=what, spawn_s=round(spawn_s, 6))
            # Phase 2 — collect and settle in wave order.
            for slot, position, partition, attempt, kill_phase in dispatched:
                stats = {"compute_s": 0.0, "transfer_bytes": 0, "wait_s": 0.0}
                result = error = None
                status = "ok"
                try:
                    result = self._collect(
                        slot, partition, kill_phase, worker, stats
                    )
                except WorkerLost:
                    status = "worker-lost"
                    raise
                except Exception as exc:
                    error, status = exc, f"error:{type(exc).__name__}"
                finally:
                    ledger.emit("task_collect", pid=slot.pid,
                                partition=partition.index, status=status,
                                **stats)
                wave.settle(position, partition, attempt, result, error)
        finally:
            # A wave that ended early (WorkerLost, TaskFailure, crash)
            # leaves lanes with an unread frame: their pipes are out of
            # step, so those workers go; the lane re-forks on next use.
            for slot, *_ in dispatched:
                if slot.busy:
                    self._reap(slot)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _slot(self, lane):
        """The lane's resident worker and the seconds spent forking it
        (0.0 when it was already resident)."""
        stage, slots = self._stage, self._slots
        if lane in slots:
            return slots[lane], 0.0
        started = perf_counter()
        command_r, command_w = os.pipe()
        result_r, result_w = os.pipe()
        _widen(result_w)
        pid = os.fork()
        if pid == 0:
            # Worker: never returns. os._exit keeps pytest/atexit
            # machinery inherited over fork from ever running here.
            code = 1
            try:
                os.close(command_w)
                os.close(result_r)
                # Siblings' parent-side ends came along with the fork;
                # holding them would keep a sibling from ever seeing
                # EOF when the driver dies.
                for sibling in slots.values():
                    os.close(sibling.command_w)
                    os.close(sibling.result_r)
                _claim_cores(lane, stage.context.cpu)
                _worker_main(command_r, result_w, stage)
                code = 0
            except BaseException:
                pass
            finally:
                os._exit(code)
        os.close(command_r)
        os.close(result_w)
        slot = slots[lane] = _Slot(lane, pid, command_w, result_r)
        return slot, perf_counter() - started

    def _reap(self, slot):
        """Kill the worker (a no-op on one already dead), free its
        lane, and return its exit code."""
        self._slots.pop(slot.lane, None)
        slot.busy = False
        _hang_up(slot)
        _, status = os.waitpid(slot.pid, 0)
        return os.waitstatus_to_exitcode(status)

    # ------------------------------------------------------------------
    # collect side
    # ------------------------------------------------------------------
    def _collect(self, slot, partition, kill_phase, worker, stats):
        """Read one worker's frame; fills ``stats`` (the ledger's
        ``task_collect`` fields) with what is known when it returns or
        raises."""
        started = perf_counter()
        header = bytearray(_FRAME_HEADER.size)
        announced = _read_into(slot.result_r, header) == len(header)
        stats["wait_s"] = round(perf_counter() - started, 6)
        body = None
        # crash-mid-transfer: the frame is announced, the go-ahead is
        # withheld, and the worker dies parked before its body.
        if announced and kill_phase != "transfer":
            meta_len, payload_len = _FRAME_HEADER.unpack(header)
            _send(slot, b"g")
            body = bytearray(meta_len + payload_len)
            if _read_into(slot.result_r, body) != len(body):
                body = None
        if body is None:
            code = self._reap(slot)
            raise WorkerLost(
                f"worker process {slot.pid} died "
                f"({_describe_exit(code)}) running partition "
                f"{partition.index}",
                worker_id=worker.node_id,
            )
        slot.busy = False
        # read-only, like the arrays every other VCB1 decode hands out
        frame = memoryview(body).toreadonly()
        meta = pickle.loads(frame[:meta_len])
        stats["compute_s"] = meta["compute_s"]
        stats["transfer_bytes"] = len(body)
        self._merge_worker_state(self._stage.context, meta)
        if meta["status"] == "error":
            raise meta["exception"]
        if meta["kind"] == "block":
            return ColumnarBlock.from_buffer(frame[meta_len:])
        return pickle.loads(frame[meta_len:])

    # ------------------------------------------------------------------
    # worker-state merge
    # ------------------------------------------------------------------
    def _merge_worker_state(self, context, meta):
        """Fold the worker's deltas into the driver's registries, so
        metrics and traces read the same whichever backend ran the
        wave: counters advance by the worker's increments, per-op timer
        samples extend the executor's deferred-flush dict (and replay
        onto the current span when tracing), task counters accumulate."""
        metrics = context.metrics
        if metrics.enabled:
            for (name, label_pairs), delta in meta["counters"]:
                if delta:
                    metrics.counter(name, **dict(label_pairs)).inc(delta)
        tracer = context.tracer
        op_samples = context.op_samples
        for op_name, seconds_list in meta["ops"].items():
            if tracer.enabled:
                for seconds in seconds_list:
                    tracer.record_op(op_name, seconds)
            op_samples.setdefault(op_name, []).extend(seconds_list)
        task_counters = context.task_counters
        for key, delta in meta["task_counters"].items():
            task_counters[key] = task_counters.get(key, 0) + delta


# ----------------------------------------------------------------------
# worker process body
# ----------------------------------------------------------------------
def _worker_main(command_r, result_w, stage):
    """Serve tasks until the command pipe reaches EOF (the stage closed
    it, or the driver died)."""
    command = bytearray(_COMMAND.size)
    go_ahead = bytearray(1)
    while _read_into(command_r, command) == len(command):
        (position,) = _COMMAND.unpack(command)
        meta, payload = _run_task(
            stage.context, stage.task_fn, stage.partitions[position]
        )
        frame = pickle.dumps(meta, protocol=pickle.HIGHEST_PROTOCOL)
        _write_all(result_w, _FRAME_HEADER.pack(len(frame), len(payload)))
        if not _read_into(command_r, go_ahead):
            return  # parked here when the parent withholds
        _write_all(result_w, frame)
        _write_all(result_w, payload)


def _run_task(context, task_fn, partition):
    """Run one task inside the worker; returns ``(meta, payload)``.

    The worker inherited the whole driver state by fork; it snapshots
    the mutable observability surfaces around ``task_fn`` and ships
    only the *deltas* — parent-side state is never written from here.
    """
    metrics = context.metrics
    live = metrics.enabled   # NULL_METRICS: no totals
    before_counters = metrics.counter_totals() if live else {}
    op_samples = context.op_samples
    before_ops = {name: len(vals) for name, vals in op_samples.items()}
    task_counters = context.task_counters
    before_tasks = dict(task_counters)

    meta = {"status": "ok", "kind": "pickle"}
    payload = b""
    started = perf_counter()
    try:
        result = task_fn(partition)
        if isinstance(result, ColumnarBlock):
            payload = result.to_buffer()
            meta["kind"] = "block"
        else:
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    except BaseException as exc:
        meta = {"status": "error", "exception": _shippable(exc)}
    meta["compute_s"] = round(perf_counter() - started, 6)

    after_counters = metrics.counter_totals() if live else {}
    meta["counters"] = [
        (key, total - before_counters.get(key, 0))
        for key, total in after_counters.items()
        if total != before_counters.get(key, 0)
    ]
    meta["ops"] = {
        name: vals[before_ops.get(name, 0):]
        for name, vals in op_samples.items()
        if len(vals) > before_ops.get(name, 0)
    }
    meta["task_counters"] = {
        key: value - before_tasks.get(key, 0)
        for key, value in task_counters.items()
        if value != before_tasks.get(key, 0)
    }
    return meta, payload


def _shippable(exc):
    """An exception instance that survives the pickle trip; falls back
    to a summary RuntimeError for exotic unpicklable errors."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# pipe helpers
# ----------------------------------------------------------------------
def _read_into(fd, buffer):
    """Fill ``buffer`` from ``fd``; returns the bytes that arrived —
    fewer than ``len(buffer)`` means EOF: the writer died or hung up."""
    view = memoryview(buffer)
    got = 0
    while got < len(view):
        count = os.readv(fd, [view[got:]])
        if not count:
            break
        got += count
    return got


def _write_all(fd, data):
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _send(slot, data):
    """Write to a worker's command pipe. A worker that already died is
    discovered by the short read that follows, not here."""
    try:
        _write_all(slot.command_w, data)
    except BrokenPipeError:
        pass


def _widen(fd):
    """Grow a result pipe to 1 MB (Linux's default ceiling) where the
    platform allows: a frame is then one write and one read instead of
    a block/wake round trip per 64 KB. Best effort."""
    try:
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, 1 << 20)
    except (AttributeError, OSError):
        pass


def _claim_cores(lane, lanes):
    """Bind the calling worker to lane ``lane``'s share of the cores
    the driver may use (every ``lanes``-th, wrapping when lanes exceed
    cores): tasks last milliseconds, too short for the scheduler to
    pull apart two fresh forks it stacked on one core."""
    if hasattr(os, "sched_setaffinity"):
        cores = sorted(os.sched_getaffinity(0))
        width = min(lanes, len(cores))
        os.sched_setaffinity(0, cores[lane % width::width])


def _hang_up(slot):
    """SIGKILL the worker and close the parent's pipe ends; the caller
    reaps. Safe on a worker that is already dead but not yet reaped.
    The kill goes first: a parked worker that saw EOF before the signal
    would exit 0 and the loss would not read as a kill."""
    os.kill(slot.pid, signal.SIGKILL)
    os.close(slot.command_w)
    os.close(slot.result_r)


def _describe_exit(code):
    if code < 0:
        try:
            return f"killed by {signal.Signals(-code).name}"
        except ValueError:
            return f"killed by signal {-code}"
    return f"exit status {code}"


#: The process-wide serial backend every context defaults to.
SERIAL_BACKEND = SerialBackend()

#: Name -> constructor for the CLI / context plumbing.
BACKENDS = {
    "serial": SerialBackend,
    "process": ProcessPoolBackend,
}


def resolve_backend(backend):
    """Accept a :class:`Backend` instance, a name (``"serial"`` /
    ``"process"``), or None (→ the shared serial backend)."""
    if backend is None:
        return SERIAL_BACKEND
    if isinstance(backend, Backend):
        return backend
    try:
        cls = BACKENDS[backend]
    except (KeyError, TypeError):
        raise ValueError(
            f"backend must be one of {sorted(BACKENDS)} or a Backend "
            f"instance, got {backend!r}"
        ) from None
    return SERIAL_BACKEND if cls is SerialBackend else cls()
