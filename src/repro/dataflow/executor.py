"""Task execution with wave-based memory accounting and fault recovery.

Tasks are grouped into waves of size ``cpu`` per worker, every task in
a wave holds its memory charge until the wave completes, and the
per-region accountants raise the Section 4.1 crash exceptions if a
wave's combined footprint overflows a region. This reproduces the
paper's "higher parallelism -> bigger footprint -> crash" behaviour.

*How* a wave's tasks physically execute is delegated to the
:class:`~repro.dataflow.backend.Backend` its caller placed the stage on
(the context's, unless it says otherwise):
:class:`~repro.dataflow.backend.SerialBackend` runs them sequentially
in the driver (deterministic, accounted as if ``cpu`` ran concurrently),
while :class:`~repro.dataflow.backend.ProcessPoolBackend` keeps up to
``cpu`` forked workers resident for the stage, so ``cpu`` genuinely
parallelizes each wave. A backend only runs tasks. Everything that
decides a task's fate lives here, once: the per-stage :class:`_Stage`
owns wave scheduling, the wave's memory hold, retry/backoff,
blacklisting, failover and the exactly-once commit barrier, and hands
the backend one :class:`_Wave` per wave whose two calls —
``admit`` before a task runs, ``settle`` with what came of it — are the
only way an outcome gets back in.

On top of that sits the recovery layer. Because every table in this
engine is eagerly materialized, a task's input partition *is* its
lineage — re-running ``task_fn`` on the parent partition recomputes
the lost output exactly, the way Spark rebuilds a lost partition from
its RDD lineage. The scheduler therefore:

- retries **transient** task failures (injected crashes/OOMs from a
  :class:`~repro.faults.injector.FaultInjector`, real
  :class:`~repro.exceptions.TransientTaskOOM`) with capped exponential
  backoff on the simulated clock, up to
  ``RetryPolicy.max_task_attempts``;
- on :class:`~repro.exceptions.WorkerLost` discards the in-flight
  wave, blacklists the worker on the context, and fails its remaining
  partitions over to live workers (``ClusterContext.worker_for``'s
  exclusion ring);
- blacklists a worker after ``RetryPolicy.max_failures_per_worker``
  task failures (never the last live worker);
- re-raises deterministic Section 4.1 memory crashes unchanged — task
  retry cannot shrink a structural footprint; that is the
  degrade-and-retry supervisor's job — and wraps any other task error
  in a structured :class:`~repro.exceptions.TaskFailure`.

Every recovery action is appended to the context's
:class:`~repro.faults.retry.RecoveryLog` (if one is attached) with a
simulated timestamp.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import ExitStack

from repro.exceptions import TaskFailure, WorkerLost, WorkloadCrash
from repro.faults.clock import SimulatedClock
from repro.faults.retry import RetryPolicy
from repro.memory.model import Region

_DEFAULT_POLICY = RetryPolicy()


def group_by_worker(context, partitions):
    """Group (position, partition) pairs by their assigned worker."""
    return _group_pairs(context, enumerate(partitions))


def _group_pairs(context, pairs):
    grouped = defaultdict(list)
    for position, partition in pairs:
        grouped[context.worker_for(partition.index)].append(
            (position, partition)
        )
    return grouped


def run_partition_tasks(context, partitions, task_fn, region=Region.USER,
                        charge_fn=None, what="udf execution",
                        on_commit=None, backend=None):
    """Run ``task_fn(partition) -> result`` over every partition, on
    the ``backend`` the caller places this stage on (default: the context's).

    ``charge_fn(partition, result) -> bytes`` gives the per-task memory
    footprint charged to ``region`` on that partition's worker for the
    duration of its wave. ``on_commit(pairs)`` — if given — fires once
    per committed wave with that wave's ``(partition, result)`` pairs
    (after the wave survived its memory charges and any injected
    faults), which is the hook the checkpoint layer uses for
    wave-granular durability: a partition lost with a mid-wave
    ``WorkerLost`` is never reported committed, and the
    committed-position set guarantees the barrier reports each
    partition **exactly once** even when retry rounds or a parallel
    backend complete waves out of partition order.
    Results are returned in partition order; transient failures are
    retried from lineage as described in the module docstring.
    """
    return _Stage(
        context, partitions, task_fn, region, charge_fn, what, on_commit,
        backend or context.exec_backend,
    ).run()


class _Stage:
    """The scheduler's state for one ``run_partition_tasks`` call: what
    runs and on which backend, the context's recorders and recovery
    state resolved once, and every task's fate so far. A backend sees
    ``context``, ``partitions``, ``task_fn`` and ``what`` (in
    :meth:`~repro.dataflow.backend.Backend.stage`) and nothing else."""

    def __init__(self, context, partitions, task_fn, region, charge_fn,
                 what, on_commit, backend):
        self.context = context
        self.backend = backend
        self.partitions = partitions
        self.task_fn = task_fn
        self.region = region
        self.charge_fn = charge_fn
        self.what = what
        self.on_commit = on_commit
        self.injector = context.fault_injector
        self.policy = context.retry_policy or _DEFAULT_POLICY
        self.recovery = context.recovery_log
        self.clock = (
            self.injector.clock if self.injector is not None
            else SimulatedClock()
        )
        self.tracer = context.tracer
        self.metrics = context.metrics
        self.ledger = context.ledger
        self.attempts = defaultdict(int)    # partition index -> tries
        self.retry_next = []                # pairs for the next round
        self.committed = set()              # positions past the barrier
        self.results = [None] * len(partitions)

    def run(self):
        self.tracer.add("partitions", len(self.partitions))
        self.ledger.emit("stage_tasks", what=self.what,
                         partitions=len(self.partitions))
        pending = list(enumerate(self.partitions))
        # The stage bracket is what lets a backend keep per-stage
        # resources (the process backend's resident workers) and
        # release them on every exit path; wave positions index
        # ``partitions``.
        with self.backend.stage(self):
            while pending:
                self.retry_next = []
                # Regrouping each round is what reassigns a blacklisted
                # worker's partitions: worker_for skips excluded nodes.
                grouped = _group_pairs(self.context, pending)
                for worker, items in grouped.items():
                    self._run_worker_share(worker, items)
                # A partition already committed must never run again: a
                # wave discarded *after* an earlier wave committed
                # (worker lost between waves) reschedules only
                # genuinely uncommitted work.
                pending = [
                    pair for pair in self.retry_next
                    if pair[0] not in self.committed
                ]
        return self.results

    def _run_worker_share(self, worker, items):
        """Run one worker's partitions in waves of ``context.cpu``."""
        context, what, ledger = self.context, self.what, self.ledger
        for start in range(0, len(items), context.cpu):
            tasks = items[start:start + context.cpu]
            self.tracer.add("waves")
            ledger.emit("wave_start", worker=worker.node_id,
                        size=len(tasks), what=what)
            try:
                # Every charge of the wave is held until the wave ends
                # and released here, whatever the backend raised.
                with worker.accountant.holding(self.region) as held:
                    wave = _Wave(self, worker, tasks, held)
                    if self.injector is not None:
                        self.injector.on_wave_start(worker.node_id, what=what)
                    self.backend.run_wave(wave)
            except WorkerLost as loss:
                # The in-flight wave dies with the worker; everything
                # this worker had not finished fails over to live
                # workers.
                ledger.emit("wave_end", worker=worker.node_id,
                            results=0, what=what, status="worker-lost")
                self._record("worker_lost", table=what,
                             worker=worker.node_id, fault=str(loss))
                context.blacklist_worker(worker.node_id)
                self._record("blacklist", worker=worker.node_id,
                             reason="worker lost")
                self._reschedule(items[start:])
                return
            ledger.emit("wave_end", worker=worker.node_id,
                        results=len(wave.results), what=what, status="ok")
            self._commit(dict(tasks), wave.results)
            if worker.node_id in context.excluded_workers:
                # Blacklisted mid-wave by the failure threshold:
                # committed waves stand, the rest of the share is
                # reassigned.
                self._reschedule(items[start + context.cpu:])
                return

    def _commit(self, by_position, wave_results):
        """The exactly-once commit barrier: a position passes once,
        however many times a backend settled it."""
        fresh = []
        for position, result in wave_results:
            if position in self.committed:
                continue
            self.committed.add(position)
            self.results[position] = result
            fresh.append((by_position[position], result))
        if self.on_commit is not None and fresh:
            self.on_commit(fresh)

    def _reschedule(self, pairs):
        scheduled = {position for position, _ in self.retry_next}
        self.retry_next.extend(
            pair for pair in pairs if pair[0] not in scheduled
        )

    def _handle_task_failure(self, worker, position, partition, attempt,
                             exc):
        """Decide a failed task's fate: retry from lineage, hand a
        deterministic memory crash to the supervisor, or raise a
        structured TaskFailure."""
        policy = self.policy
        if (getattr(exc, "transient", False)
                and attempt < policy.max_task_attempts):
            worker.task_failures += 1
            # keyed jitter: same-wave retries of different partitions
            # desynchronize instead of stampeding a shared store
            # together
            backoff = policy.backoff_s(attempt, key=partition.index)
            self.clock.advance(backoff)
            self.tracer.add("task_retries")
            self.metrics.counter(
                "task_retries_total", worker=f"w{worker.node_id}",
                fault=type(exc).__name__,
            ).inc()
            self._record("task_retry", table=self.what,
                         partition=partition.index, worker=worker.node_id,
                         attempt=attempt, fault=type(exc).__name__,
                         backoff_s=backoff)
            if worker.task_failures == policy.max_failures_per_worker:
                self._maybe_blacklist(worker)
            self.retry_next.append((position, partition))
            return
        if isinstance(exc, WorkloadCrash):
            # Structural memory overflow (or a transient one out of
            # retry budget): typed for the degrade-and-retry
            # supervisor.
            raise exc
        # ``from exc`` keeps the original traceback on __cause__; the
        # log entry mirrors the chain so post-mortems see *what*
        # failed, not just the structured wrapper.
        self._record("task_failure", table=self.what,
                     partition=partition.index, worker=worker.node_id,
                     attempt=attempt, cause=type(exc).__name__,
                     error=str(exc))
        raise TaskFailure(
            partition_index=partition.index, worker_id=worker.node_id,
            attempt=attempt, cause=exc,
        ) from exc

    def _maybe_blacklist(self, worker):
        """Blacklist a repeatedly failing worker — unless it is the
        last one standing, in which case the cluster limps on."""
        context = self.context
        if worker.node_id in context.excluded_workers:
            return
        survivors = [
            w for w in context.live_workers() if w.node_id != worker.node_id
        ]
        if not survivors:
            self._record("blacklist_suppressed", worker=worker.node_id,
                         reason="last live worker")
            return
        context.blacklist_worker(worker.node_id)
        self._record("blacklist", worker=worker.node_id,
                     reason="max task failures")

    def _record(self, event, **fields):
        if self.recovery is not None:
            self.recovery.record(event, sim_time_s=self.clock.now, **fields)


class _Wave:
    """One wave, as a backend sees it: ``tasks`` — its ``(position,
    partition)`` pairs in wave order — ``task_fn``, the ``worker`` they
    are placed on, and the two calls that hand each task's fate back
    to the scheduler. A backend runs ``task_fn(partition)`` for every
    task :meth:`admit` lets through and reports what came of it to
    :meth:`settle`; a :class:`~repro.exceptions.WorkerLost` it raises
    (or that ``admit`` raises) discards the whole wave."""

    def __init__(self, stage, worker, tasks, held):
        self.worker = worker
        self.tasks = tasks
        self.task_fn = stage.task_fn
        self.results = []
        self._stage = stage
        self._held = held
        # resolved once per wave: settle() is the per-task hot path
        self._tasks_counter = stage.metrics.counter(
            "tasks_total", worker=f"w{worker.node_id}"
        )

    def admit(self, position, partition):
        """Start one attempt of a task: its attempt number, or None
        when fault injection failed it and it was scheduled to retry
        (a failure out of retries raises instead)."""
        stage = self._stage
        attempt = stage.attempts[partition.index] = (
            stage.attempts[partition.index] + 1
        )
        if stage.injector is not None:
            try:
                stage.injector.on_task_start(
                    what=stage.what, partition_index=partition.index,
                    worker_id=self.worker.node_id, attempt=attempt,
                )
            except WorkerLost:
                raise
            except Exception as exc:
                stage._handle_task_failure(
                    self.worker, position, partition, attempt, exc
                )
                return None
        return attempt

    def settle(self, position, partition, attempt, result=None, error=None):
        """Hand back what ``task_fn`` returned, or the ``error`` it
        raised. A result is counted, charged to the worker's region
        for the rest of the wave and queued for the commit barrier. An
        error — the task's, or the charge's: a task whose charge
        overflows is still counted as run — is retried from lineage if
        transient and returned; otherwise it raises. Returns None when
        the result stands."""
        stage = self._stage
        if error is None:
            self.worker.tasks_run += 1
            stage.tracer.add("tasks")
            self._tasks_counter.inc()
            try:
                if stage.charge_fn is not None:
                    nbytes = stage.charge_fn(partition, result)
                    stage.tracer.add("charged_bytes", nbytes)
                    self._held.charge(nbytes, what=stage.what)
            except WorkerLost:
                raise
            except Exception as exc:
                error = exc
            else:
                self.results.append((position, result))
                return None
        stage._handle_task_failure(
            self.worker, position, partition, attempt, error
        )
        return error


def hold_on_live_workers(context, region, nbytes, what):
    """Charge ``nbytes`` of ``region`` on every live worker. Returns
    the :class:`~contextlib.ExitStack` holding the charges: leave it as
    a ``with`` block or call its ``close()`` to release them. A charge
    that overflows raises its Section 4.1 crash with nothing left
    charged on any worker."""
    with ExitStack() as held:
        for worker in context.live_workers():
            held.enter_context(
                worker.accountant.reserve(region, nbytes, what=what)
            )
        return held.pop_all()


def charge_model_replicas(context, model_bytes, region=Region.DL,
                          what="CNN model replicas"):
    """Charge ``cpu`` model replicas on every live worker (issue (1) of
    Section 4.1: each execution thread spawns its own DL model replica).

    Returns a callable that releases the charges; crashes with
    :class:`DLExecutionMemoryExceeded` if a worker cannot hold them.
    """
    return hold_on_live_workers(
        context, region, context.cpu * int(model_bytes), what
    ).close
