"""Task execution with wave-based memory accounting and fault recovery.

Tasks are grouped into waves of size ``cpu`` per worker, every task in
a wave holds its memory charge until the wave completes, and the
per-region accountants raise the Section 4.1 crash exceptions if a
wave's combined footprint overflows a region. This reproduces the
paper's "higher parallelism -> bigger footprint -> crash" behaviour.

*How* a wave's tasks physically execute is delegated to the context's
:class:`~repro.dataflow.backend.Backend`: the default
:class:`~repro.dataflow.backend.SerialBackend` runs them sequentially
in-process (deterministic, accounted as if ``cpu`` ran concurrently),
while :class:`~repro.dataflow.backend.ProcessPoolBackend` keeps up to
``cpu`` forked workers resident for the stage — ``run_partition_tasks``
brackets its waves in :meth:`~repro.dataflow.backend.Backend.stage` —
so ``cpu`` genuinely parallelizes each wave.
Scheduling — regrouping, retries, blacklisting, failover, commit
barriers — stays here and is identical across backends.

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

from repro.dataflow.backend import (  # noqa: F401  (re-exported: these
    SERIAL_BACKEND,                   # lived here before backends split out)
    _handle_task_failure,
    _maybe_blacklist,
    _record,
    resolve_backend,
)
from repro.exceptions import WorkerLost
from repro.faults.clock import SimulatedClock
from repro.faults.retry import RetryPolicy
from repro.memory.model import Region
from repro.metrics import NULL_METRICS
from repro.trace import NULL_TRACER

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


def _waves(items, width):
    for start in range(0, len(items), width):
        yield items[start:start + width]


def run_partition_tasks(context, partitions, task_fn, region=Region.USER,
                        charge_fn=None, what="udf execution",
                        on_commit=None):
    """Run ``task_fn(partition) -> result`` over every partition.

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
    results = [None] * len(partitions)
    injector = getattr(context, "fault_injector", None)
    policy = getattr(context, "retry_policy", None) or _DEFAULT_POLICY
    recovery = getattr(context, "recovery_log", None)
    clock = injector.clock if injector is not None else SimulatedClock()
    attempts = defaultdict(int)
    tracer = getattr(context, "tracer", NULL_TRACER)
    tracer.add("partitions", len(partitions))
    ledger = getattr(context, "ledger", None)
    if ledger is not None and ledger.enabled:
        ledger.emit("stage_tasks", what=what, partitions=len(partitions))
    pending = list(enumerate(partitions))
    committed = set()
    backend = getattr(context, "exec_backend", None) or SERIAL_BACKEND
    # The stage bracket is what lets a backend keep per-stage resources
    # (the process backend's resident workers) and release them on
    # every exit path; wave positions index ``partitions``.
    with backend.stage(context, partitions, task_fn):
        while pending:
            retry_next = []
            # Regrouping each round is what reassigns a blacklisted
            # worker's partitions: worker_for skips excluded nodes.
            for worker, items in _group_pairs(context, pending).items():
                _run_worker_share(
                    context, worker, items, task_fn, region, charge_fn,
                    what, results, attempts, retry_next, policy, injector,
                    recovery, clock, on_commit, committed,
                )
            # A partition already committed must never run again: a
            # wave discarded *after* an earlier wave committed (worker
            # lost between waves) reschedules only genuinely
            # uncommitted work.
            pending = [
                pair for pair in retry_next if pair[0] not in committed
            ]
    return results


def _run_worker_share(context, worker, items, task_fn, region, charge_fn,
                      what, results, attempts, retry_next, policy, injector,
                      recovery, clock, on_commit=None, committed=None):
    """Run one worker's partitions in waves of ``context.cpu``."""
    tracer = getattr(context, "tracer", NULL_TRACER)
    metrics = getattr(context, "metrics", NULL_METRICS)
    backend = getattr(context, "exec_backend", None) or SERIAL_BACKEND
    ledger = getattr(context, "ledger", None)
    ledger_on = ledger is not None and ledger.enabled
    occupancy = metrics.gauge("wave_tasks", worker=f"w{worker.node_id}")
    if committed is None:
        committed = set()
    for start in range(0, len(items), context.cpu):
        wave = items[start:start + context.cpu]
        tracer.add("waves")
        metrics.counter("waves_total", worker=f"w{worker.node_id}").inc()
        metrics.histogram("wave_size", worker=f"w{worker.node_id}").observe(
            len(wave)
        )
        occupancy.set(len(wave))
        if ledger_on:
            ledger.emit("wave_start", worker=worker.node_id,
                        size=len(wave), what=what)
        try:
            if injector is not None:
                injector.on_wave_start(worker.node_id, what=what)
            wave_results = backend.run_wave(
                context, worker, wave, task_fn, region, charge_fn, what,
                attempts, retry_next, policy, injector, recovery, clock,
            )
        except WorkerLost as loss:
            # The in-flight wave dies with the worker; everything this
            # worker had not finished fails over to live workers.
            if ledger_on:
                ledger.emit("wave_end", worker=worker.node_id,
                            results=0, what=what, status="worker-lost")
            _record(recovery, clock, "worker_lost", table=what,
                    worker=worker.node_id, fault=str(loss))
            context.blacklist_worker(worker.node_id)
            _record(recovery, clock, "blacklist", worker=worker.node_id,
                    reason="worker lost")
            scheduled = {position for position, _ in retry_next}
            retry_next.extend(
                pair for pair in items[start:] if pair[0] not in scheduled
            )
            return
        finally:
            occupancy.set(0)
        if ledger_on:
            ledger.emit("wave_end", worker=worker.node_id,
                        results=len(wave_results), what=what, status="ok")
        by_position = dict(wave)
        fresh = []
        for position, result in wave_results:
            if position in committed:
                continue  # the exactly-once commit barrier
            committed.add(position)
            results[position] = result
            if ledger_on:
                ledger.emit("task_commit", what=what,
                            partition=by_position[position].index)
            fresh.append((by_position[position], result))
        if on_commit is not None and fresh:
            on_commit(fresh)
        if worker.node_id in context.excluded_workers:
            # Blacklisted mid-wave by the failure threshold: committed
            # waves stand, the rest of the share is reassigned.
            scheduled = {position for position, _ in retry_next}
            retry_next.extend(
                pair for pair in items[start + context.cpu:]
                if pair[0] not in scheduled
            )
            return


def charge_model_replicas(context, model_bytes, region=Region.DL,
                          what="CNN model replicas"):
    """Charge ``cpu`` model replicas on every live worker (issue (1) of
    Section 4.1: each execution thread spawns its own DL model replica).

    Returns a callable that releases the charges; crashes with
    :class:`DLExecutionMemoryExceeded` if a worker cannot hold them.
    """
    charged = []
    try:
        for worker in context.live_workers():
            nbytes = context.cpu * int(model_bytes)
            try:
                worker.accountant.charge(region, nbytes, what=what)
            except Exception:
                # charge() increments before raising: roll this one back
                worker.accountant.release(region, nbytes)
                raise
            charged.append((worker, nbytes))
    except Exception:
        for worker, nbytes in charged:
            worker.accountant.release(region, nbytes)
        raise

    def release():
        for worker, nbytes in charged:
            worker.accountant.release(region, nbytes)

    return release
