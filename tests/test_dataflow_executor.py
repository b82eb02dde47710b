"""Unit tests for wave-based task execution and DL replica charges."""

import pytest

from repro.dataflow.backend import Backend
from repro.dataflow.context import ClusterContext, local_context
from repro.dataflow.executor import (
    charge_model_replicas,
    group_by_worker,
    run_partition_tasks,
)
from repro.dataflow.partition import Partition
from repro.exceptions import (
    DLExecutionMemoryExceeded,
    TaskFailure,
    TransientTaskOOM,
    UserMemoryExceeded,
    WorkerLost,
)
from repro.faults import equip_context
from repro.memory.model import GB, MemoryBudget, Region


def _parts(n):
    return [Partition.from_rows(i, [{"id": i}]) for i in range(n)]


def test_group_by_worker_round_robin(ctx):
    grouped = group_by_worker(ctx, _parts(6))
    assert len(grouped) == 2
    for worker, items in grouped.items():
        assert all(p.index % 2 == worker.node_id for _, p in items)


def test_results_in_partition_order(ctx):
    parts = _parts(7)
    results = run_partition_tasks(ctx, parts, lambda p: p.index * 10)
    assert results == [i * 10 for i in range(7)]


def test_wave_accounting_scales_with_cpu():
    budget = MemoryBudget(
        system_bytes=8 * GB, os_reserved_bytes=0, user_bytes=250,
        core_bytes=1 * GB, storage_bytes=1 * GB, dl_bytes=1 * GB,
    )
    # cpu=1: one 100-byte charge at a time -> fits in 250.
    ctx1 = ClusterContext(budget, num_nodes=1, cores_per_node=4, cpu=1)
    run_partition_tasks(
        ctx1, _parts(4), lambda p: None, charge_fn=lambda p, r: 100
    )
    # cpu=4: four concurrent 100-byte charges -> 400 > 250: crash.
    ctx4 = ClusterContext(budget, num_nodes=1, cores_per_node=4, cpu=4)
    with pytest.raises(UserMemoryExceeded):
        run_partition_tasks(
            ctx4, _parts(4), lambda p: None, charge_fn=lambda p, r: 100
        )


def test_charges_released_after_waves(ctx):
    run_partition_tasks(
        ctx, _parts(8), lambda p: None, charge_fn=lambda p, r: 1000
    )
    assert all(w.accountant.used(Region.USER) == 0 for w in ctx.workers)


def test_charges_released_on_task_failure(ctx):
    def boom(partition):
        if partition.index == 3:
            raise RuntimeError("task failed")
        return None

    with pytest.raises(TaskFailure) as excinfo:
        run_partition_tasks(ctx, _parts(6), boom, charge_fn=lambda p, r: 10)
    assert all(w.accountant.used(Region.USER) == 0 for w in ctx.workers)
    # the failure carries structured scheduling context
    failure = excinfo.value
    assert failure.partition_index == 3
    assert failure.worker_id == ctx.worker_for(3).node_id
    assert failure.attempt == 1
    assert isinstance(failure.cause, RuntimeError)
    assert isinstance(failure.__cause__, RuntimeError)
    # a plain bug is neither transient nor recoverable by re-planning
    assert failure.transient is False
    assert failure.retryable is False


def test_tasks_run_counter(ctx):
    run_partition_tasks(ctx, _parts(10), lambda p: None)
    assert sum(w.tasks_run for w in ctx.workers) == 10


def test_model_replica_charge_per_worker_scales_with_cpu():
    budget = MemoryBudget(
        system_bytes=8 * GB, os_reserved_bytes=0, user_bytes=GB,
        core_bytes=GB, storage_bytes=GB, dl_bytes=1000,
    )
    ctx = ClusterContext(budget, num_nodes=2, cores_per_node=4, cpu=4)
    with pytest.raises(DLExecutionMemoryExceeded):
        charge_model_replicas(ctx, 300)  # 4 x 300 > 1000
    # nothing left charged after the failed attempt
    assert all(w.accountant.used(Region.DL) == 0 for w in ctx.workers)


def test_model_replica_release():
    ctx = local_context()
    release = charge_model_replicas(ctx, 1000)
    assert all(w.accountant.used(Region.DL) > 0 for w in ctx.workers)
    release()
    assert all(w.accountant.used(Region.DL) == 0 for w in ctx.workers)


# ---------------------------------------------------------------------
# the backend protocol, through a fake: what only the scheduler decides
# ---------------------------------------------------------------------
class _InlineBackend(Backend):
    """Runs tasks inline; misbehaves on request like a buggy backend."""

    def __init__(self, settle_twice=(), lose=None):
        self.admitted = []   # (partition index, attempt), in call order
        self.settle_twice = settle_twice
        self.lose = lose     # (worker id, tasks done): raise WorkerLost

    def run_wave(self, wave):
        for done, (position, partition) in enumerate(wave.tasks):
            if self.lose == (wave.worker.node_id, done):
                raise WorkerLost(worker_id=wave.worker.node_id)
            attempt = wave.admit(position, partition)
            self.admitted.append((partition.index, attempt))
            result = error = None
            try:
                result = wave.task_fn(partition)
            except Exception as exc:
                error = exc
            for _ in range(2 if partition.index in self.settle_twice else 1):
                wave.settle(position, partition, attempt, result, error)


def _inline_ctx(backend, user_bytes=GB):
    budget = MemoryBudget(
        system_bytes=8 * GB, os_reserved_bytes=0, user_bytes=user_bytes,
        core_bytes=GB, storage_bytes=GB, dl_bytes=GB,
    )
    return equip_context(ClusterContext(
        budget, num_nodes=2, cores_per_node=2, exec_backend=backend
    ))


def test_admit_counts_attempts_in_wave_order_across_a_retry():
    backend = _InlineBackend()
    ctx = _inline_ctx(backend)
    failed = []

    def flaky(partition):
        if partition.index == 2 and not failed:
            failed.append(partition.index)
            raise TransientTaskOOM("spike")
        return partition.index

    assert run_partition_tasks(ctx, _parts(6), flaky) == list(range(6))
    # worker 0's share in waves of cpu=2, then worker 1's, then the
    # retry round: one admit per attempt, the retried task's second
    assert backend.admitted == [
        (0, 1), (2, 1), (4, 1), (1, 1), (3, 1), (5, 1), (2, 2),
    ]
    assert ctx.recovery_log.count("task_retry") == 1


def test_a_position_settled_twice_commits_once():
    ctx = _inline_ctx(_InlineBackend(settle_twice={1, 4}))
    commits = []
    results = run_partition_tasks(
        ctx, _parts(6), lambda p: p.index * 10,
        on_commit=lambda pairs: commits.extend(
            (partition.index, result) for partition, result in pairs
        ),
    )
    assert results == [i * 10 for i in range(6)]
    assert sorted(commits) == [(i, i * 10) for i in range(6)]


def test_worker_lost_mid_wave_releases_blacklists_and_reruns_the_rest():
    # worker 0 runs partitions 0, 2 (wave 1) and 4 (wave 2); the
    # backend loses it after settling one task of its first wave
    backend = _InlineBackend(lose=(0, 1))
    ctx = _inline_ctx(backend)
    commits = []
    results = run_partition_tasks(
        ctx, _parts(6), lambda p: p.index, charge_fn=lambda p, r: 100,
        on_commit=lambda pairs: commits.extend(p.index for p, _ in pairs),
    )
    assert results == list(range(6))
    assert sorted(commits) == list(range(6))
    assert ctx.excluded_workers == {0}
    assert all(w.accountant.used(Region.USER) == 0 for w in ctx.workers)
    # the settled-but-discarded task reruns with its peers on worker 1;
    # worker 1's own committed share does not
    assert [index for index, _ in backend.admitted] == [0, 1, 3, 5, 0, 2, 4]
    assert [e["event"] for e in ctx.recovery_log] == [
        "worker_lost", "blacklist",
    ]


def test_a_charge_that_overflows_is_routed_like_a_task_error():
    ctx = _inline_ctx(_InlineBackend(), user_bytes=250)
    with pytest.raises(UserMemoryExceeded):
        run_partition_tasks(
            ctx, _parts(4), lambda p: None, charge_fn=lambda p, r: 150
        )
    assert all(w.accountant.used(Region.USER) == 0 for w in ctx.workers)
    # the task whose charge crashed still counts as run
    assert sum(w.tasks_run for w in ctx.workers) == 2
    # a transient overflow is retried instead: same route as a task's
    ctx = _inline_ctx(_InlineBackend())
    charges = iter([TransientTaskOOM("spike")])

    def charge(partition, result):
        for spike in charges:
            raise spike
        return 10

    assert run_partition_tasks(
        ctx, _parts(4), lambda p: p.index, charge_fn=charge
    ) == list(range(4))
    assert ctx.recovery_log.count("task_retry") == 1
