"""The multiprocess execution backend: stage-resident forked workers,
pipe-frame result transport, real SIGKILL chaos, and the exactly-once
commit barrier.

Everything the serial fault suite asserts about *simulated* failures
(`test_faults.py`) must hold when the failure is a real dead OS
process: lineage recompute + blacklist produce bit-identical output, a
``WorkerLost`` recovery event lands in the log, and — checked after
every test by the autouse leak fixture in ``conftest.py``, pass or
fail — no worker process, pipe end or ``/dev/shm`` entry outlives the
run (the process analogue of the ``*.tmp`` reclaim tests in
``test_recovery.py``).
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.dataflow.backend import (
    ProcessPoolBackend,
    SERIAL_BACKEND,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.dataflow.context import local_context
from repro.dataflow.executor import run_partition_tasks
from repro.dataflow.partition import Partition
from repro.dataflow.table import DistributedTable
from repro.exceptions import TaskFailure, WorkloadCrash
from repro.faults import (
    FaultInjector,
    FaultPlan,
    RetryPolicy,
    WORKER_KILL,
    equip_context,
)
from repro.metrics import MetricsRegistry


def _ctx(plan=None, seed=0, policy=None, num_nodes=2, cpu=4,
         exec_backend="process"):
    ctx = local_context(num_nodes=num_nodes, cores_per_node=4, cpu=cpu,
                        exec_backend=exec_backend)
    injector = FaultInjector(plan, seed=seed) if plan is not None else None
    return equip_context(ctx, injector=injector, policy=policy)


def _mapped_rows(ctx):
    rows = [
        {"id": i, "x": np.full((4, 4), i, dtype=np.float32)}
        for i in range(24)
    ]
    table = DistributedTable.from_rows(ctx, rows, 8, name="t_in")
    return table.map_partitions(
        lambda rows: [{"id": r["id"], "x": r["x"] * 2.0} for r in rows],
        name="t_out",
    )


def _assert_bit_identical(clean, recovered):
    clean_rows = clean.to_rows_sorted()
    recovered_rows = recovered.to_rows_sorted()
    assert [r["id"] for r in clean_rows] == [
        r["id"] for r in recovered_rows
    ]
    for a, b in zip(clean_rows, recovered_rows):
        assert np.array_equal(a["x"], b["x"])


# ---------------------------------------------------------------------
# backend resolution
# ---------------------------------------------------------------------
def test_resolve_backend():
    assert isinstance(resolve_backend(None), ThreadBackend)
    assert resolve_backend(None) is not resolve_backend(None)
    assert resolve_backend("serial") is SERIAL_BACKEND
    assert isinstance(resolve_backend("threads"), ThreadBackend)
    assert isinstance(resolve_backend("process"), ProcessPoolBackend)
    custom = ProcessPoolBackend()
    assert resolve_backend(custom) is custom
    with pytest.raises(ValueError, match="backend"):
        resolve_backend("fibers")


def test_context_resolves_backend_names():
    assert isinstance(
        local_context().exec_backend, ThreadBackend
    )
    assert isinstance(
        local_context(exec_backend="serial").exec_backend, SerialBackend
    )
    ctx = local_context(exec_backend="process")
    assert isinstance(ctx.exec_backend, ProcessPoolBackend)
    # Two process contexts never share workers.
    other = local_context(exec_backend="process")
    assert ctx.exec_backend is not other.exec_backend


# ---------------------------------------------------------------------
# plain execution parity
# ---------------------------------------------------------------------
def test_map_partitions_bit_identical_to_serial():
    serial = _mapped_rows(local_context(num_nodes=2, cores_per_node=4))
    ctx = local_context(num_nodes=2, cores_per_node=4, cpu=4,
                        exec_backend="process")
    process = _mapped_rows(ctx)
    _assert_bit_identical(serial, process)
    assert [w.tasks_run for w in ctx.workers] == [4, 4]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no CPU affinity on this platform")
def test_lanes_split_the_drivers_cores():
    """Each lane's worker is bound to its own share of the cores the
    driver may use (so two fresh forks never stack on one core); the
    driver's own mask is left alone."""
    allowed = os.sched_getaffinity(0)
    cpu = 2
    ctx = local_context(num_nodes=1, cores_per_node=4, cpu=cpu,
                        exec_backend="process")
    partitions = [
        Partition.from_rows(i, [{"id": i}]) for i in range(2 * cpu)
    ]
    masks = run_partition_tasks(
        ctx, partitions,
        lambda partition: (os.getpid(), sorted(os.sched_getaffinity(0))),
    )
    by_worker = dict(masks)
    assert len(by_worker) == cpu    # one resident worker per lane
    shares = [set(mask) for mask in by_worker.values()]
    assert all(share and share <= allowed for share in shares)
    if len(allowed) >= cpu:
        assert not set.intersection(*shares)
        assert set.union(*shares) == allowed
    assert os.sched_getaffinity(0) == allowed


def test_metrics_counters_match_serial():
    """Child-process counter increments merge back into the driver
    registry: engine counters come out identical to a serial run."""
    totals = {}
    for backend in ("serial", "process"):
        ctx = local_context(num_nodes=2, cores_per_node=4, cpu=2,
                            exec_backend=backend)
        registry = MetricsRegistry()
        ctx.attach_metrics(registry)
        _mapped_rows(ctx)
        totals[backend] = {
            (name, labels): total
            for (name, labels), total in registry.counter_totals().items()
            if name == "tasks_total"
        }
        ctx.exec_backend.close()
    assert totals["serial"] == totals["process"]
    assert sum(
        t for (name, _), t in totals["process"].items()
        if name == "tasks_total"
    ) == 8


def test_child_exception_ships_as_task_failure():
    """A deterministic task error raised inside the forked child
    re-enters the parent's normal failure dispatch: a structured
    TaskFailure with the original exception as cause — not a dead
    worker."""
    ctx = _ctx(policy=RetryPolicy())

    def task(partition):
        if partition.index == 2:
            raise ValueError("bad partition payload")
        return partition.index

    with pytest.raises(TaskFailure) as info:
        run_partition_tasks(ctx, [Partition.from_rows(i, [{"id": i}])
                                  for i in range(4)], task)
    assert info.value.partition_index == 2
    assert isinstance(info.value.cause, ValueError)
    failures = ctx.recovery_log.of("task_failure")
    assert failures and failures[0]["cause"] == "ValueError"


def test_transient_failure_in_child_is_retried_from_lineage(tmp_path):
    """Transient errors raised *inside* a worker retry exactly like
    serial ones. Retry state cannot live in a closure (the retry may
    land on another worker process), so the task keys off a marker
    file."""
    marker = tmp_path / "fired"
    ctx = _ctx(policy=RetryPolicy(backoff_base_s=1.0))

    def task(partition):
        if partition.index == 1 and not marker.exists():
            marker.write_text("1")
            from repro.exceptions import TransientTaskOOM

            raise TransientTaskOOM("transient child failure")
        return partition.index * 10

    results = run_partition_tasks(
        ctx, [Partition.from_rows(i, [{"id": i}]) for i in range(4)], task
    )
    assert results == [0, 10, 20, 30]
    retries = ctx.recovery_log.of("task_retry")
    assert len(retries) == 1 and retries[0]["partition"] == 1
    assert retries[0]["fault"] == "TransientTaskOOM"


# ---------------------------------------------------------------------
# chaos: real SIGKILL worker death (satellite)
# ---------------------------------------------------------------------
@pytest.mark.parametrize("phase", ["start", "transfer"])
def test_worker_kill_recovers_bit_identical(phase):
    """Mirror of the simulated worker-loss assertions in
    ``test_faults.py``, with a real SIGKILLed child: the wave dies, the
    worker is blacklisted, lineage recompute fails the work over, and
    the output is bit-identical."""
    clean = _mapped_rows(local_context(num_nodes=2, cores_per_node=4))
    plan = FaultPlan().worker_kill(partition=5, phase=phase)
    ctx = _ctx(plan, cpu=2)
    recovered = _mapped_rows(ctx)
    _assert_bit_identical(clean, recovered)
    assert ctx.excluded_workers == {1}
    kills = ctx.recovery_log.of("worker_kill")
    assert kills == [{
        "event": "worker_kill", "table": "map over t_in", "partition": 5,
        "worker": 1, "attempt": 1, "phase": phase, "sim_time_s": 0.0,
    }]
    losses = ctx.recovery_log.of("worker_lost")
    assert len(losses) == 1 and losses[0]["worker"] == 1
    assert "SIGKILL" in losses[0]["fault"]
    blacklists = ctx.recovery_log.of("blacklist")
    assert blacklists == [{
        "event": "blacklist", "worker": 1, "reason": "worker lost",
        "sim_time_s": 0.0,
    }]
    assert ctx.fault_injector.injected[WORKER_KILL] == 1


@pytest.mark.parametrize("phase", ["start", "transfer"])
def test_worker_kill_repeated(phase):
    """The PR 11 flake (1 failure in 8, one orphaned segment) had
    nowhere to hide in a single run: 25 kills in one process, each
    recovered run bit-identical to the clean one."""
    clean = _mapped_rows(local_context(num_nodes=2, cores_per_node=4))
    for _ in range(25):
        plan = FaultPlan().worker_kill(partition=5, phase=phase)
        ctx = _ctx(plan, cpu=2)
        _assert_bit_identical(clean, _mapped_rows(ctx))
        assert ctx.excluded_workers == {1}
        assert ctx.fault_injector.injected[WORKER_KILL] == 1


def test_worker_kill_discards_in_flight_wave_peers():
    """Killing one child fails the *whole* wave over: peers that
    finished before the kill was collected are discarded, recomputed
    on the surviving worker, and still commit exactly once."""
    clean = _mapped_rows(local_context(num_nodes=2, cores_per_node=4))
    plan = FaultPlan().worker_kill(partition=7, phase="start")
    ctx = _ctx(plan, cpu=4)
    recovered = _mapped_rows(ctx)
    _assert_bit_identical(clean, recovered)
    # Worker 1's wave of 4 died wholesale; worker 0 ran its own 4
    # partitions plus all 4 failed-over ones.
    assert ctx.workers[0].tasks_run == 8


def test_worker_kill_rules_are_inert_on_serial_backend():
    """The serial engine has no child process to kill: worker-kill
    rules neither fire nor consume their ``times`` budget there, so a
    chaos plan can run unchanged on both backends."""
    plan = FaultPlan().worker_kill(partition=5, phase="start")
    ctx = _ctx(plan, exec_backend="serial")
    clean = _mapped_rows(local_context(num_nodes=2, cores_per_node=4))
    out = _mapped_rows(ctx)
    _assert_bit_identical(clean, out)
    assert ctx.fault_injector.injected[WORKER_KILL] == 0
    assert ctx.excluded_workers == set()
    assert ctx.recovery_log.of("worker_kill") == []


# ---------------------------------------------------------------------
# worker lifecycle (satellite): the process analogue of the *.tmp
# reclaim tests in test_recovery.py — the autouse fixture does the
# asserting
# ---------------------------------------------------------------------
def test_no_leaked_workers_after_success():
    _mapped_rows(_ctx())


def test_no_leaked_workers_after_crash_mid_transfer():
    """The hardest leak case: the worker died *between* announcing its
    frame and transferring it, with a wave peer's frame still unread."""
    plan = FaultPlan().worker_kill(partition=3, phase="transfer")
    _mapped_rows(_ctx(plan, cpu=2))


def test_no_leaked_workers_after_workload_crash():
    """A WorkloadCrash aborts the run mid-stage; the stage bracket must
    have reaped every worker by the time it propagates."""
    ctx = _ctx()

    def task(partition):
        if partition.index == 3:
            raise WorkloadCrash("injected structural crash")
        return partition.index

    with pytest.raises(WorkloadCrash):
        run_partition_tasks(
            ctx, [Partition.from_rows(i, [{"id": i}]) for i in range(6)],
            task,
        )


def test_no_leaked_workers_after_resume(tmp_path):
    """Crash a checkpointed process-backend run after materialization
    (an exception from ``downstream_fn``), resume it on a fresh
    process-backend context: outputs bit-identical to an uninterrupted
    serial run, checkpoints restored, and neither attempt leaked."""
    from repro.cnn import build_model
    from repro.core.config import VistaConfig
    from repro.core.executor import FeatureTransferExecutor
    from repro.core.plans import ALL_PLANS
    from repro.data import foods_dataset
    from repro.recovery import CheckpointStore

    model = build_model("alexnet", profile="mini")
    dataset = foods_dataset(num_records=14, seed=5)
    layers = model.feature_layers[-1:]
    config = VistaConfig(
        cpu=2, num_partitions=4, mem_storage_bytes=10**9,
        mem_user_bytes=10**9, mem_dl_bytes=10**9,
        join="shuffle", persistence="deserialized",
    )

    def downstream(features, labels):
        return {"matrix": features.copy()}

    def run(downstream_fn, store=None, backend="process"):
        ctx = local_context(num_nodes=2, cores_per_node=4, cpu=config.cpu,
                            exec_backend=backend)
        executor = FeatureTransferExecutor(
            ctx, model, dataset, layers, config,
            downstream_fn=downstream_fn, checkpoint_store=store,
        )
        return executor.run(ALL_PLANS["staged"])

    reference = run(downstream, backend="serial")

    def crashing(features, labels):
        raise WorkloadCrash("injected crash before downstream")

    root = str(tmp_path / "ckpts")
    with pytest.raises(WorkloadCrash):
        run(crashing, store=CheckpointStore(root))

    resumed_store = CheckpointStore(root)
    resumed = run(downstream, store=resumed_store)
    assert resumed_store.restore_total > 0
    for layer in reference.layer_results:
        assert np.array_equal(
            resumed.layer_results[layer].downstream["matrix"],
            reference.layer_results[layer].downstream["matrix"],
        )


def test_close_kills_and_reaps_live_workers():
    """close() is the abandon-path backstop: called while a stage's
    workers are resident (here from a commit barrier) it kills and
    reaps them, the stage re-forks what it still needs, and close is
    idempotent."""
    ctx = _ctx(cpu=2, num_nodes=1)
    backend = ctx.exec_backend
    pids = []

    def on_commit(pairs):
        pids.extend(result for _, result in pairs)
        backend.close()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        backend.close()  # idempotent

    results = run_partition_tasks(
        ctx, [Partition.from_rows(i, [{"id": i}]) for i in range(4)],
        lambda partition: os.getpid(), on_commit=on_commit,
    )
    assert results == pids
    # each wave's workers were killed at its commit: 2 waves x 2
    assert len(set(pids)) == 4 and os.getpid() not in pids
    backend.close()


_DRIVER = """
import os, sys, time
from repro.dataflow.context import local_context
from repro.dataflow.executor import run_partition_tasks
from repro.dataflow.partition import Partition

def task(partition):
    lane = partition.index % 2      # cpu=2 on one node: waves are pairs
    open(os.path.join(sys.argv[1], f"{lane}-{os.getpid()}"), "w").close()
    time.sleep(3.0 if lane else 0.05)
    return partition.index

ctx = local_context(num_nodes=1, cores_per_node=4, cpu=2,
                    exec_backend="process")
run_partition_tasks(
    ctx, [Partition.from_rows(i, [{"id": i}]) for i in range(8)], task)
"""


def _running(pid):
    """False once ``pid`` exited, reaped or not (its new parent may be
    a container init that never reaps)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


def _gone_within(pid, seconds):
    deadline = time.monotonic() + seconds
    while _running(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_workers_exit_when_driver_is_killed(tmp_path):
    """SIGKILL the driver mid-stage. The worker waiting for its next
    command reads EOF and is gone within 2 s *while its sibling is
    still busy* — which needs the sibling to have closed the pipe ends
    it inherited — and the busy one exits when its task ends and its
    result has nowhere to go."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    driver = subprocess.Popen(
        [sys.executable, "-c", _DRIVER, str(tmp_path)], env=env)
    try:
        deadline = time.monotonic() + 30
        while len(os.listdir(tmp_path)) < 2:
            assert driver.poll() is None, "driver exited early"
            assert time.monotonic() < deadline, "workers never started"
            time.sleep(0.01)
    finally:
        driver.kill()
        driver.wait(timeout=10)
    workers = dict(name.split("-") for name in os.listdir(tmp_path))
    waiting, busy = int(workers["0"]), int(workers["1"])
    try:
        assert _gone_within(waiting, 2.0)
        assert _gone_within(busy, 5.0)
    finally:
        for pid in (waiting, busy):
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


# ---------------------------------------------------------------------
# exactly-once commit barrier (satellite)
# ---------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["serial", "process"])
def test_on_commit_fires_exactly_once_out_of_order(backend):
    """Out-of-order commit schedule: partition 0 fails transiently (so
    it commits a full retry round *after* its peers) while a worker
    dies between waves (so a discarded wave reschedules wholesale).
    The commit barrier must still report every partition exactly
    once, with the result it committed, and fire once per wave."""
    plan = (
        FaultPlan()
        .task_crash(partition=0, attempt=1)
        .worker_loss(worker=1, wave=2)
    )
    ctx = _ctx(plan, cpu=2, exec_backend=backend)
    commits = {}
    waves = []

    def on_commit(pairs):
        waves.append(len(pairs))
        for partition, result in pairs:
            commits.setdefault(partition.index, []).append(result)

    results = run_partition_tasks(
        ctx, [Partition.from_rows(i, [{"id": i}]) for i in range(8)],
        lambda p: p.index * 10, on_commit=on_commit,
    )
    assert results == [i * 10 for i in range(8)]
    assert sorted(commits) == list(range(8))
    assert all(len(v) == 1 for v in commits.values()), {
        k: len(v) for k, v in commits.items() if len(v) != 1
    }
    assert all(commits[i] == [i * 10] for i in range(8))
    assert all(1 <= size <= ctx.cpu for size in waves)
    assert len(waves) < 8  # per wave, not per partition


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_checkpoint_partitions_written_exactly_once(backend, tmp_path):
    """The same barrier guards durable checkpoints: under the
    out-of-order schedule each map_blocks partition lands in the store
    exactly once (checkpoint_partitions_total counts puts)."""
    from repro.dataflow.columnar import ColumnarBlock
    from repro.recovery import CheckpointStore

    plan = (
        FaultPlan()
        .task_crash(partition=0, attempt=1)
        .worker_loss(worker=1, wave=2)
    )
    ctx = _ctx(plan, cpu=2, exec_backend=backend)
    rows = [
        {"id": i, "x": np.full(4, i, dtype=np.float32)} for i in range(16)
    ]
    table = DistributedTable.from_rows(ctx, rows, 8, name="t_in")
    store = CheckpointStore(str(tmp_path)).bind_run("run-a")
    table.map_blocks(
        lambda block: ColumnarBlock(
            {name: block.column(name) for name in block.column_names},
            block.num_rows,
        ),
        name="t_out", checkpoint=(store, "stage-a"),
    )
    assert store.checkpoint_partitions_total == 8
