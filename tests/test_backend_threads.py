"""The thread-lane backend: a wave's tasks run at once on the run's
``cpu`` lanes in the driver's address space and settle in wave order;
a wave that ends early keeps the serial backend's per-task accounting
and leaves no lane running (the autouse ``no_leaks`` fixture checks
the thread set after every test); what a task records on a lane
reaches the driver's recorders exactly as a serial run leaves them;
and an injected ``worker_kill`` is a lost lane that lineage recovers
bit for bit."""

import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from repro.blas import _openblas, one_blas_thread
from repro.cnn import build_model
from repro.core.config import VistaConfig
from repro.core.executor import FeatureTransferExecutor
from repro.core.plans import LAZY, STAGED
from repro.data.synthetic import generate_dataset
from repro.dataflow.backend import SERIAL_BACKEND, ThreadBackend
from repro.dataflow.columnar import ColumnarBlock
from repro.dataflow.context import local_context
from repro.dataflow.executor import run_partition_tasks
from repro.dataflow.partition import Partition
from repro.dataflow.table import DistributedTable
from repro.exceptions import TaskFailure
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultRule,
    WORKER_KILL,
    WORKER_LOSS,
    equip_context,
)
from repro.metrics import MetricsRegistry
from repro.tensor.tensorlist import TensorList
from repro.trace import Tracer


def _parts(n):
    return [Partition.from_rows(i, [{"id": i}]) for i in range(n)]


def _ctx(plan=None, cpu=4, num_nodes=2, exec_backend="threads"):
    ctx = local_context(num_nodes=num_nodes, cores_per_node=4, cpu=cpu,
                        exec_backend=exec_backend)
    injector = FaultInjector(plan, seed=0) if plan is not None else None
    return equip_context(ctx, injector=injector)


def _mapped_rows(ctx):
    rows = [
        {"id": i, "x": np.full((4, 4), i, dtype=np.float32)}
        for i in range(24)
    ]
    table = DistributedTable.from_rows(ctx, rows, 8, name="t_in")
    return table.map_partitions(
        lambda rows: [{"id": r["id"], "x": r["x"] * 2.0} for r in rows],
        name="t_out",
    ).to_rows_sorted()


def _lanes_alive():
    return [t for t in threading.enumerate() if t.name.startswith("lane")]


# ---------------------------------------------------------------------
# lanes
# ---------------------------------------------------------------------
def test_a_wave_runs_on_cpu_lanes_at_once():
    """Every task of a three-task wave waits at one barrier, so the
    stage finishes only if all three run at once: two pool threads and
    the calling thread."""
    ctx = local_context(num_nodes=1, cores_per_node=4, cpu=3)
    barrier = threading.Barrier(3, timeout=30)

    def task(partition):
        barrier.wait()
        return threading.get_ident()

    idents = run_partition_tasks(ctx, _parts(6), task)
    assert len(set(idents)) == 3
    assert threading.get_ident() in idents
    assert not _lanes_alive()


def test_one_lane_is_the_calling_thread():
    ctx = local_context(num_nodes=1, cores_per_node=4, cpu=1)
    threads_before = threading.active_count()
    seen = run_partition_tasks(
        ctx, _parts(4),
        lambda p: (threading.get_ident(), threading.active_count()),
    )
    assert seen == [(threading.get_ident(), threads_before)] * 4


def test_results_settle_in_wave_order():
    """A wave's tasks finish in reverse order; results still come back
    in partition order."""
    ctx = local_context(num_nodes=1, cores_per_node=4, cpu=4)

    def task(partition):
        time.sleep(0.01 * (3 - partition.index % 4))
        return partition.index

    assert run_partition_tasks(ctx, _parts(8), task) == list(range(8))


def test_run_wave_outside_a_stage_is_refused():
    with pytest.raises(RuntimeError, match="stage"):
        ThreadBackend().run_wave(None)


# ---------------------------------------------------------------------
# a wave that ends early keeps serial's accounting
# ---------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["serial", "threads"])
def test_mid_wave_worker_loss_accounts_like_serial(backend):
    """Worker 1 is lost admitting partition 5, its wave's third task:
    the two started before it are settled (counted as wasted work)
    before the loss propagates, on lanes as in the serial loop."""
    rule = FaultRule(WORKER_LOSS, worker=1, partition=5)
    ctx = _ctx(FaultPlan([rule]), exec_backend=backend)
    results = run_partition_tasks(ctx, _parts(8), lambda p: p.index)
    assert results == list(range(8))
    assert ctx.excluded_workers == {1}
    assert ctx.workers[1].tasks_run == 2
    assert ctx.workers[0].tasks_run == 8


def test_mid_wave_task_error_settles_started_tasks_and_joins_lanes():
    """Partition 1 fails for good while its wave peers are still
    running: each of them is settled, in wave order, before the
    failure propagates, and no lane outlives the stage."""
    ctx = _ctx(num_nodes=1)
    settled = []

    def task(partition):
        if partition.index == 1:
            raise ValueError("bad partition")
        time.sleep(0.02)
        settled.append(partition.index)
        return partition.index

    with pytest.raises(TaskFailure) as excinfo:
        run_partition_tasks(ctx, _parts(8), task)
    assert excinfo.value.partition_index == 1
    assert sorted(settled) == [0, 2, 3]
    assert ctx.workers[0].tasks_run == 3
    assert not _lanes_alive()


# ---------------------------------------------------------------------
# worker_kill on lanes
# ---------------------------------------------------------------------
@pytest.mark.parametrize("phase", ["start", "transfer"])
def test_worker_kill_on_a_lane_recovers_bit_identical(phase):
    clean = _mapped_rows(local_context(num_nodes=2, cores_per_node=4,
                                       exec_backend="serial"))
    ctx = _ctx(FaultPlan().worker_kill(partition=5, phase=phase), cpu=2)
    recovered = _mapped_rows(ctx)
    assert [r["id"] for r in recovered] == [r["id"] for r in clean]
    for got, want in zip(recovered, clean):
        assert np.array_equal(got["x"], want["x"])
    assert ctx.excluded_workers == {1}
    assert ctx.recovery_log.of("worker_kill") == [{
        "event": "worker_kill", "table": "map over t_in", "partition": 5,
        "worker": 1, "attempt": 1, "phase": phase, "sim_time_s": 0.0,
    }]
    losses = ctx.recovery_log.of("worker_lost")
    assert len(losses) == 1 and losses[0]["worker"] == 1
    assert "worker-kill" in losses[0]["fault"]
    assert ctx.fault_injector.injected[WORKER_KILL] == 1


def test_worker_kill_discards_the_lanes_wave_peers():
    """Killing the lane of a wave's last task fails the whole wave
    over: its three peers ran and are counted, then recomputed on the
    surviving worker."""
    ctx = _ctx(FaultPlan().worker_kill(partition=7, phase="start"))
    clean = _mapped_rows(local_context(num_nodes=2, cores_per_node=4,
                                       exec_backend="serial"))
    recovered = _mapped_rows(ctx)
    for got, want in zip(recovered, clean):
        assert np.array_equal(got["x"], want["x"])
    assert ctx.workers[1].tasks_run == 3
    assert ctx.workers[0].tasks_run == 8


def test_features_recovered_from_a_killed_lane_are_bit_identical():
    """The chaos plan drives lineage and the blacklist on a real
    workload: Staged on two workers, one lane killed mid-transfer."""
    dataset = generate_dataset("foods", 40, 16, seed=4)
    model = build_model("alexnet")

    def run(ctx):
        config = VistaConfig(
            cpu=2, num_partitions=8, mem_storage_bytes=10**9,
            mem_user_bytes=10**9, mem_dl_bytes=10**9, join="shuffle",
            persistence="deserialized",
        )
        result = FeatureTransferExecutor(
            ctx, model, dataset, ["fc6", "fc7"], config,
            downstream_fn=lambda f, l: {"matrix": f},
        ).run(STAGED)
        return {layer: r.downstream["matrix"]
                for layer, r in result.layer_results.items()}

    clean = run(_ctx(cpu=2, exec_backend="serial"))
    killed = _ctx(FaultPlan().worker_kill(partition=3, phase="transfer"),
                  cpu=2)
    recovered = run(killed)
    assert killed.excluded_workers == {1}
    for layer in clean:
        assert np.array_equal(recovered[layer], clean[layer])


# ---------------------------------------------------------------------
# recorders: a lane's records are the driver's to write
# ---------------------------------------------------------------------
def _one_image_each(dataset):
    """Each record keeps one image of its TensorList: a record alone in
    its partition is then a one-tensor shape group, two records of a
    partition batch together."""
    images = [
        TensorList(list(images)[:1])
        for images in dataset.t_img.column("image")
    ]
    ids = dataset.t_img.column("id")
    return dataclasses.replace(
        dataset,
        t_img=ColumnarBlock({"id": ids, "image": images}, len(ids)),
    )


def _recorded_run(backend):
    dataset = _one_image_each(generate_dataset(
        "ragged", num_records=12, num_structured_features=16,
        images_per_record=2, seed=9,
    ))
    ctx = local_context(num_nodes=1, cores_per_node=4, cpu=4,
                        exec_backend=backend)
    tracer, registry = Tracer(), MetricsRegistry()
    config = VistaConfig(
        cpu=4, num_partitions=8, mem_storage_bytes=10**9,
        mem_user_bytes=10**9, mem_dl_bytes=10**9, join="shuffle",
        persistence="deserialized",
    )
    result = FeatureTransferExecutor(
        ctx, build_model("alexnet"), dataset, ["fc7", "fc8"], config,
        downstream_fn=lambda f, l: {"matrix": f}, tracer=tracer,
        metrics=registry,
    ).run(LAZY)
    op_keys = sorted(
        (span["name"], key) for span in result.trace.export()
        for key in span["counters"] if key.startswith("op_s:")
    )
    totals = {
        name: sum(series.total for series in registry.instruments(name))
        for name in ("tasks_total",)
    }
    matrices = {layer: r.downstream["matrix"]
                for layer, r in result.layer_results.items()}
    return op_keys, totals, matrices


def test_lane_records_match_serial_under_fast_thread_switching():
    """Op timings and task counts recorded on four lanes switched every
    microsecond land on the driver's span and counters exactly as a
    serial run leaves them."""
    serial = _recorded_run("serial")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        lanes = _recorded_run("threads")
    finally:
        sys.setswitchinterval(interval)
    assert lanes[:2] == serial[:2]
    for layer in serial[2]:
        assert np.array_equal(lanes[2][layer], serial[2][layer])


# ---------------------------------------------------------------------
# one BLAS thread per lane
# ---------------------------------------------------------------------
@pytest.mark.skipif(_openblas() is None,
                    reason="numpy does not bundle OpenBLAS here")
def test_blas_runs_one_thread_per_lane_and_is_restored():
    get, set_ = _openblas()
    before = get()
    set_(2)
    try:
        with one_blas_thread(1):
            assert get() == 2
        with one_blas_thread(3):
            assert get() == 1
        assert get() == 2
        ctx = local_context(num_nodes=1, cores_per_node=4, cpu=2)
        seen = run_partition_tasks(ctx, _parts(4), lambda p: get())
        assert seen == [1, 1, 1, 1]
        assert get() == 2
    finally:
        set_(before)


def test_driver_side_stages_stay_serial():
    assert SERIAL_BACKEND.name == "serial"
    assert local_context().exec_backend.name == "threads"


# ---------------------------------------------------------------------
# micro-batches
# ---------------------------------------------------------------------
def _executor(dataset, layers, ctx, model, num_partitions, cpu=2):
    config = VistaConfig(
        cpu=cpu, num_partitions=num_partitions, mem_storage_bytes=10**9,
        mem_user_bytes=10**9, mem_dl_bytes=10**9, join="shuffle",
        persistence="deserialized",
    )
    return FeatureTransferExecutor(
        ctx, model, dataset, layers, config,
        downstream_fn=lambda f, l: {"matrix": f},
    )


def test_inference_runs_in_micro_batches_of_b_rows():
    """A 240-row partition reaches AlexNet-mini's kernels 105 rows at a
    time, and the stitched output is the micro-batches' own bits."""
    model = build_model("alexnet")
    batch = model.stats.micro_batch_rows
    assert batch == 105
    dataset = generate_dataset("foods", 240, 16, seed=2)
    calls = []
    forward = model.partial_forward_batch

    def spy(rows, start, upto):
        calls.append((len(rows), start, upto))
        return forward(rows, start, upto)

    model.partial_forward_batch = spy
    try:
        ctx = local_context(num_nodes=1, cores_per_node=4, cpu=1)
        result = _executor(dataset, ["fc7"], ctx, model, 1).run(LAZY)
    finally:
        del model.partial_forward_batch
    assert calls == [(105, 0, "fc7"), (105, 0, "fc7"), (30, 0, "fc7")]
    images = dataset.t_img.column("image")
    expected = np.concatenate([
        model.partial_forward_batch(images[begin:begin + batch], 0, "fc7")
        for begin in range(0, 240, batch)
    ])
    matrix = result.layer_results["fc7"].downstream["matrix"]
    assert np.array_equal(matrix[:, 16:], expected)


def test_micro_batched_partitions_are_plan_and_backend_invariant():
    """Partitions of 48 rows run ResNet50-mini (B = 33) as 33 + 15:
    every plan, on serial and on lanes, yields the same bits."""
    from repro.core.plans import ALL_PLANS

    model = build_model("resnet50")
    assert model.stats.micro_batch_rows == 33
    dataset = generate_dataset("foods", 96, 16, seed=3)
    layers = model.feature_layers[-3:]
    reference = None
    for backend in ("serial", "threads"):
        for plan in ALL_PLANS.values():
            ctx = local_context(num_nodes=1, cores_per_node=4, cpu=2,
                                exec_backend=backend)
            result = _executor(dataset, layers, ctx, model, 2).run(plan)
            matrices = [result.layer_results[layer].downstream["matrix"]
                        for layer in layers]
            if reference is None:
                reference = matrices
            for got, want in zip(matrices, reference):
                assert np.array_equal(got, want), (backend, plan.label)


@pytest.mark.parametrize("backend", [None, "serial", "threads"])
def test_cli_run_records_the_backend_it_ran_on(tmp_path, capsys, backend):
    from repro.cli import main
    from repro.observe.ledger import read_ledger

    path = str(tmp_path / "run.jsonl")
    argv = ["run", "--model", "alexnet", "--records", "24",
            "--ledger", path]
    assert main(argv + (["--backend", backend] if backend else [])) == 0
    capsys.readouterr()
    events, _ = read_ledger(path)
    meta = next(e for e in events if e["kind"] == "run_meta")
    assert meta["exec_backend"] == (backend or "threads")
