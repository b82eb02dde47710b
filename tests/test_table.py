"""Unit tests for DistributedTable operators."""

import numpy as np
import pytest

from repro.dataflow.context import local_context
from repro.dataflow.partition import SERIALIZED
from repro.dataflow.table import DistributedTable


def _table(ctx, n=40, np_=8, name="t"):
    rows = [
        {"id": i, "x": np.full(8, float(i), dtype=np.float32), "label": i % 2}
        for i in range(n)
    ]
    return DistributedTable.from_rows(ctx, rows, np_, name=name)


def test_from_rows_distributes_evenly(ctx):
    table = _table(ctx, 40, 8)
    assert table.num_partitions == 8
    assert table.num_rows() == 40
    sizes = [len(p) for p in table.partitions]
    assert max(sizes) - min(sizes) <= 1


def test_from_rows_clamps_partitions_to_rows(ctx):
    table = _table(ctx, 3, 100)
    assert table.num_partitions == 3


def test_map_partitions_can_filter(ctx):
    table = _table(ctx)
    evens = table.map_partitions(
        lambda rows: [r for r in rows if r["id"] % 2 == 0]
    )
    assert evens.num_rows() == 20


def test_repartition_by_key_preserves_rows(ctx):
    table = _table(ctx, 40, 4)
    shuffled = table.repartition_by_key(16)
    assert shuffled.num_partitions == 16
    assert sorted(r["id"] for r in shuffled.collect()) == list(range(40))


def test_repartition_coalesces_same_keys(ctx):
    rows = [{"id": i % 4, "v": i} for i in range(16)]
    table = DistributedTable.from_rows(ctx, rows, 8)
    shuffled = table.repartition_by_key(4)
    for partition in shuffled.partitions:
        keys = {r["id"] for r in partition.rows()}
        for key in keys:
            # every row of a key landed in exactly one partition
            total = sum(
                1 for p in shuffled.partitions for r in p.rows()
                if r["id"] == key
            )
            assert total == 4


def test_repartition_meters_shuffle_bytes(ctx):
    table = _table(ctx)
    before = ctx.shuffle_bytes_total
    table.repartition_by_key(4)
    assert ctx.shuffle_bytes_total > before


def test_cache_places_partitions_on_workers(ctx):
    table = _table(ctx)
    table.cache()
    used = sum(w.storage.used_bytes for w in ctx.workers)
    assert used == table.memory_bytes()


def test_cache_serialized_compresses(ctx):
    """Storage is charged the blob: ReLU-sparse tensors shrink to their
    non-zero elements plus a bit per element, a dense table costs one
    header per partition on top of its raw bytes."""
    rng = np.random.default_rng(0)
    relu = DistributedTable.from_rows(ctx, [
        {"id": i, "x": np.maximum(rng.normal(size=256), 0).astype(np.float32)}
        for i in range(100)
    ], 4, name="relu")
    relu.cache(SERIALIZED)
    used = sum(w.storage.used_bytes for w in ctx.workers)
    assert used < 0.56 * relu.memory_bytes()
    relu.unpersist()
    dense = _table(ctx, 100, 4)
    dense.cache(SERIALIZED)
    used = sum(w.storage.used_bytes for w in ctx.workers)
    assert dense.memory_bytes() < used <= dense.memory_bytes() + 4 * 256


def test_unpersist(ctx):
    table = _table(ctx)
    table.cache().unpersist()
    assert all(w.storage.used_bytes == 0 for w in ctx.workers)


@pytest.mark.parametrize("lost", [[0], [0, 1]], ids=["one", "all"])
def test_unpersist_after_worker_loss_releases_the_lost_workers_share(
        ctx, lost):
    """A worker blacklisted after ``cache()`` no longer owns its
    partition indices (``worker_for`` fails over, or raises once every
    worker is gone); the charge must come off the region that took it."""
    table = _table(ctx).cache()
    for node_id in lost:
        ctx.blacklist_worker(node_id)
    table.unpersist()
    assert all(w.storage.used_bytes == 0 for w in ctx.workers)


def test_collect_returns_all_rows(ctx):
    table = _table(ctx)
    assert len(table.collect()) == 40


def test_collect_charges_driver(ctx):
    from repro.exceptions import DriverMemoryExceeded
    from repro.memory.model import MemoryBudget

    tiny = MemoryBudget(
        system_bytes=10**6, os_reserved_bytes=0, user_bytes=10**6,
        core_bytes=10**6, storage_bytes=10**6, dl_bytes=10**6,
        driver_bytes=100,
    )
    from repro.dataflow.context import ClusterContext

    ctx2 = ClusterContext(tiny, num_nodes=1, cores_per_node=1)
    table = _table(ctx2)
    with pytest.raises(DriverMemoryExceeded):
        table.collect()


def test_collect_crash_leaves_nothing_charged_on_the_driver():
    """Crash scenario (4): the charge that overflows was already added
    to ``used`` when it raised, so it must be released too."""
    from repro.dataflow.context import ClusterContext
    from repro.exceptions import DriverMemoryExceeded
    from repro.memory.model import GB, MemoryBudget, Region

    budget = MemoryBudget(
        system_bytes=8 * GB, os_reserved_bytes=0, user_bytes=GB,
        core_bytes=GB, storage_bytes=GB, dl_bytes=GB, driver_bytes=1000,
    )
    ctx = ClusterContext(budget, num_nodes=2, cores_per_node=4)
    with pytest.raises(DriverMemoryExceeded):
        _table(ctx).collect_block()
    assert ctx.driver.used(Region.DRIVER) == 0
