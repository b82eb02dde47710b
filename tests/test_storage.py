"""Unit tests for the storage manager: LRU eviction, spills, and the
memory-only crash path.

The region is the one holder of a cached partition: an evicted one is
a wave file and nothing on the heap, and a read maps that file back.
"""

import gc
import os
import weakref

import numpy as np
import pytest

from repro.dataflow.partition import DESERIALIZED, SERIALIZED, Partition
from repro.dataflow import storage as storage_module
from repro.dataflow.storage import StorageManager
from repro.exceptions import StorageMemoryExceeded
from repro.wavefile import read_footer, sha256_hex


@pytest.fixture
def regions():
    """``StorageManager`` for the test, each cleared at teardown so its
    spill files go with it."""
    made = []

    def make(*args, **kwargs):
        made.append(StorageManager(*args, **kwargs))
        return made[-1]

    yield make
    for storage in made:
        storage.clear()


def _partition(index, nbytes=1000):
    # Each float32 element contributes 4 bytes of payload.
    rows = [{"id": index, "x": np.zeros(nbytes // 4, dtype=np.float32)}]
    return Partition.from_rows(index, rows)


def test_cache_and_get(regions):
    storage = regions(10_000)
    part = _partition(0)
    storage.cache("a", part)
    assert storage.get("a") is part
    assert storage.used_bytes > 0


def test_miss_returns_none(regions):
    storage = regions(10_000)
    assert storage.get("missing") is None


def test_lru_eviction_spills_oldest(regions):
    storage = regions(3_000)
    for index in range(4):
        storage.cache(f"p{index}", _partition(index, 1000))
    assert storage.spilled_bytes_total > 0
    assert "p0" in storage.spilled_keys()
    assert "p3" in storage.cached_keys()


def test_touch_protects_recently_used(regions):
    storage = regions(2_500)
    storage.cache("a", _partition(0, 1000))
    storage.cache("b", _partition(1, 1000))
    storage.get("a")  # a becomes most recent
    storage.cache("c", _partition(2, 1000))
    assert "b" in storage.spilled_keys()
    assert "a" in storage.cached_keys()


def test_spilled_partition_read_back_is_metered(regions):
    storage = regions(2_000)
    storage.cache("a", _partition(0, 1500))
    storage.cache("b", _partition(1, 1500))  # evicts a
    assert storage.get("a") is not None
    assert storage.spill_read_bytes_total > 0


def test_memory_only_overflow_crashes(regions):
    storage = regions(2_000, spill_enabled=False)
    storage.cache("a", _partition(0, 1500))
    with pytest.raises(StorageMemoryExceeded):
        storage.cache("b", _partition(1, 1500))


def test_memory_only_oversized_partition_crashes(regions):
    storage = regions(1_000, spill_enabled=False)
    with pytest.raises(StorageMemoryExceeded):
        storage.cache("a", _partition(0, 5_000))


def test_evict_releases_capacity(regions):
    storage = regions(2_000)
    storage.cache("a", _partition(0, 1500))
    used = storage.used_bytes
    storage.evict("a")
    assert storage.used_bytes == used - used
    assert storage.get("a") is None


def test_recache_same_key_is_idempotent(regions):
    storage = regions(10_000)
    part = _partition(0)
    storage.cache("a", part)
    used = storage.used_bytes
    storage.cache("a", part)
    assert storage.used_bytes == used


def test_peak_tracking(regions):
    storage = regions(10_000)
    storage.cache("a", _partition(0, 2000))
    storage.cache("b", _partition(1, 2000))
    storage.evict("a")
    assert storage.peak_bytes >= storage.used_bytes


def test_clear(regions):
    storage = regions(10_000)
    storage.cache("a", _partition(0))
    storage.clear()
    assert storage.used_bytes == 0
    assert storage.get("a") is None


def test_recache_after_eviction_supersedes_spilled_copy(regions):
    """Regression: re-admitting a key that was LRU-evicted must drop
    the stale spilled copy, or the key is double-tracked and a later
    eviction double-counts its bytes."""
    storage = regions(2_500)
    storage.cache("a", _partition(0, 1000))
    storage.cache("b", _partition(1, 1000))
    storage.cache("c", _partition(2, 1000))  # evicts a to disk
    assert "a" in storage.spilled_keys()
    storage.cache("a", _partition(0, 1000))  # re-admit (evicts b)
    assert "a" in storage.cached_keys()
    assert "a" not in storage.spilled_keys()
    unit = _partition(9, 1000).memory_bytes("deserialized")
    used = storage.used_bytes
    storage.evict("a")
    assert storage.used_bytes == used - unit
    assert storage.get("a") is None  # gone from memory AND disk


def test_oversized_partition_goes_straight_to_disk(tmp_path, regions):
    """A partition larger than the region left after evicting
    everything is never admitted: it lands spilled (file written, its
    bytes metered), ``get`` re-reads it without admitting it, ``evict``
    removes the file — and occupancy never passes the capacity."""
    storage = regions(800, spill_dir=str(tmp_path))
    small, big = _partition(0, 400), _partition(1, 1200)
    small_bytes, big_bytes = small.memory_bytes(), big.memory_bytes()
    assert small_bytes <= 800 < big_bytes
    storage.cache("small", small)
    storage.cache("big", big)  # evicts small, still does not fit
    assert storage.used_bytes == 0 and storage.cached_keys() == []
    assert sorted(storage.spilled_keys()) == ["big", "small"]
    assert storage.eviction_count == 1  # big was never resident
    file_bytes = {
        read_footer(path)["key"]: os.path.getsize(path)
        for path in (os.path.join(tmp_path, name)
                     for name in os.listdir(tmp_path))
    }
    assert sorted(file_bytes) == ["big", "small"]
    assert storage.spilled_bytes_total == sum(file_bytes.values())

    read = storage.get("big")
    assert np.array_equal(read.block().column("x"), big.block().column("x"))
    assert storage.spill_read_bytes_total == file_bytes["big"]
    assert "big" in storage.spilled_keys() and len(os.listdir(tmp_path)) == 2
    assert storage.peak_bytes == small_bytes <= storage.capacity_bytes

    del read
    storage.evict("big")
    assert storage.get("big") is None and len(os.listdir(tmp_path)) == 1


def test_used_bytes_never_exceed_capacity(regions):
    storage = regions(2_500)
    sizes = [1000, 3000, 400, 2400, 5000, 1000, 400]
    for index, nbytes in enumerate(sizes):
        storage.cache(f"p{index}", _partition(index, nbytes))
        assert storage.used_bytes <= storage.capacity_bytes
        assert storage.get(f"p{index % 3}") is not None
        assert storage.used_bytes <= storage.capacity_bytes
    assert storage.peak_bytes <= storage.capacity_bytes
    assert len(storage.cached_keys()) + len(storage.spilled_keys()) \
        == len(sizes)


def test_metrics_count_hits_misses_and_evictions_exactly(regions):
    from repro.metrics import MetricsRegistry, find_series

    registry = MetricsRegistry()
    storage = regions(2_500).attach_metrics(registry, "w0")
    storage.cache("a", _partition(0, 1000))
    storage.cache("b", _partition(1, 1000))
    storage.get("a")                          # hit; a most recent
    storage.cache("c", _partition(2, 1000))   # evicts b (LRU)
    storage.get("b")                          # hit, via spill read
    storage.get("nope")                       # miss
    assert storage.hit_count == 2
    assert storage.miss_count == 1

    def total(name):
        (series,) = find_series(registry, name, worker="w0")
        return series["total"]

    assert total("storage_hits_total") == storage.hit_count
    assert total("storage_misses_total") == storage.miss_count
    assert total("storage_evictions_total") == storage.eviction_count
    assert total("storage_spill_bytes_total") == storage.spilled_bytes_total
    assert (
        total("storage_spill_read_bytes_total")
        == storage.spill_read_bytes_total
    )


def test_metrics_occupancy_timeline(regions):
    from repro.metrics import MetricsRegistry, find_series, series_peak

    registry = MetricsRegistry()
    storage = regions(2_500).attach_metrics(registry, "w0")
    storage.cache("a", _partition(0, 1000))
    storage.cache("b", _partition(1, 1000))
    storage.cache("c", _partition(2, 1000))  # evicts a
    (occupancy,) = find_series(registry, "storage_cached_bytes",
                               worker="w0")
    assert series_peak(occupancy) == storage.peak_bytes
    assert occupancy["last"] == storage.used_bytes


def test_metrics_memory_only_crash_is_counted(regions):
    from repro.metrics import MetricsRegistry, find_series

    registry = MetricsRegistry()
    storage = regions(2_000, spill_enabled=False).attach_metrics(
        registry, "w0"
    )
    storage.cache("a", _partition(0, 1500))
    with pytest.raises(StorageMemoryExceeded):
        storage.cache("b", _partition(1, 1500))
    (crashes,) = find_series(
        registry, "crash_total", worker="w0", region="storage"
    )
    assert crashes["total"] == 1
    assert crashes["labels"]["exception"] == "StorageMemoryExceeded"


# ---------------------------------------------------------------------
# spill files: wave files, the only copy of an evicted partition
# ---------------------------------------------------------------------
def test_spill_dir_writes_real_files_and_cleans_up(tmp_path, regions):
    """An evicted partition is a wave file in ``spill_dir``: VCB1
    payload, footer, digest. Re-admitted by a read, it leaves disk;
    ``clear`` removes every file."""
    storage = regions(2_500, spill_dir=str(tmp_path))
    part = _partition(0, 1000)
    storage.cache("a", part)
    storage.cache("b", _partition(1, 1000))
    storage.cache("c", _partition(2, 1000))  # evicts a to disk
    (name,) = os.listdir(tmp_path)
    assert name.endswith(".spill")
    path = os.path.join(tmp_path, name)
    footer = read_footer(path)
    entry = footer["partitions"]["0"]
    with open(path, "rb") as handle:
        payload = handle.read()[entry["offset"]:entry["nbytes"]]
    assert payload == part.serialized_blob()
    assert entry["sha256"] == sha256_hex(payload) and entry["num_rows"] == 1
    storage.evict("c")
    assert storage.get("a") is not None  # fits: re-admitted to memory
    assert storage.cached_keys() == ["b", "a"] and os.listdir(tmp_path) == []
    storage.cache("c", _partition(2, 1000))  # evicts b
    storage.clear()
    assert os.listdir(tmp_path) == [] and storage.spilled_keys() == []


def _disk_full(fd, data):
    os.write(fd, bytes(data[:7]))
    raise OSError(28, "No space left on device")


def test_spill_crash_mid_write_leaves_no_tmp_orphan(tmp_path, monkeypatch,
                                                    regions):
    """A spill write that fails half-way removes what it wrote and
    raises; the partition it was evicting stays cached, charged and
    readable, since no other copy exists."""
    storage = regions(2_500, spill_dir=str(tmp_path))
    storage.cache("a", _partition(0, 1000))
    storage.cache("b", _partition(1, 1000))
    used = storage.used_bytes
    with monkeypatch.context() as patch:
        patch.setattr(storage_module, "write_all", _disk_full)
        with pytest.raises(OSError):
            storage.cache("c", _partition(2, 1000))  # spills a; disk full
    assert os.listdir(tmp_path) == []
    assert storage.cached_keys() == ["a", "b"] and storage.used_bytes == used
    assert storage.spilled_keys() == [] and storage.spilled_bytes_total == 0
    assert storage.get("a").block().num_rows == 1


@pytest.mark.parametrize("persistence", [DESERIALIZED, SERIALIZED])
def test_an_evicted_partition_leaves_the_heap(persistence, regions):
    """Eviction drops the object: the region keeps no reference to it,
    and the read maps the file back bit-identical in the same
    persistence."""
    storage = regions(2_500)
    rng = np.random.default_rng(1)
    values = np.maximum(rng.normal(size=250), 0).astype(np.float32)
    part = Partition.from_rows(0, [{"id": 0, "x": values}])
    gone = weakref.ref(part)
    storage.cache("a", part, persistence)
    del part
    storage.cache("b", _partition(1, 1000))
    storage.cache("c", _partition(2, 1000))  # evicts a
    gc.collect()
    assert gone() is None and storage.spilled_keys() == ["a"]
    read = storage.get("a")
    assert read.serialized == (persistence == SERIALIZED)
    assert np.array_equal(read.block().column("x")[0], values)


def test_a_serialized_partition_holds_only_its_blob(regions):
    """Each read decodes the blob afresh; the region's partition never
    keeps a decoded block beside the blob it is charged for."""
    storage = regions(10_000)
    part = _partition(0, 1000)
    storage.cache("a", part, SERIALIZED)
    assert storage.used_bytes == len(part.serialized_blob())
    for reads in (1, 2):
        assert storage.get("a").block().num_rows == 1
        assert part.serialized and part.deserialize_count == reads


def test_spills_go_to_a_temp_dir_that_leaves_with_the_last_file(
        tmp_path, regions):
    """Without ``spill_dir`` the first spill makes a temp directory,
    removed when the region's last spill file goes; a ``spill_dir`` set
    after construction is where the next spill goes."""
    storage = regions(1_500)
    storage.cache("a", _partition(0, 1000))
    storage.cache("b", _partition(1, 1000))  # evicts a
    (temp,) = [n for n in os.listdir(tmp_path) if n.startswith("vista-")]
    assert len(os.listdir(tmp_path / temp)) == 1
    later = tmp_path / "later"
    later.mkdir()
    storage.spill_dir = str(later)
    storage.cache("c", _partition(2, 1000))  # evicts b into spill_dir
    assert len(os.listdir(later)) == 1
    storage.evict("a")
    storage.evict("b")
    assert os.listdir(later) == [] and not (tmp_path / temp).exists()


def test_a_read_never_evicts(regions):
    """A spilled partition read while the region is full is served from
    its file and stays there: nothing resident is evicted, and nothing
    is written."""
    storage = regions(2_500)
    storage.cache("a", _partition(0, 1000))
    storage.cache("b", _partition(1, 1000))
    storage.cache("c", _partition(2, 1000))  # evicts a
    spilled = storage.spilled_bytes_total
    assert storage.get("a") is not None
    assert storage.cached_keys() == ["b", "c"]
    assert storage.spilled_keys() == ["a"]
    assert storage.spilled_bytes_total == spilled
    assert storage.eviction_count == 1


def test_a_forked_worker_only_reads_its_region(tmp_path, regions):
    """A forked worker inherits the region and reads a spilled partition
    from its file, but never re-admits it: the owner's file and index
    stay as they were."""
    storage = regions(2_500, spill_dir=str(tmp_path))
    storage.cache("a", _partition(0, 1000))
    storage.cache("b", _partition(1, 1000))
    storage.cache("c", _partition(2, 1000))  # evicts a
    storage.evict("c")                       # a would fit again
    files = os.listdir(tmp_path)
    pid = os.fork()
    if pid == 0:
        try:
            read = storage.get("a")
            ok = (read.block().num_rows == 1
                  and storage.spilled_keys() == ["a"]
                  and os.listdir(tmp_path) == files)
        except BaseException:
            ok = False
        os._exit(0 if ok else 1)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert os.listdir(tmp_path) == files
    assert storage.spilled_keys() == ["a"] and storage.hit_count == 0
    assert storage.get("a") is not None      # the owner re-admits
    assert storage.cached_keys() == ["b", "a"] and os.listdir(tmp_path) == []


# ---------------------------------------------------------------------
# engine runs: a spilling run holds no more than its regions account
# ---------------------------------------------------------------------
def _alexnet_cell(plan_name, persistence):
    """``run(storage_bytes=None) -> (context, result)`` for one cell:
    AlexNet-mini over 210 Foods records in two partitions (one 105-row
    micro-batch each) on one worker, its Storage capped at
    ``storage_bytes`` when given."""
    from repro.cnn import build_model
    from repro.core.config import VistaConfig
    from repro.core.executor import FeatureTransferExecutor
    from repro.core.plans import ALL_PLANS
    from repro.data import foods_dataset
    from repro.dataflow.context import local_context

    model = build_model("alexnet", profile="mini")
    dataset = foods_dataset(num_records=210)
    config = VistaConfig(
        cpu=2, num_partitions=2, mem_storage_bytes=10**9,
        mem_user_bytes=10**9, mem_dl_bytes=10**9, join="shuffle",
        persistence=persistence,
    )

    def run(storage_bytes=None):
        ctx = local_context(num_nodes=1, cores_per_node=2, cpu=2,
                            exec_backend="serial")
        if storage_bytes is not None:
            ctx.workers[0].storage.capacity_bytes = storage_bytes
        executor = FeatureTransferExecutor(
            ctx, model, dataset, model.feature_layers[-3:], config,
            downstream_fn=lambda features, labels: {},
        )
        return ctx, executor.run(ALL_PLANS[plan_name])

    return run


@pytest.mark.parametrize("persistence", [DESERIALIZED, SERIALIZED])
@pytest.mark.parametrize(
    "plan_name", ["eager", "eager-reordered", "staged", "staged-bj"])
def test_a_spilling_run_allocates_no_more_than_its_regions_account(
        plan_name, persistence):
    """A squeezed cell (:func:`_alexnet_cell` with a Storage region
    that holds one partition). The run spills and reads back, and its
    tracemalloc peak — model and dataset built before tracing starts —
    stays within the sum of every region's accounted peak: an evicted
    partition or a decoded serialized block kept on the heap is memory
    no region pays for."""
    import tracemalloc

    from repro.memory.model import Region
    from tests.test_plan_equivalence_prop import admissions

    run = _alexnet_cell(plan_name, persistence)
    with admissions() as charged:
        run()
    tracemalloc.start()
    try:
        ctx, result = run(storage_bytes=max(charged))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    (worker,) = ctx.workers
    accounted = (
        sum(worker.accountant.peak(region) for region in Region)
        + worker.storage.peak_bytes + ctx.driver.peak(Region.DRIVER)
    )
    assert result.metrics["spill_read_bytes"] > 0
    assert peak <= accounted, f"traced {peak} B, accounted {accounted} B"


def test_spill_meters_count_the_wave_file_bytes(monkeypatch):
    """The squeezed Eager cell, deserialized: its evicted partition is
    charged 87,360 B, but the wave file holds the sparse VCB1 payload
    plus a footer. The spill meters count the file — the bytes written,
    and the mapped length of every read back — not the charge."""
    from tests.test_plan_equivalence_prop import admissions

    written = []
    write_all = storage_module.write_all

    def counting_write_all(fd, data):
        written.append(len(data))
        return write_all(fd, data)

    run = _alexnet_cell("eager", DESERIALIZED)
    with admissions() as charged:
        run()
    assert max(charged) == 87_360
    monkeypatch.setattr(storage_module, "write_all", counting_write_all)
    _, result = run(storage_bytes=max(charged))
    (file_bytes,) = written
    assert file_bytes != 87_360
    assert result.metrics["spilled_bytes"] == file_bytes
    reads = result.metrics["spill_read_bytes"]
    assert reads > 0 and reads % file_bytes == 0
