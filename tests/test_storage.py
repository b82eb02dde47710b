"""Unit tests for the storage manager: LRU eviction, spills, and the
memory-only crash path."""

import os

import numpy as np
import pytest

from repro.dataflow.partition import Partition
from repro.dataflow.storage import StorageManager
from repro.exceptions import StorageMemoryExceeded


def _partition(index, nbytes=1000):
    # Each float32 element contributes 4 bytes of payload.
    rows = [{"id": index, "x": np.zeros(nbytes // 4, dtype=np.float32)}]
    return Partition.from_rows(index, rows)


def test_cache_and_get():
    storage = StorageManager(10_000)
    part = _partition(0)
    storage.cache("a", part)
    assert storage.get("a") is part
    assert storage.used_bytes > 0


def test_miss_returns_none():
    storage = StorageManager(10_000)
    assert storage.get("missing") is None


def test_lru_eviction_spills_oldest():
    storage = StorageManager(3_000)
    for index in range(4):
        storage.cache(f"p{index}", _partition(index, 1000))
    assert storage.spilled_bytes_total > 0
    assert "p0" in storage.spilled_keys()
    assert "p3" in storage.cached_keys()


def test_touch_protects_recently_used():
    storage = StorageManager(2_500)
    storage.cache("a", _partition(0, 1000))
    storage.cache("b", _partition(1, 1000))
    storage.get("a")  # a becomes most recent
    storage.cache("c", _partition(2, 1000))
    assert "b" in storage.spilled_keys()
    assert "a" in storage.cached_keys()


def test_spilled_partition_read_back_is_metered():
    storage = StorageManager(2_000)
    storage.cache("a", _partition(0, 1500))
    storage.cache("b", _partition(1, 1500))  # evicts a
    assert storage.get("a") is not None
    assert storage.spill_read_bytes_total > 0


def test_memory_only_overflow_crashes():
    storage = StorageManager(2_000, spill_enabled=False)
    storage.cache("a", _partition(0, 1500))
    with pytest.raises(StorageMemoryExceeded):
        storage.cache("b", _partition(1, 1500))


def test_memory_only_oversized_partition_crashes():
    storage = StorageManager(1_000, spill_enabled=False)
    with pytest.raises(StorageMemoryExceeded):
        storage.cache("a", _partition(0, 5_000))


def test_evict_releases_capacity():
    storage = StorageManager(2_000)
    storage.cache("a", _partition(0, 1500))
    used = storage.used_bytes
    storage.evict("a")
    assert storage.used_bytes == used - used
    assert storage.get("a") is None


def test_recache_same_key_is_idempotent():
    storage = StorageManager(10_000)
    part = _partition(0)
    storage.cache("a", part)
    used = storage.used_bytes
    storage.cache("a", part)
    assert storage.used_bytes == used


def test_peak_tracking():
    storage = StorageManager(10_000)
    storage.cache("a", _partition(0, 2000))
    storage.cache("b", _partition(1, 2000))
    storage.evict("a")
    assert storage.peak_bytes >= storage.used_bytes


def test_clear():
    storage = StorageManager(10_000)
    storage.cache("a", _partition(0))
    storage.clear()
    assert storage.used_bytes == 0
    assert storage.get("a") is None


def test_recache_after_eviction_supersedes_spilled_copy():
    """Regression: re-admitting a key that was LRU-evicted must drop
    the stale spilled copy, or the key is double-tracked and a later
    eviction double-counts its bytes."""
    storage = StorageManager(2_500)
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


def test_oversized_partition_goes_straight_to_disk(tmp_path):
    """A partition larger than the region left after evicting
    everything is never admitted: it lands spilled (metered, blob
    written), ``get`` re-reads it without admitting it, ``evict``
    removes the file — and occupancy never passes the capacity."""
    storage = StorageManager(800, spill_dir=str(tmp_path))
    small, big = _partition(0, 400), _partition(1, 1200)
    small_bytes, big_bytes = small.memory_bytes(), big.memory_bytes()
    assert small_bytes <= 800 < big_bytes
    storage.cache("small", small)
    storage.cache("big", big)  # evicts small, still does not fit
    assert storage.used_bytes == 0 and storage.cached_keys() == []
    assert sorted(storage.spilled_keys()) == ["big", "small"]
    assert storage.spilled_bytes_total == small_bytes + big_bytes
    assert storage.eviction_count == 1  # big was never resident
    path = storage.spill_file_paths()["big"]
    assert os.path.exists(path)

    assert storage.get("big") is big
    assert storage.spill_read_bytes_total == big_bytes
    assert "big" in storage.spilled_keys() and os.path.exists(path)
    assert storage.peak_bytes == small_bytes <= storage.capacity_bytes

    storage.evict("big")
    assert storage.get("big") is None and not os.path.exists(path)


def test_used_bytes_never_exceed_capacity():
    storage = StorageManager(2_500)
    sizes = [1000, 3000, 400, 2400, 5000, 1000, 400]
    for index, nbytes in enumerate(sizes):
        storage.cache(f"p{index}", _partition(index, nbytes))
        assert storage.used_bytes <= storage.capacity_bytes
        assert storage.get(f"p{index % 3}") is not None
        assert storage.used_bytes <= storage.capacity_bytes
    assert storage.peak_bytes <= storage.capacity_bytes
    assert len(storage.cached_keys()) + len(storage.spilled_keys()) \
        == len(sizes)


def test_metrics_count_hits_misses_and_evictions_exactly():
    from repro.metrics import MetricsRegistry, find_series

    registry = MetricsRegistry()
    storage = StorageManager(2_500).attach_metrics(registry, "w0")
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


def test_metrics_occupancy_timeline_and_residency_ages():
    from repro.metrics import MetricsRegistry, find_series, series_peak

    registry = MetricsRegistry()
    storage = StorageManager(2_500).attach_metrics(registry, "w0")
    storage.cache("a", _partition(0, 1000))
    storage.cache("b", _partition(1, 1000))
    storage.cache("c", _partition(2, 1000))  # evicts a
    (occupancy,) = find_series(registry, "storage_cached_bytes",
                               worker="w0")
    assert series_peak(occupancy) == storage.peak_bytes
    assert occupancy["last"] == storage.used_bytes
    (residency,) = find_series(registry, "storage_residency_age_ticks",
                               worker="w0")
    assert residency["count"] == 1  # one LRU eviction so far
    assert residency["min"] > 0


def test_metrics_memory_only_crash_is_counted():
    from repro.metrics import MetricsRegistry, find_series

    registry = MetricsRegistry()
    storage = StorageManager(2_000, spill_enabled=False).attach_metrics(
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
# on-disk spill files (spill_dir) and mid-write crash residue
# ---------------------------------------------------------------------
def test_spill_dir_writes_real_files_and_cleans_up(tmp_path):
    storage = StorageManager(2_500, spill_dir=str(tmp_path))
    storage.cache("a", _partition(0, 1000))
    storage.cache("b", _partition(1, 1000))
    storage.cache("c", _partition(2, 1000))  # evicts a to disk
    paths = storage.spill_file_paths()
    assert "a" in paths and os.path.exists(paths["a"])
    assert not any(n.endswith(".tmp") for n in os.listdir(tmp_path))
    assert storage.get("a") is not None  # re-admitted to memory
    assert "a" not in storage.spill_file_paths()
    assert not os.path.exists(paths["a"])
    storage.clear()
    assert storage.spill_file_paths() == {}
    assert not any(
        n.endswith(".spill") for n in os.listdir(tmp_path)
    )


def test_spill_crash_mid_write_leaves_no_tmp_orphan(tmp_path, monkeypatch):
    """Satellite regression: a crash between the tmp write and the
    rename must not leak a ``*.tmp`` orphan, and the retained
    in-memory copy must still serve re-reads."""
    storage = StorageManager(2_500, spill_dir=str(tmp_path))
    storage.cache("a", _partition(0, 1000))
    storage.cache("b", _partition(1, 1000))

    def crash_replace(src, dst):
        raise OSError("injected crash between write and rename")

    monkeypatch.setattr(os, "replace", crash_replace)
    storage.cache("c", _partition(2, 1000))  # eviction spills a; write dies
    monkeypatch.undo()
    assert os.listdir(tmp_path) == []  # no torn file, no tmp orphan
    assert "a" in storage.spilled_keys()
    assert storage.spill_file_paths() == {}
    assert storage.get("a") is not None  # fallback copy still serves


def test_stray_spill_tmp_reclaimed_on_construct(tmp_path):
    (tmp_path / "t_img-0.spill.tmp").write_bytes(b"torn")
    (tmp_path / "note.txt").write_bytes(b"keep")
    storage = StorageManager(2_500, spill_dir=str(tmp_path))
    assert storage.reclaimed_tmp_count == 1
    assert sorted(os.listdir(tmp_path)) == ["note.txt"]
