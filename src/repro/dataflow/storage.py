"""Storage Memory: the one holder of a cached partition.

The Storage region of the abstract memory model (PAPER §4, Fig. 4). A
cached table keeps only its partitions' keys, so every read is
:meth:`StorageManager.get`. Spark-style elastic storage evicts the
least-recently-used partition to disk when the region fills (costing
*runtime*); Ignite-style memory-only storage raises
:class:`StorageMemoryExceeded` instead — Figure 6's per-backend crash
pattern.

An evicted partition leaves the heap for a one-partition wave file
(:mod:`repro.wavefile`, no fsync) in ``spill_dir``, or in a temp
directory made on the first spill and removed with the last. ``get``
maps it read-only and re-admits it only if it fits without evicting:
a read never writes, and a forked worker only reads.
"""

from __future__ import annotations

import mmap
import os
import shutil
import tempfile
import threading
from collections import OrderedDict
from contextlib import suppress

from repro.atomic_io import write_all
from repro.dataflow.backend import on_driver
from repro.dataflow.columnar import ColumnarBlock
from repro.dataflow.partition import DESERIALIZED, SERIALIZED, Partition
from repro.exceptions import StorageMemoryExceeded
from repro.trace import NULL_TRACER
from repro.wavefile import encode_wave

class StorageManager:
    """Per-worker storage region with LRU eviction and spill metering.

    With a tracer attached, every admission, spill and spill re-read
    lands on the current span as ``storage_*`` counters and
    ``spill``/``spill_read`` events; with a metrics registry attached
    (``attach_metrics``), as a ``storage_cached_bytes`` occupancy
    timeline and hit/miss/eviction/spill counters.
    """

    def __init__(self, capacity_bytes, spill_enabled=True, spill_dir=None):
        self.capacity_bytes = int(capacity_bytes)
        self.spill_enabled = spill_enabled
        self.spill_dir = spill_dir
        self.tracer = NULL_TRACER
        self._m = None
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._cached = OrderedDict()   # key -> (partition, bytes)
        #: key -> (wave file path, payload bytes, bytes, index, serialized)
        self._spilled = {}
        self._temp_dir = None
        self.used_bytes = 0
        self.reset_counters()

    def reset_counters(self):
        """Zero the run counters; the peak restarts at the bytes held."""
        self.spilled_bytes_total = self.spill_read_bytes_total = 0
        self.eviction_count = self.hit_count = self.miss_count = 0
        self.peak_bytes = self.used_bytes

    def attach_metrics(self, metrics, owner):
        """Emit this region's timeline and counters on ``metrics``,
        labelled with the owning worker."""
        owner = str(owner)
        self._m = {
            name: metrics.counter(f"storage_{name}_total", worker=owner)
            for name in ("hits", "misses", "evictions", "spill_bytes",
                         "spill_read_bytes")
        }
        self._m["crashes"] = metrics.counter(
            "crash_total", worker=owner, region="storage",
            exception=StorageMemoryExceeded.__name__,
        )
        self._m["cached_bytes"] = metrics.gauge(
            "storage_cached_bytes", worker=owner)
        self._m["cached_bytes"].set(self.used_bytes)
        return self

    def _count(self, name, amount=1):
        if self._m is not None:
            self._m[name].inc(amount)

    def _sample_occupancy(self, used):
        if self._m is not None:
            self._m["cached_bytes"].set(used)

    def cache(self, key, partition, persistence=DESERIALIZED):
        """Admit a partition into Storage Memory (a serialized one keeps
        only its blob); returns the bytes it is charged. Evicts LRU
        partitions to disk to make room when spill is enabled, else
        raises :class:`StorageMemoryExceeded`. A re-admitted key's spill
        file goes: a key lives in exactly one place."""
        with self._lock:
            if key in self._cached:
                self._cached.move_to_end(key)
                return self._cached[key][1]
            if persistence == SERIALIZED:
                partition.drop_rows()
            nbytes = partition.memory_bytes(persistence)
            self._make_room(nbytes)
            self._forget_spill(key)
            if self.used_bytes + nbytes > self.capacity_bytes:
                self._spill(key, partition, nbytes)  # straight to disk
            else:
                self._admit(key, partition, nbytes)
            return nbytes

    def _admit(self, key, partition, nbytes):
        self._cached[key] = (partition, nbytes)
        self.used_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)
        on_driver(self.tracer.add, "storage_cached_bytes", nbytes)
        on_driver(self._sample_occupancy, self.used_bytes)

    def _make_room(self, needed):
        """Spill LRU partitions until ``needed`` bytes fit or none is
        left (a memory-only region crashes instead)."""
        if (self.used_bytes + needed > self.capacity_bytes
                and not self.spill_enabled):
            self._count("crashes")
            raise StorageMemoryExceeded(
                f"a partition of {needed} B does not fit the storage "
                f"region ({self.used_bytes} of {self.capacity_bytes} B "
                "used) and spills are disabled")
        while self.used_bytes + needed > self.capacity_bytes and self._cached:
            key, (partition, nbytes) = next(iter(self._cached.items()))
            # Written first: a failed spill leaves the partition cached.
            self._spill(key, partition, nbytes)
            del self._cached[key]
            self.used_bytes -= nbytes
            self.eviction_count += 1
            self._count("evictions")
            self._sample_occupancy(self.used_bytes)

    def _spill(self, key, partition, nbytes):
        """Write ``partition`` as a one-partition wave file and index it
        under ``key``; a write that fails removes what it wrote and
        raises."""
        payload = partition.serialized_blob()
        data, _ = encode_wave([partition], [payload], key=str(key))
        if self.spill_dir is None and self._temp_dir is None:
            self._temp_dir = tempfile.mkdtemp(prefix="vista-spill-")
        # Unique across regions and processes sharing a ``spill_dir``.
        path = os.path.join(str(self.spill_dir or self._temp_dir),
                            f"{os.urandom(16).hex()}.spill")
        self._spilled[key] = (path, len(payload), nbytes, partition.index,
                              partition.serialized)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
            try:
                write_all(fd, data)
            finally:
                os.close(fd)
        except BaseException:
            self._forget_spill(key)
            raise
        # The meters count disk bytes; the region moves by the charge.
        written = len(data)
        self.spilled_bytes_total += written
        self.tracer.add("storage_spill_bytes", written)
        self.tracer.event("spill", key=str(key), bytes=written)
        self._count("spill_bytes", written)

    def _forget_spill(self, key):
        """Remove ``key``'s spill file, and the temp directory with the
        last one."""
        entry = self._spilled.pop(key, None)
        if entry is not None:
            with suppress(FileNotFoundError):
                os.remove(entry[0])
        if self._temp_dir is not None and not self._spilled:
            shutil.rmtree(self._temp_dir, ignore_errors=True)
            self._temp_dir = None

    def _record_read(self, key, nbytes):
        self._count("hits")
        if nbytes:
            self.tracer.add("storage_spill_read_bytes", nbytes)
            self.tracer.event("spill_read", key=str(key), bytes=nbytes)
            self._count("spill_read_bytes", nbytes)

    def get(self, key):
        """A cached partition, or None for a key the region does not
        hold (a miss). A spilled one is a hit too: decoded over a
        read-only map of its wave file, metered as ``spill_read``, and
        re-admitted only if it fits without evicting anything and only
        by the process that owns the region."""
        with self._lock:
            if key in self._cached:
                self._cached.move_to_end(key)
                self.hit_count += 1
                on_driver(self._record_read, key, 0)
                return self._cached[key][0]
            if key not in self._spilled:
                self.miss_count += 1
                on_driver(self._count, "misses")
                return None
            path, length, nbytes, index, serialized = self._spilled[key]
            with open(path, "rb") as handle:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
            payload = memoryview(mapped)[:length]
            partition = Partition(index, blob=payload) if serialized else \
                Partition(index, block=ColumnarBlock.from_buffer(payload))
            self.hit_count += 1
            self.spill_read_bytes_total += len(mapped)
            on_driver(self._record_read, key, len(mapped))
            if (os.getpid() == self._pid
                    and self.used_bytes + nbytes <= self.capacity_bytes):
                self._forget_spill(key)
                self._admit(key, partition, nbytes)
            return partition

    def evict(self, key):
        """Drop a partition from the region entirely (unpersist)."""
        with self._lock:
            entry = self._cached.pop(key, None)
            if entry is not None:
                self.used_bytes -= entry[1]
                self._sample_occupancy(self.used_bytes)
            self._forget_spill(key)

    def clear(self):
        for key in self.cached_keys() + self.spilled_keys():
            self.evict(key)

    def cached_keys(self):
        return list(self._cached)

    def spilled_keys(self):
        return list(self._spilled)

    def __repr__(self):
        return (
            f"<StorageManager {self.used_bytes}/{self.capacity_bytes} B, "
            f"{len(self._cached)} cached, {len(self._spilled)} spilled>"
        )
