"""Storage Memory management: caching, LRU eviction, disk spill.

Models the Storage region of the abstract memory model. Spark-style
elastic storage evicts least-recently-used partitions to disk when the
region fills (raising *runtimes*, not errors); Ignite-style static
memory-only storage crashes with :class:`StorageMemoryExceeded`
instead — the behavioural difference behind Figure 6's per-backend
crash pattern.

"Disk" is a byte counter plus retained partition references: the data
is never thrown away (we are one process), but every spill and
re-read is metered so benchmarks and the cost model can charge I/O.
With ``spill_dir`` set, evictions additionally write each spilled
partition's serialized blob to a real file using the checkpoint
store's tmp + rename protocol, so a crash mid-spill leaves a stray
``*.tmp`` (reclaimed on the next manager construction) rather than a
torn spill file — the regression tests inject exactly that crash and
assert no orphans leak.
"""

from __future__ import annotations

import os
import re
from collections import OrderedDict

from repro.atomic_io import atomic_write_bytes, reclaim_tmp_files
from repro.dataflow.partition import DESERIALIZED
from repro.exceptions import StorageMemoryExceeded
from repro.trace import NULL_TRACER

_UNSAFE_KEY = re.compile(r"[^A-Za-z0-9_.-]+")


class StorageManager:
    """Per-worker storage region with LRU eviction and spill metering.

    With a tracer attached (``ClusterContext.attach_tracer``), every
    admission, LRU spill, and spill re-read also lands on the current
    trace span as ``storage_*`` counters and ``spill``/``spill_read``
    events, so traces show exactly which cached table paid disk I/O.

    With a metrics registry attached (``attach_metrics``), the region
    additionally emits a ``storage_cached_bytes`` occupancy timeline
    and exact hit/miss/eviction/spill counters.
    """

    def __init__(self, capacity_bytes, spill_enabled=True, spill_dir=None):
        self.capacity_bytes = int(capacity_bytes)
        self.spill_enabled = spill_enabled
        self.spill_dir = str(spill_dir) if spill_dir is not None else None
        self.tracer = NULL_TRACER
        self._m = None
        self._cached = OrderedDict()   # key -> (partition, bytes)
        self._spilled = {}             # key -> (partition, bytes)
        self._spill_files = {}         # key -> on-disk blob path
        self.used_bytes = 0
        self.peak_bytes = 0
        self.spilled_bytes_total = 0
        self.spill_read_bytes_total = 0
        self.eviction_count = 0
        self.hit_count = 0
        self.miss_count = 0
        self.reclaimed_tmp_count = 0
        if self.spill_dir is not None:
            os.makedirs(self.spill_dir, exist_ok=True)
            # Stray *.tmp files are the residue of a crash mid-spill;
            # only complete (renamed) spill files are ever trusted.
            self.reclaimed_tmp_count = len(reclaim_tmp_files(self.spill_dir))

    def _spill_to_disk(self, key, partition):
        """Write a spilled partition's serialized blob to a real file
        via tmp + rename. Failures leave no tmp residue and fall back
        to the in-memory retained copy (the spill stays metered).

        The file name carries the writing process's pid. Caching runs
        in the driver, but a forked worker inherits this manager, and
        pid-scoping keeps anything its copy spilled from clobbering —
        or being trusted as — the driver's file for the same key."""
        if self.spill_dir is None:
            return
        name = _UNSAFE_KEY.sub("-", str(key)).strip("-") or "partition"
        path = os.path.join(self.spill_dir, f"{name}.p{os.getpid()}.spill")
        try:
            atomic_write_bytes(path, partition.serialized_blob(),
                               fsync=False)
        except OSError:
            return  # retained in-memory copy still serves re-reads
        self._spill_files[key] = path

    def _drop_spill_file(self, key):
        path = self._spill_files.pop(key, None)
        if path is not None and os.path.exists(path):
            os.remove(path)

    def attach_metrics(self, metrics, owner):
        """Emit this region's timeline and counters on ``metrics``,
        labelled with the owning worker."""
        owner = str(owner)
        self._m = {
            "cached_bytes": metrics.gauge(
                "storage_cached_bytes", worker=owner
            ),
            "hits": metrics.counter("storage_hits_total", worker=owner),
            "misses": metrics.counter("storage_misses_total", worker=owner),
            "evictions": metrics.counter(
                "storage_evictions_total", worker=owner
            ),
            "spill_bytes": metrics.counter(
                "storage_spill_bytes_total", worker=owner
            ),
            "spill_read_bytes": metrics.counter(
                "storage_spill_read_bytes_total", worker=owner
            ),
            "crashes": metrics.counter(
                "crash_total", worker=owner, region="storage",
                exception=StorageMemoryExceeded.__name__,
            ),
        }
        self._m["cached_bytes"].set(self.used_bytes)
        return self

    def _sample_occupancy(self):
        if self._m is not None:
            self._m["cached_bytes"].set(self.used_bytes)

    def _crash(self, message):
        if self._m is not None:
            self._m["crashes"].inc()
        raise StorageMemoryExceeded(message)

    def cache(self, key, partition, persistence=DESERIALIZED):
        """Admit a partition into Storage Memory.

        Evicts LRU partitions to disk to make room when spill is
        enabled; otherwise raises :class:`StorageMemoryExceeded` when
        the region cannot hold the partition. Re-admitting a key that
        was previously evicted supersedes its spilled copy: the key
        lives in exactly one place afterwards, so ``cached_bytes`` and
        the spill counters stay consistent across evict/re-cache
        cycles.
        """
        if key in self._cached:
            self._touch(key)
            return
        nbytes = partition.memory_bytes(persistence)
        if nbytes > self.capacity_bytes and not self.spill_enabled:
            self._crash(
                f"partition of {nbytes} B exceeds storage region of "
                f"{self.capacity_bytes} B and spills are disabled"
            )
        self._make_room(nbytes)
        # The fresh admission is authoritative; drop any stale spilled
        # copy so the key is not double-tracked (and a later eviction
        # cannot double-count its bytes).
        self._spilled.pop(key, None)
        self._drop_spill_file(key)
        if self.used_bytes + nbytes > self.capacity_bytes:
            # Larger than the emptied region: straight to disk.
            self._spill(key, partition, nbytes)
            return
        self._cached[key] = (partition, nbytes)
        self.used_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)
        self.tracer.add("storage_cached_bytes", nbytes)
        self._sample_occupancy()

    def _make_room(self, needed):
        while self.used_bytes + needed > self.capacity_bytes and self._cached:
            if not self.spill_enabled:
                self._crash(
                    f"storage region full ({self.used_bytes} B used, "
                    f"{needed} B needed, capacity {self.capacity_bytes} B) "
                    "and spills are disabled"
                )
            evict_key, (partition, nbytes) = self._cached.popitem(last=False)
            self.used_bytes -= nbytes
            self.eviction_count += 1
            self._spill(evict_key, partition, nbytes)
            if self._m is not None:
                self._m["evictions"].inc()
            self._sample_occupancy()
        if self.used_bytes + needed > self.capacity_bytes:
            if not self.spill_enabled:
                self._crash(
                    f"partition of {needed} B cannot fit in storage region "
                    f"of {self.capacity_bytes} B"
                )
            # Nothing left to evict: the caller sends the partition
            # itself straight to disk.

    def _spill(self, key, partition, nbytes):
        """Record ``partition`` as spilled and meter the write."""
        self._spilled[key] = (partition, nbytes)
        self._spill_to_disk(key, partition)
        self.spilled_bytes_total += nbytes
        self.tracer.add("storage_spill_bytes", nbytes)
        self.tracer.event("spill", key=str(key), bytes=nbytes)
        if self._m is not None:
            self._m["spill_bytes"].inc(nbytes)

    def _touch(self, key):
        self._cached.move_to_end(key)

    def get(self, key):
        """Fetch a cached partition, reading it back from disk (and
        metering the read) if it was spilled. Returns None on miss.

        A memory-resident fetch counts as a hit; a spilled fetch also
        counts as a hit (the data survived) but pays the metered
        ``spill_read``; an unknown key is a miss.
        """
        if key in self._cached:
            self._touch(key)
            self.hit_count += 1
            if self._m is not None:
                self._m["hits"].inc()
            return self._cached[key][0]
        if key in self._spilled:
            partition, nbytes = self._spilled.pop(key)
            self.hit_count += 1
            self.spill_read_bytes_total += nbytes
            self.tracer.add("storage_spill_read_bytes", nbytes)
            self.tracer.event("spill_read", key=str(key), bytes=nbytes)
            if self._m is not None:
                self._m["hits"].inc()
                self._m["spill_read_bytes"].inc(nbytes)
            self._make_room(nbytes)
            if self.used_bytes + nbytes <= self.capacity_bytes:
                self._cached[key] = (partition, nbytes)
                self._drop_spill_file(key)
                self.used_bytes += nbytes
                self.peak_bytes = max(self.peak_bytes, self.used_bytes)
                self._sample_occupancy()
            else:
                self._spilled[key] = (partition, nbytes)
            return partition
        self.miss_count += 1
        if self._m is not None:
            self._m["misses"].inc()
        return None

    def evict(self, key):
        """Drop a partition from the region entirely (unpersist)."""
        if key in self._cached:
            _, nbytes = self._cached.pop(key)
            self.used_bytes -= nbytes
            self._sample_occupancy()
        self._spilled.pop(key, None)
        self._drop_spill_file(key)

    def clear(self):
        self._cached.clear()
        self._spilled.clear()
        for key in list(self._spill_files):
            self._drop_spill_file(key)
        self.used_bytes = 0
        self._sample_occupancy()

    def cached_keys(self):
        return list(self._cached)

    def spilled_keys(self):
        return list(self._spilled)

    def spill_file_paths(self):
        """On-disk blob paths of currently spilled partitions (empty
        without ``spill_dir``)."""
        return dict(self._spill_files)

    def __repr__(self):
        return (
            f"<StorageManager {self.used_bytes}/{self.capacity_bytes} B, "
            f"{len(self._cached)} cached, {len(self._spilled)} spilled>"
        )
