"""Crash prediction for paper-scale workload runs (Section 4.1).

Decides whether a (plan, configuration, backend, cluster) combination
crashes, and from which Section 4.1 scenario, using the same memory
arithmetic the optimizer's constraints use. This is what paints the
"X" cells of Figures 6, 7, 10 and 11.

Mechanisms modelled:

1. **DL blowup** — ``cpu`` CNN replicas exceed the System Memory left
   outside the JVM's working footprint (Spark: VGG16 at 5-7 threads).
2. **GPU DL blowup** — ``cpu`` replicas exceed GPU memory (Fig. 7A).
3. **User Memory** — per-thread decoded-input and feature-output
   buffers (times the object blowup alpha) plus the serialized CNN and
   downstream-model copies overflow the (small, on-heap) User region —
   Ignite's 2.4 GB heap share is the binding case (Lazy-7 on Amazon).
4. **Static Storage** — plans that cache intermediates overflow
   Ignite's memory-only data region, which cannot spill (Eager on
   Amazon/ResNet50).
5. **Core/partition blowup** — too few partitions make a single
   partition's join/UDF state exceed Core Memory (Figure 11B's low-np
   crashes; Figure 10's broadcast crashes at very wide Tstr).

The User-region arithmetic is the *same function* the optimizer's
Eq. 10 uses (:func:`repro.core.optimizer.user_memory_requirement`), so
a Vista-chosen configuration can never fail its own constraint — the
paper's "Vista never crashes" property holds by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.config import (
    DEFAULT_ALPHA,
    DEFAULT_CORE_MEMORY,
    DEFAULT_OS_RESERVED,
)
from repro.core.optimizer import (
    downstream_mem_bytes,
    num_partitions_for,
    user_memory_requirement,
)
from repro.core.sizing import static_storage_need
from repro.memory.model import GB

#: Section 4.1 crash scenario identifiers.
CRASH_DL = "dl-execution-memory"
CRASH_DL_GPU = "gpu-memory"
CRASH_USER = "user-memory"
CRASH_STORAGE = "storage-memory"
CRASH_CORE = "execution-memory"
CRASH_DRIVER = "driver-memory"

_JVM_BASE = 4 * GB
_SPARK_STORAGE_COMMIT_CAP = 6 * GB
_DRIVER_CAP = 8 * GB


@dataclass(frozen=True)
class ExecutionSetup:
    """One concrete system configuration a workload runs under."""

    label: str
    backend: str           # "spark" | "ignite" | "flink"
    cpu: int
    num_partitions: int
    join: str              # "shuffle" | "broadcast"
    persistence: str       # "serialized" | "deserialized"
    heap_bytes: int
    user_cap_bytes: int
    core_cap_bytes: int
    storage_cap_bytes: int   # per node
    storage_spills: bool     # False = memory-only (Ignite)

    def with_(self, **changes):
        return replace(self, **changes)


def spark_default_setup(cpu, num_records=20000, label=None):
    """The baselines' Spark config: 29 GB heap tuned per best
    practices, shuffle join, deserialized, default partitioning.

    The input partition count tracks the file count (Spark's
    ``binaryFiles`` splits many small image files into many
    partitions), floored at the 200-partition shuffle default.
    """
    heap = 29 * GB
    user = int(0.4 * heap)
    unified = heap - user
    return ExecutionSetup(
        label=label or f"lazy-{cpu}",
        backend="spark",
        cpu=cpu,
        num_partitions=max(200, num_records // 100),
        join="shuffle",
        persistence="deserialized",
        heap_bytes=heap,
        user_cap_bytes=user,
        core_cap_bytes=int(unified * 0.5),
        storage_cap_bytes=int(unified * 0.5),
        storage_spills=True,
    )


def ignite_default_setup(cpu, label=None):
    """The baselines' Ignite config: 4 GB heap, 25 GB off-heap
    memory-only storage, np = 1024."""
    heap = 4 * GB
    return ExecutionSetup(
        label=label or f"lazy-{cpu}",
        backend="ignite",
        cpu=cpu,
        num_partitions=1024,
        join="shuffle",
        persistence="deserialized",
        heap_bytes=heap,
        user_cap_bytes=int(0.6 * heap),
        core_cap_bytes=heap - int(0.6 * heap),
        storage_cap_bytes=25 * GB,
        storage_spills=False,
    )


def flink_setup(label="tft+beam"):
    """The TFT+Beam comparison's hand-tuned Flink config (Fig. 7B):
    parallelism 32, 25 GB heap, User fraction raised to 60%."""
    heap = 25 * GB
    user = int(0.6 * heap)
    return ExecutionSetup(
        label=label,
        backend="flink",
        cpu=4,  # parallelism 32 over 8 nodes
        num_partitions=32,
        join="shuffle",
        persistence="serialized",
        heap_bytes=heap,
        user_cap_bytes=user,
        core_cap_bytes=int((heap - user) * 0.5),
        storage_cap_bytes=int((heap - user) * 0.5),
        storage_spills=True,
    )


def vista_setup(config, backend="spark", label="vista"):
    """Setup from the optimizer's :class:`VistaConfig`.

    On Spark the Storage region is on-heap; on Ignite it is off-heap
    (Figure 4B vs 4C), so the JVM heap differs per backend.
    """
    heap = config.mem_user_bytes + DEFAULT_CORE_MEMORY
    if backend == "spark":
        heap += config.mem_storage_bytes
    return ExecutionSetup(
        label=label,
        backend=backend,
        cpu=config.cpu,
        num_partitions=config.num_partitions,
        join=config.join,
        persistence=config.persistence,
        heap_bytes=heap,
        user_cap_bytes=config.mem_user_bytes,
        core_cap_bytes=DEFAULT_CORE_MEMORY,
        storage_cap_bytes=config.mem_storage_bytes,
        storage_spills=backend != "ignite",
    )


def manual_setup(workload, cpu, backend="spark",
                 cluster_memory_bytes=32 * GB, persistence="deserialized",
                 join="shuffle", label=None):
    """An explicitly hand-apportioned configuration for a forced ``cpu``
    — the paper's strong baselines ("For Lazy-5 with Pre-mat and Eager,
    we explicitly apportion CNN Inference memory, Storage Memory, User
    Memory, and Core Memory to avoid workload crashes"). Storage gets
    whatever is left after the DL replicas and User/Core needs; if
    nothing is left, the DL blowup is unavoidable and the run will
    crash."""
    np_ = num_partitions_for(workload.sizes.s_single, cpu, 8)
    user = user_memory_requirement(
        workload, np_, cpu, downstream_mem_bytes(workload)
    )
    storage = max(
        0,
        cluster_memory_bytes - DEFAULT_OS_RESERVED
        - cpu * workload.model_stats.runtime_mem_bytes - user
        - DEFAULT_CORE_MEMORY,
    )
    heap = user + DEFAULT_CORE_MEMORY
    if backend == "spark":
        heap += storage
    return ExecutionSetup(
        label=label or f"manual-{cpu}",
        backend=backend,
        cpu=cpu,
        num_partitions=np_,
        join=join,
        persistence=persistence,
        heap_bytes=int(heap),
        user_cap_bytes=int(user),
        core_cap_bytes=DEFAULT_CORE_MEMORY,
        storage_cap_bytes=int(storage),
        storage_spills=backend != "ignite",
    )


# ---------------------------------------------------------------------
# the check
# ---------------------------------------------------------------------
def detect_crash(workload, plan, setup, cluster, use_gpu=False):
    """Return the crash scenario identifier, or None if ``plan`` on the
    workload completes under ``setup``. The Storage terms come from the
    compiled ``plan``'s cached tables
    (:func:`~repro.costmodel.runtime.walk_plan`)."""
    from repro.costmodel.runtime import walk_plan

    model_stats = workload.model_stats
    dataset_stats = workload.dataset_stats
    # (2) GPU DL blowup — Eq. 15 violated at runtime.
    if use_gpu and cluster.has_gpu:
        if setup.cpu * model_stats.gpu_mem_bytes >= cluster.gpu_memory_bytes:
            return CRASH_DL_GPU

    sizing = workload.sizes
    user_need = user_memory_requirement(
        workload, setup.num_partitions, setup.cpu,
        downstream_mem_bytes(workload),
    )

    # (3) User Memory overflow — same arithmetic as the optimizer's
    # Eq. 10, so Vista's own configs are safe by construction.
    if user_need > setup.user_cap_bytes:
        return CRASH_USER

    # (4b) Driver overflow: a broadcast join collects and rebroadcasts
    # Tstr; with a wide structured table the driver dies (Fig. 10(3,4)).
    if setup.join == "broadcast":
        if DEFAULT_ALPHA * sizing.structured_table_bytes > _DRIVER_CAP:
            return CRASH_DRIVER

    # (5) Core/partition blowup: one partition's state during the join.
    partition_bytes = math.ceil(
        sizing.s_single / max(1, setup.num_partitions)
    )
    if DEFAULT_ALPHA * partition_bytes > setup.core_cap_bytes:
        return CRASH_CORE

    # (4) Static storage overflow (memory-only backends), in the same
    # arithmetic as the optimizer's Ignite constraint.
    cached = walk_plan(workload, plan).cached_bytes(
        static_storage=not setup.storage_spills
    )
    effective = static_storage_need(
        cached, setup.persistence, model_stats.serialized_ratio
    )
    if not setup.storage_spills:
        cluster_storage = setup.storage_cap_bytes * cluster.num_nodes
        if effective > cluster_storage:
            return CRASH_STORAGE

    # (1) DL Execution Memory blowup (CPU inference).
    if not use_gpu:
        per_node_cached = effective / cluster.num_nodes
        if setup.backend in ("spark", "flink"):
            # The JVM commits what the run actually touches: a base
            # footprint, the User-region objects, ~the best-practice
            # Core working set, and cached partitions (bounded — Spark
            # evicts storage under pressure), capped by the heap.
            committed_core = min(setup.core_cap_bytes, DEFAULT_CORE_MEMORY)
            jvm_commit = (
                _JVM_BASE + user_need + committed_core
                + min(per_node_cached, _SPARK_STORAGE_COMMIT_CAP)
            )
            jvm_commit = min(jvm_commit, setup.heap_bytes)
        else:
            base_data = (
                dataset_stats.image_table_bytes()
                + dataset_stats.structured_table_bytes()
            ) / cluster.num_nodes
            jvm_commit = setup.heap_bytes + min(
                base_data + per_node_cached, setup.storage_cap_bytes
            )
        dl_available = (
            cluster.system_memory_bytes - DEFAULT_OS_RESERVED - jvm_commit
        )
        if setup.cpu * model_stats.runtime_mem_bytes > dl_available:
            return CRASH_DL
    return None
