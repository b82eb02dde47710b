"""Spark's memory model (Figure 4B).

User, Core, and Storage Memory live in the JVM heap; with default
configurations 40% of the heap is User Memory and the remaining 60%
is shared between Storage and Core with a moving boundary (Storage can
be evicted down to a protected fraction). DL Execution Memory lives
outside the heap, in whatever System Memory the JVM does not claim.
"""

from __future__ import annotations

from repro.memory.model import GB, MemoryBudget

#: Spark defaults (spark.memory.fraction etc., per the paper's setup).
DEFAULT_USER_FRACTION = 0.4
DEFAULT_STORAGE_SHARE = 0.5  # protected storage fraction of unified region


def spark_memory_budget(system_bytes, heap_bytes, os_reserved_bytes=3 * GB):
    """Budget for a Spark worker with a given JVM heap.

    Everything outside heap + OS reserve is available to the DL system
    (TensorFlow in the paper, our numpy engine here).
    """
    user = int(heap_bytes * DEFAULT_USER_FRACTION)
    unified = heap_bytes - user
    storage = int(unified * DEFAULT_STORAGE_SHARE)
    core = unified - storage
    dl = max(0, system_bytes - os_reserved_bytes - heap_bytes)
    return MemoryBudget(
        system_bytes=system_bytes,
        os_reserved_bytes=os_reserved_bytes,
        user_bytes=user,
        core_bytes=core,
        storage_bytes=storage,
        dl_bytes=dl,
        storage_elastic=True,
    )


def spark_budget_from_regions(system_bytes, user_bytes, core_bytes,
                              storage_bytes, os_reserved_bytes=3 * GB):
    """Budget with explicitly apportioned regions — what Vista does
    after the optimizer picks ``mem_user``/``mem_core``/``mem_storage``
    (Table 1B); DL gets the remainder of System Memory."""
    dl = max(
        0,
        system_bytes - os_reserved_bytes - user_bytes - core_bytes
        - storage_bytes,
    )
    return MemoryBudget(
        system_bytes=system_bytes,
        os_reserved_bytes=os_reserved_bytes,
        user_bytes=user_bytes,
        core_bytes=core_bytes,
        storage_bytes=storage_bytes,
        dl_bytes=dl,
        storage_elastic=True,
    )
