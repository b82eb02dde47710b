"""Ignite's memory model (Figure 4C).

Ignite treats User and Core as one unified on-heap region and puts
Storage Memory *off-heap* in JVM native memory with a **static** size.
Configured memory-only (as in the paper's experiments), Storage cannot
spill: overflowing it crashes the workload, which is why Lazy-7 and
Eager crash on Ignite in Figure 6 where Spark merely spills.
"""

from __future__ import annotations

from repro.memory.model import GB, MemoryBudget


#: The share of the heap attributed to User Memory, the rest to Core.
USER_CORE_SPLIT = 0.6


def ignite_memory_budget(system_bytes, heap_bytes, storage_bytes,
                         os_reserved_bytes=3 * GB):
    """Budget for an Ignite worker.

    The heap is split between the (unified) User and Core roles with a
    fixed fraction so the shared accountant can still attribute
    overflows to the right crash scenario; ``storage_bytes`` is the
    static off-heap data region.
    """
    user = int(heap_bytes * USER_CORE_SPLIT)
    core = heap_bytes - user
    dl = max(
        0, system_bytes - os_reserved_bytes - heap_bytes - storage_bytes
    )
    return MemoryBudget(
        system_bytes=system_bytes,
        os_reserved_bytes=os_reserved_bytes,
        user_bytes=user,
        core_bytes=core,
        storage_bytes=storage_bytes,
        dl_bytes=dl,
        storage_elastic=False,
    )
