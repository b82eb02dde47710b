"""Abstract memory model and runtime accounting (Figure 4A).

A worker's System Memory is split into:

  - OS Reserved Memory (for the OS and other processes),
  - Workload Memory, itself split into
      * Execution Memory = User Memory (UDF execution: serialized CNNs,
        feature TensorLists, downstream models) + Core Memory (query
        processing: join build/probe state),
      * Storage Memory (cached intermediate data),
  - DL Execution Memory (CNN inference inside the DL system lives
    *outside* the PD system's workload memory — issue (1) of Sec. 4.1).

The :class:`MemoryAccountant` charges bytes against regions at run
time, tracks per-region peaks, and raises the matching Section 4.1
crash exception the instant a region overflows — this is what turns
the paper's "X" crash cells into testable behaviour.

With a metrics registry attached (``attach_metrics``), every charge
and release also lands on a ``mem_used_bytes`` gauge per region, so
metrics-enabled runs record the full occupancy *timeline* — including
the over-budget sample of the charge that crashed, which is what lets
:mod:`repro.report.run_report` attribute a crash to its Section 4.1
scenario from the waterline alone.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass

from repro.exceptions import (
    DLExecutionMemoryExceeded,
    DriverMemoryExceeded,
    ExecutionMemoryExceeded,
    UserMemoryExceeded,
)
from repro.metrics import NULL_METRICS

GB = 1024 ** 3
MB = 1024 ** 2


class Region(enum.Enum):
    """Memory regions of the abstract model."""

    USER = "user"
    CORE = "core"
    STORAGE = "storage"
    DL = "dl"
    DRIVER = "driver"


_CRASHES = {
    Region.USER: UserMemoryExceeded,
    Region.CORE: ExecutionMemoryExceeded,
    Region.DL: DLExecutionMemoryExceeded,
    Region.DRIVER: DriverMemoryExceeded,
    # STORAGE overflow is not an immediate crash: the storage manager
    # decides between eviction/spill (Spark) and a crash (pure
    # in-memory Ignite). See repro.dataflow.storage.
}


@dataclass(frozen=True)
class MemoryBudget:
    """Per-worker byte budgets for each region, plus the driver's.

    ``storage_elastic`` models Spark's moving Storage/Core boundary
    (Figure 4B): Core Memory may borrow from Storage by evicting
    cached partitions. Ignite's boundary is static (Figure 4C).
    """

    system_bytes: int
    os_reserved_bytes: int
    user_bytes: int
    core_bytes: int
    storage_bytes: int
    dl_bytes: int
    driver_bytes: int = 8 * GB
    storage_elastic: bool = True

    def workload_bytes(self):
        return self.user_bytes + self.core_bytes + self.storage_bytes

    def validate(self):
        """Check the Eq. 12 style budget identity: regions fit inside
        System Memory."""
        total = (
            self.os_reserved_bytes + self.user_bytes + self.core_bytes
            + self.storage_bytes + self.dl_bytes
        )
        return total <= self.system_bytes


@dataclass
class _RegionState:
    capacity: int
    used: int = 0
    peak: int = 0


class MemoryAccountant:
    """Charges and releases bytes against a :class:`MemoryBudget`.

    One accountant models one worker node (plus the shared driver
    region). Overflowing USER/CORE/DL/DRIVER raises the matching crash
    exception from :mod:`repro.exceptions`.
    """

    def __init__(self, budget):
        self.budget = budget
        self.metrics = NULL_METRICS
        self.owner = None
        self._gauges = None
        self._regions = {
            Region.USER: _RegionState(budget.user_bytes),
            Region.CORE: _RegionState(budget.core_bytes),
            Region.STORAGE: _RegionState(budget.storage_bytes),
            Region.DL: _RegionState(budget.dl_bytes),
            Region.DRIVER: _RegionState(budget.driver_bytes),
        }

    def attach_metrics(self, metrics, owner):
        """Emit per-region occupancy timelines on ``metrics``.

        ``owner`` labels the series (``w0``..``wN`` for workers,
        ``driver`` for the driver accountant). Region capacities —
        the budgets Algorithm 1 chose — are published once as
        ``mem_capacity_bytes`` gauges so reports can draw the budget
        line next to the occupancy waterline.
        """
        self.metrics = metrics
        self.owner = str(owner)
        self._gauges = {}
        for region, state in self._regions.items():
            metrics.gauge(
                "mem_capacity_bytes", worker=self.owner,
                region=region.value,
            ).set(state.capacity)
            gauge = metrics.gauge(
                "mem_used_bytes", worker=self.owner, region=region.value
            )
            gauge.set(state.used)
            self._gauges[region] = gauge
        return self

    def charge(self, region, nbytes, what=""):
        state = self._regions[region]
        state.used += int(nbytes)
        if state.used > state.peak:
            state.peak = state.used
        if self._gauges is not None:
            # Sampled before the overflow check so a crashing charge's
            # over-budget level is the series' last point.
            self._gauges[region].set(state.used)
        if state.used > state.capacity and region in _CRASHES:
            crash = _CRASHES[region]
            self.metrics.counter(
                "crash_total", worker=self.owner or "?",
                region=region.value, exception=crash.__name__,
            ).inc()
            raise crash(
                f"{region.value} memory exhausted: used "
                f"{state.used / GB:.2f} GB of {state.capacity / GB:.2f} GB"
                + (f" while {what}" if what else "")
            )

    def release(self, region, nbytes):
        state = self._regions[region]
        state.used = max(0, state.used - int(nbytes))
        if self._gauges is not None:
            self._gauges[region].set(state.used)

    def used(self, region):
        return self._regions[region].used

    def peak(self, region):
        return self._regions[region].peak

    def capacity(self, region):
        return self._regions[region].capacity

    def available(self, region):
        state = self._regions[region]
        return max(0, state.capacity - state.used)

    def holding(self, region):
        """Context manager that owns "charge, then release on every
        path" for ``region``: ``held.charge(nbytes, what=...)`` any
        number of times inside the block, and on exit everything the
        hold counted is released — including a charge that raised,
        which :meth:`charge` had already added to ``used``."""
        return _Hold(self, region)

    @contextmanager
    def reserve(self, region, nbytes, what=""):
        """A :meth:`holding` block with one charge made on entry."""
        with self.holding(region) as held:
            held.charge(nbytes, what=what)
            yield held

    def reset_peaks(self):
        for state in self._regions.values():
            state.peak = state.used


class _Hold:
    """The bytes one ``with accountant.holding(region)`` block has
    charged so far."""

    def __init__(self, accountant, region):
        self._accountant = accountant
        self._region = region
        self.nbytes = 0

    def charge(self, nbytes, what=""):
        nbytes = int(nbytes)
        # Counted before charging: charge() increments ``used`` before
        # it raises, so the exit must release this one either way.
        self.nbytes += nbytes
        self._accountant.charge(self._region, nbytes, what=what)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self._accountant.release(self._region, self.nbytes)
        return False
