"""Workload crash taxonomy for the feature transfer workload.

Section 4.1 of the paper enumerates four memory-related crash scenarios
that arise when CNN inference runs inside a parallel dataflow system.
Each scenario gets its own exception type so tests and benchmarks can
assert *which* failure mode was triggered, mirroring the "X" (crash)
cells in Figures 6, 7, 10, and 11 of the paper.
"""


class VistaError(Exception):
    """Base class for all errors raised by this library.

    ``retryable`` says whether the :class:`~repro.core.resilient.
    ResilientRunner` supervisor may re-plan (degradation ladder) and
    re-run the workload after catching the error; ``transient`` says
    whether the dataflow engine may simply retry the *task* in place
    (lineage recomputation with backoff) without re-planning.
    """

    retryable = False
    transient = False


class WorkloadCrash(VistaError):
    """A workload crash: the execution died mid-flight.

    This models an application being killed by the OS, a JVM
    OutOfMemoryError, or a driver failure, as described in Section 4.1.
    Memory crashes are retryable: the supervisor's degradation ladder
    (shuffle join, serialized persistence, lazier materialization,
    lower ``cpu``) shrinks the footprint that caused them.
    """

    retryable = True


class DLExecutionMemoryExceeded(WorkloadCrash):
    """Crash scenario (1): DL Execution Memory blowup.

    Serialized CNN formats underestimate in-memory footprints; each
    execution thread replicates the model, so ``cpu * |f|_mem`` can
    exceed the memory left outside the PD system's heap, and the OS
    kills the application.
    """


class UserMemoryExceeded(WorkloadCrash):
    """Crash scenario (2): insufficient User Memory.

    UDF threads share User Memory for the serialized CNN, feature-layer
    TensorLists, and the downstream model; exceeding it raises an
    out-of-memory error inside the PD system.
    """


class ExecutionMemoryExceeded(WorkloadCrash):
    """Crash scenario (3): a data partition too large for Core/User
    Execution Memory during join processing or MapPartition UDFs."""


class DriverMemoryExceeded(WorkloadCrash):
    """Crash scenario (4): the driver ran out of memory while
    broadcasting the CNN or collecting partial results."""


class StorageMemoryExceeded(WorkloadCrash):
    """Purely in-memory storage (Ignite-style, no disk spills) ran out
    of room for intermediate tables."""


class TransientTaskOOM(UserMemoryExceeded):
    """A *transient* per-task out-of-memory failure: one task's
    footprint spiked (mis-predicted record sizes, allocator
    fragmentation) but the condition is not structural, so retrying
    the task in place — possibly on another worker — can succeed."""

    transient = True


class WorkerLost(WorkloadCrash):
    """A worker node died mid-wave (process kill, machine loss).

    The in-flight wave's results are lost with it; the cluster
    survives by blacklisting the worker and failing its partitions
    over to live workers, so the dataflow engine treats this as a
    transient, task-level failure rather than a workload crash.
    """

    transient = True

    def __init__(self, message="", worker_id=None):
        super().__init__(message or f"worker {worker_id} lost")
        self.worker_id = worker_id


class ClusterExhausted(WorkloadCrash):
    """Every worker in the cluster has been lost or blacklisted; no
    re-planning can recover without new machines."""

    retryable = False


class TaskFailure(VistaError):
    """A partition task failed with structured scheduling context.

    Raised by :func:`repro.dataflow.executor.run_partition_tasks` when
    a task fails and cannot (or may no longer) be retried, carrying the
    partition index, the worker it ran on, and the attempt number so
    the retry layer and the supervisor see *where* the failure
    happened instead of a bare exception.
    """

    def __init__(self, partition_index, worker_id, attempt, cause=None):
        self.partition_index = partition_index
        self.worker_id = worker_id
        self.attempt = attempt
        self.cause = cause
        detail = f": {cause}" if cause is not None else ""
        super().__init__(
            f"task for partition {partition_index} failed on worker "
            f"{worker_id} (attempt {attempt}){detail}"
        )

    @property
    def retryable(self):  # mirrors the underlying cause
        return getattr(self.cause, "retryable", False)

    @property
    def transient(self):
        return getattr(self.cause, "transient", False)


class CheckpointIntegrityError(VistaError):
    """A durable checkpoint failed verification: a partition payload's
    length, SHA-256 digest, decode or row count does not match its
    wave footer's entry, the footer itself fails its digest (a torn
    wave file), or an indexed wave file is missing. Always raised
    ``from`` the underlying cause (if any) so
    the original traceback survives into the recovery log; the
    checkpoint store treats the entry as unusable and recovery falls
    back to lineage recompute — corrupt state is never silently
    ingested."""

    def __init__(self, message, stage=None, partition=None):
        super().__init__(message)
        self.stage = stage
        self.partition = partition


class NoFeasiblePlan(VistaError):
    """Raised by the optimizer (Algorithm 1, line 18) when no value of
    ``cpu`` satisfies all memory constraints; the user must provision
    machines with more memory. Not retryable: the degradation ladder
    is exhausted by definition."""


class ShapeError(VistaError):
    """A tensor is not shape-compatible with a TensorOp (Def. 3.3)."""


class InvalidLayerError(VistaError):
    """A requested layer index is outside the CNN's layer range or not
    an exposed feature layer of the roster model."""
