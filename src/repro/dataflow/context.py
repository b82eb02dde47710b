"""Cluster context: simulated workers, a driver, and their memory.

A :class:`ClusterContext` models the paper's experimental setup — N
worker nodes with a fixed core count and System Memory each, plus a
driver — inside one process. Partitions of a table are assigned to
workers by ``partition_index % num_nodes``, matching the round-robin
block placement both Spark and Ignite default to.
"""

from __future__ import annotations

from repro.memory.model import GB, MemoryAccountant
from repro.dataflow.storage import StorageManager
from repro.metrics import NULL_METRICS, series_from_events
from repro.observe.ledger import NULL_LEDGER
from repro.trace import NULL_TRACER


class Worker:
    """One simulated worker node."""

    def __init__(self, node_id, budget):
        self.node_id = node_id
        self.budget = budget
        self.accountant = MemoryAccountant(budget)
        self.storage = StorageManager(
            budget.storage_bytes, spill_enabled=budget.storage_elastic
        )
        self.tasks_run = 0
        self.task_failures = 0

    def __repr__(self):
        return f"<Worker {self.node_id}>"


class ClusterContext:
    """A simulated cluster of workers sharing one driver.

    Parameters
    ----------
    budget:
        The per-worker :class:`~repro.memory.model.MemoryBudget`
        (every node is homogeneous, as in the paper's testbed).
    num_nodes:
        Worker count.
    cores_per_node:
        Physical cores per node (``cpu_sys`` in Table 1A).
    cpu:
        Degree of parallelism actually used per worker (``cpu`` in
        Table 1B); defaults to ``cores_per_node``.
    exec_backend:
        The backend a stage runs on unless its caller places it
        elsewhere: ``"threads"`` (default), ``"serial"``,
        ``"process"``, or a :class:`~repro.dataflow.backend.Backend`
        instance. Scheduling semantics are identical on each; the
        thread backend runs each wave on ``cpu`` lanes of this process,
        the process backend across forked OS processes.
    """

    def __init__(self, budget, num_nodes=1, cores_per_node=8, cpu=None,
                 exec_backend=None):
        from repro.dataflow.backend import resolve_backend

        self.num_nodes = int(num_nodes)
        self.cores_per_node = int(cores_per_node)
        self.cpu = int(cpu) if cpu is not None else self.cores_per_node
        self.exec_backend = resolve_backend(exec_backend)
        self.workers = [Worker(i, budget) for i in range(self.num_nodes)]
        self.driver = MemoryAccountant(budget)
        self._next_table_id = 0
        #: Node ids of lost/blacklisted workers; partitions that would
        #: land on an excluded worker fail over deterministically to
        #: the next live node in ring order.
        self.excluded_workers = set()
        #: Structured tracer shared by every layer running on this
        #: context; NULL_TRACER (no-op) unless attach_tracer is called.
        self.tracer = NULL_TRACER
        #: Time-series metrics registry shared by every layer running
        #: on this context; NULL_METRICS unless attach_metrics is
        #: called.
        self.metrics = NULL_METRICS
        #: Streaming run ledger shared by every layer running on this
        #: context; NULL_LEDGER unless attach_ledger is called.
        self.ledger = NULL_LEDGER
        #: Fault injection and recovery state the task scheduler reads;
        #: None (no injection, default retry policy, nothing logged)
        #: unless :func:`repro.faults.equip_context` assigns them.
        self.fault_injector = None
        self.retry_policy = None
        self.recovery_log = None
        #: Per-run engine state, reset by :meth:`reset_metrics`.
        self.shuffle_bytes_total = 0

    def attach_tracer(self, tracer):
        """Share a :class:`~repro.trace.Tracer` with the dataflow
        engine, the storage managers, and (via the shared simulated
        clock) the fault/recovery layer."""
        self.tracer = tracer
        for worker in self.workers:
            worker.storage.tracer = tracer
        self._share_clock(tracer)
        self._stream_into_ledger()
        return tracer

    def attach_metrics(self, metrics):
        """Share a :class:`~repro.metrics.MetricsRegistry` with every
        worker's memory accountant and storage manager, the driver's
        accountant, and (via the shared simulated clock) the
        fault/recovery layer — after which the context records
        per-region occupancy timelines and storage hit/miss/spill
        series."""
        self.metrics = metrics
        for worker in self.workers:
            worker.accountant.attach_metrics(
                metrics, owner=f"w{worker.node_id}"
            )
            worker.storage.attach_metrics(
                metrics, owner=f"w{worker.node_id}"
            )
        self.driver.attach_metrics(metrics, owner="driver")
        self._share_clock(metrics)
        self._stream_into_ledger(replay_metrics=True)
        return metrics

    def attach_ledger(self, ledger):
        """Share a :class:`~repro.observe.ledger.RunLedger` with every
        layer running on this context: the tracer streams span
        open/close events into it, the metrics registry streams
        throttled samples, the recovery log its actions, and the wave
        scheduler/backends emit stage/wave/task lifecycle — in
        whichever order the recorders are attached."""
        self.ledger = ledger
        self._share_clock(ledger)
        self._stream_into_ledger(replay_metrics=True)
        return ledger

    def _share_clock(self, recorder):
        """A live recorder without a clock of its own reads simulated
        time off the fault injector's."""
        injector = self.fault_injector
        if (injector is not None and recorder.enabled
                and recorder.clock is None):
            recorder.clock = injector.clock

    def _stream_into_ledger(self, replay_metrics=False):
        """Point every live recorder's sink at the ledger, once there
        is one. ``replay_metrics`` — a registry or a ledger just
        arrived — puts each series sampled before the sink existed (the
        region budgets ``attach_metrics`` publishes, the optimizer's
        predicted peaks) into the ledger once, at its current value."""
        ledger = self.ledger
        if not ledger.enabled:
            return
        if self.tracer.enabled:
            self.tracer.sink = ledger
        if self.metrics.enabled:
            self.metrics.sink = ledger
            if replay_metrics:
                for series in series_from_events(
                        self.metrics.events).values():
                    sim_time_s, _, value = series["samples"][-1]
                    ledger.emit("metric", metric=series["name"],
                                labels=series["labels"], value=value,
                                sim_time_s=sim_time_s)
        if self.recovery_log is not None:
            self.recovery_log.sink = ledger

    def worker_for(self, partition_index):
        if not self.excluded_workers:
            return self.workers[partition_index % self.num_nodes]
        for offset in range(self.num_nodes):
            worker = self.workers[(partition_index + offset) % self.num_nodes]
            if worker.node_id not in self.excluded_workers:
                return worker
        from repro.exceptions import ClusterExhausted

        raise ClusterExhausted(
            f"all {self.num_nodes} workers are lost or blacklisted; "
            "provision replacement machines"
        )

    def blacklist_worker(self, node_id):
        """Exclude a worker from task placement (worker loss or
        repeated task failures)."""
        node_id = int(node_id)
        if node_id not in self.excluded_workers:
            self.metrics.counter(
                "blacklists_total", worker=f"w{node_id}"
            ).inc()
        self.excluded_workers.add(node_id)

    def live_workers(self):
        return [
            w for w in self.workers
            if w.node_id not in self.excluded_workers
        ]

    def total_cores(self):
        return self.cpu * self.num_nodes

    def next_table_name(self, prefix="table"):
        self._next_table_id += 1
        return f"{prefix}_{self._next_table_id}"

    def reset_metrics(self):
        # Metric counters only: a lost worker (excluded_workers) stays
        # lost across runs on the same context.
        for worker in self.workers:
            worker.storage.reset_counters()
            worker.tasks_run = 0
            worker.task_failures = 0
            worker.accountant.reset_peaks()
        self.shuffle_bytes_total = 0

    def __repr__(self):
        return (
            f"<ClusterContext {self.num_nodes} nodes x "
            f"{self.cores_per_node} cores (cpu={self.cpu})>"
        )


def local_context(system_gb=4, num_nodes=2, cores_per_node=4,
                  cpu=None, backend="spark", storage_gb=None,
                  exec_backend=None):
    """Convenience constructor for small test/example clusters, each
    worker a 2 GB heap.

    ``backend`` picks the memory-budget *model* (spark/ignite);
    ``exec_backend`` picks the physical wave executor
    (threads/serial/process)
    — orthogonal knobs with unfortunately similar names, kept for
    compatibility with the paper's terminology.
    """
    from repro.memory.spark import spark_memory_budget
    from repro.memory.ignite import ignite_memory_budget

    system = int(system_gb * GB)
    heap = 2 * GB
    if backend == "spark":
        budget = spark_memory_budget(
            system, heap, os_reserved_bytes=int(0.25 * GB)
        )
    elif backend == "ignite":
        storage = int((storage_gb if storage_gb is not None else 1) * GB)
        budget = ignite_memory_budget(
            system, heap, storage, os_reserved_bytes=int(0.25 * GB)
        )
    else:
        raise ValueError(f"backend must be 'spark' or 'ignite', got {backend!r}")
    return ClusterContext(
        budget, num_nodes=num_nodes, cores_per_node=cores_per_node, cpu=cpu,
        exec_backend=exec_backend,
    )
