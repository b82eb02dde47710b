"""The declarative Vista API (Section 3.3, Figure 13).

Users state *what* to run — a roster CNN, how many feature layers to
explore, the downstream routine, the data, and the cluster resources —
and Vista decides *how*: it invokes the optimizer to pick the system
configuration, configures the (simulated) PD backend accordingly, and
executes its Staged plan, returning one trained downstream model per
explored layer.
"""

from __future__ import annotations

from repro.cnn.zoo import build_model, get_model_stats
from repro.core.config import (
    DEFAULT_CORE_MEMORY,
    DEFAULT_OS_RESERVED,
    DatasetStats,
    DownstreamSpec,
    Resources,
    Workload,
)
from repro.core.executor import FeatureTransferExecutor
from repro.core.optimizer import optimize
from repro.core.plans import STAGED
from repro.dataflow.context import ClusterContext
from repro.memory.ignite import ignite_memory_budget
from repro.memory.model import GB
from repro.memory.spark import spark_budget_from_regions


class Vista:
    """Declarative feature transfer from deep CNNs.

    Example
    -------
    >>> from repro.data import foods_dataset
    >>> from repro.core.config import Resources
    >>> from repro.memory.model import GB
    >>> vista = Vista(
    ...     model_name="alexnet", num_layers=4,
    ...     dataset=foods_dataset(num_records=64),
    ...     resources=Resources(num_nodes=2,
    ...                         system_memory_bytes=32 * GB,
    ...                         cores_per_node=8),
    ... )
    >>> result = vista.run()
    >>> sorted(result.layer_results)
    ['conv5', 'fc6', 'fc7', 'fc8']
    """

    def __init__(self, model_name, num_layers, dataset, resources,
                 downstream_fn=None, downstream_spec=None, backend="spark",
                 model_profile="mini", plan=STAGED, model_seed=0,
                 exec_backend=None):
        self.model_name = model_name
        self.model_stats = get_model_stats(model_name)
        self.layers = self.model_stats.top_feature_layers(num_layers)
        self.dataset = dataset
        self.resources = resources
        self.downstream_fn = downstream_fn
        self.downstream_spec = downstream_spec or DownstreamSpec()
        if backend not in ("spark", "ignite"):
            raise ValueError(
                f"backend must be 'spark' or 'ignite', got {backend!r}"
            )
        self.backend = backend
        #: Physical wave executor ("threads", the default, "serial" or
        #: "process", or a Backend instance); ``backend`` above is the
        #: memory-budget model.
        self.exec_backend = exec_backend
        self.model_profile = model_profile
        self.plan = plan
        self.dataset_stats = DatasetStats.from_dataset(self.dataset)
        #: The planner's input, built once: roster statistics, the
        #: explored layers, and the dataset's measured statistics.
        self.workload = Workload(
            self.model_stats, self.layers, self.dataset_stats
        )
        self.model_seed = model_seed
        self._config = None

    # ------------------------------------------------------------------
    def optimize(self, tracer=None, metrics=None):
        """Run Algorithm 1; returns the chosen :class:`VistaConfig`."""
        self._config = optimize(
            self.workload, self.resources, downstream=self.downstream_spec,
            backend=self.backend, tracer=tracer, metrics=metrics,
        )
        return self._config

    def sizing(self):
        """Eq. 16 size estimates for this workload's intermediates."""
        return self.workload.sizes

    def build_context(self, config=None):
        """Configure the simulated PD backend per the optimizer."""
        config = config or self._config or self.optimize()
        if self.backend == "spark":
            budget = spark_budget_from_regions(
                self.resources.system_memory_bytes,
                user_bytes=config.mem_user_bytes,
                core_bytes=DEFAULT_CORE_MEMORY,
                storage_bytes=config.mem_storage_bytes,
                os_reserved_bytes=DEFAULT_OS_RESERVED,
            )
        else:
            heap = config.mem_user_bytes + DEFAULT_CORE_MEMORY
            budget = ignite_memory_budget(
                self.resources.system_memory_bytes,
                heap_bytes=heap,
                storage_bytes=config.mem_storage_bytes,
                os_reserved_bytes=DEFAULT_OS_RESERVED,
            )
        return ClusterContext(
            budget,
            num_nodes=self.resources.num_nodes,
            cores_per_node=self.resources.cores_per_node,
            cpu=config.cpu,
            exec_backend=self.exec_backend,
        )

    def run(self, plan=None, premat_layer=None, context=None,
            feature_store=None, tracer=None, metrics=None,
            checkpoint_store=None, ledger=None):
        """Optimize, configure, and execute the workload end to end.

        ``feature_store`` (a :class:`~repro.features.store.FeatureStore`)
        lets ``premat_layer`` reuse base features materialized by an
        earlier session. ``tracer`` (a :class:`~repro.trace.Tracer`)
        records the optimizer decision and the full execution span tree
        on ``WorkloadResult.trace``; ``metrics`` (a
        :class:`~repro.metrics.MetricsRegistry`) records per-region
        occupancy timelines and storage/task counters on
        ``WorkloadResult.metrics_registry``. ``checkpoint_store`` (a
        :class:`~repro.recovery.CheckpointStore`) makes stage outputs
        durable and restores checksum-valid partitions from a prior
        interrupted run of the same workload. Returns a
        :class:`~repro.core.executor.WorkloadResult` with one trained
        downstream model per explored feature layer.
        """
        config = self._config or self.optimize(
            tracer=tracer, metrics=metrics
        )
        if ledger is not None and ledger.enabled:
            ledger.emit(
                "optimizer_decision", plan=(plan or self.plan).label,
                cpu=config.cpu, join=config.join,
                persistence=config.persistence,
                num_partitions=config.num_partitions,
            )
        context = context or self.build_context(config)
        cnn = build_model(
            self.model_name, profile=self.model_profile, seed=self.model_seed
        )
        executor = FeatureTransferExecutor(
            context, cnn, self.dataset, self.layers, config,
            downstream_fn=self.downstream_fn, feature_store=feature_store,
            tracer=tracer, metrics=metrics,
            checkpoint_store=checkpoint_store, ledger=ledger,
        )
        return executor.run(plan or self.plan, premat_layer=premat_layer)

    def explain(self, what_if=None):
        """EXPLAIN this workload's plan choice: the full Algorithm 1
        candidate ledger (every ``cpu`` with its Eq. 9-15 terms and
        rejection reasons), with the winner marked — the same candidate
        :meth:`run` executes.

        ``what_if`` (a dict of :data:`repro.explain.whatif.PIN_KEYS`
        pins) attaches a priced what-if report for a pinned
        configuration, including the engine-exact mini-scale peak
        predictions for this instance's executable CNN and dataset.
        Returns an :class:`~repro.explain.ExplainResult`; render it
        with :func:`repro.report.render_explain`.
        """
        from repro.explain import explain as explain_fn

        executable = None
        if what_if is not None:
            cnn = build_model(
                self.model_name, profile=self.model_profile,
                seed=self.model_seed,
            )
            executable = Workload(cnn.stats, self.layers, self.dataset_stats)
        return explain_fn(
            self.workload, self.resources, downstream=self.downstream_spec,
            backend=self.backend, what_if_pins=what_if,
            executable=executable,
        )

    def run_resilient(self, plan=None, premat_layer=None, fault_plan=None,
                      seed=0, retry_policy=None, max_attempts=16,
                      feature_store=None, tracer=None, metrics=None,
                      checkpoint_store=None, ledger=None):
        """Run under the :class:`~repro.core.resilient.ResilientRunner`
        supervisor: transient task failures are retried from lineage,
        lost workers are blacklisted, and Section 4.1 crashes are
        recovered via the degradation ladder. ``fault_plan`` (a
        :class:`~repro.faults.FaultPlan`) injects deterministic faults
        for testing; the result's ``metrics["recovery_log"]`` records
        every recovery step taken. ``tracer`` records each attempt as
        an ``attempt:<n>`` span with ``degrade`` events between rungs;
        ``metrics`` additionally counts ``degrades_total`` per ladder
        rung and accumulates occupancy series across attempts. With a
        ``checkpoint_store`` the supervisor is resume-first: a crash
        re-runs the same plan restoring checksum-valid partitions and
        recomputing the rest, degrading only when resume stops making
        progress.
        """
        from repro.core.resilient import ResilientRunner

        runner = ResilientRunner(
            self, fault_plan=fault_plan, seed=seed,
            retry_policy=retry_policy, max_attempts=max_attempts,
            tracer=tracer, metrics=metrics,
            checkpoint_store=checkpoint_store, ledger=ledger,
        )
        return runner.run(
            plan=plan, premat_layer=premat_layer, feature_store=feature_store
        )


def default_resources(num_nodes=8, system_gb=32, cores=8, gpu_gb=0):
    """The paper's CloudLab worker spec: 32 GB RAM, 8 cores per node."""
    return Resources(
        num_nodes=num_nodes,
        system_memory_bytes=int(system_gb * GB),
        cores_per_node=cores,
        gpu_memory_bytes=int(gpu_gb * GB),
    )
