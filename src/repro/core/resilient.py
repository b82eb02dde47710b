"""The degrade-and-retry supervisor.

Task-level retry (``repro.dataflow.executor``) absorbs transient
failures, but a *structural* Section 4.1 crash — a memory region that
is simply too small for the chosen configuration — recurs on every
retry. :class:`ResilientRunner` recovers from those by re-planning:
on a retryable :class:`~repro.exceptions.WorkloadCrash` it applies the
paper-ordered degradation ladder, one rung per crash, and re-runs the
workload on a fresh cluster context until it succeeds or the ladder is
exhausted:

1. broadcast -> shuffle join (frees Driver and per-worker User copies
   of Tstr — Figure 10's broadcast crashes);
2. deserialized -> serialized persistence (the optimizer's own
   ``s_double`` downgrade — smaller cached intermediates);
3. Eager -> Staged -> Lazy materialization (each step caches strictly
   less at once — Figure 6's Eager crash column);
4. cpu - 1 by taking Algorithm 1's first feasible candidate below
   the current ``cpu`` (fewer concurrent replicas and task buffers;
   Algorithm 1 re-derives np and the memory split), raising
   :class:`~repro.exceptions.NoFeasiblePlan` once ``cpu`` hits 1.

Every step is appended to the shared
:class:`~repro.faults.retry.RecoveryLog`, which the returned
``WorkloadResult.metrics["recovery_log"]`` exposes alongside the task
retries and blacklists recorded by the dataflow engine. The cross-plan
invariant survives recovery by construction: every rung re-runs the
same logical workload, so features after any fault sequence are
bit-identical to a fault-free run.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.executor import FeatureTransferExecutor, record_decision
from repro.core.plans import LogicalPlan, Materialization
from repro.dataflow.joins import BROADCAST, SHUFFLE
from repro.dataflow.partition import DESERIALIZED, SERIALIZED
from repro.exceptions import NoFeasiblePlan, WorkloadCrash
from repro.faults import FaultInjector, equip_context
from repro.faults.retry import RecoveryLog, RetryPolicy
from repro.metrics import NULL_METRICS
from repro.observe.ledger import NULL_LEDGER
from repro.trace import NULL_TRACER


def degrade_once(config, plan, optimize_below_fn):
    """Apply the first applicable rung of the degradation ladder.

    Returns ``(config, plan, step)`` where ``step`` is a label for the
    recovery log. ``optimize_below_fn(cpu)`` must return a fresh
    :class:`~repro.core.config.VistaConfig` with ``cpu`` strictly
    below the given value (rung 4). Raises
    :class:`~repro.exceptions.NoFeasiblePlan` when nothing is left to
    degrade.
    """
    if config.join == BROADCAST:
        return (
            replace(config, join=SHUFFLE), plan,
            "join:broadcast->shuffle",
        )
    if config.persistence == DESERIALIZED:
        return (
            replace(config, persistence=SERIALIZED), plan,
            "persistence:deserialized->serialized",
        )
    if plan.materialization is Materialization.EAGER:
        return (
            config,
            LogicalPlan(Materialization.STAGED, plan.join_placement),
            "materialization:eager->staged",
        )
    if plan.materialization is Materialization.STAGED:
        return (
            config,
            LogicalPlan(Materialization.LAZY, plan.join_placement),
            "materialization:staged->lazy",
        )
    if config.cpu <= 1:
        raise NoFeasiblePlan(
            "degradation ladder exhausted: shuffle join, serialized "
            "persistence, Lazy materialization at cpu=1 still crashes; "
            "provision machines with more memory"
        )
    new_config = optimize_below_fn(config.cpu)
    return new_config, plan, f"cpu:{config.cpu}->{new_config.cpu}"


class ResilientRunner:
    """Supervises :class:`FeatureTransferExecutor` runs for a
    :class:`~repro.core.api.Vista` workload.

    Parameters
    ----------
    vista:
        The declarative workload (model, layers, data, resources); the
        supervisor reuses its optimizer and context builder.
    fault_plan / seed:
        Optional declarative :class:`~repro.faults.plan.FaultPlan` to
        inject (used by the fault suite and benchmarks); ``seed``
        makes the injection deterministic.
    injector:
        A pre-built :class:`~repro.faults.injector.FaultInjector`
        (overrides ``fault_plan``/``seed``).
    retry_policy:
        Task-level :class:`~repro.faults.retry.RetryPolicy` for the
        dataflow engine.
    max_attempts:
        Hard cap on workload attempts (the ladder is finite anyway).
    """

    def __init__(self, vista, fault_plan=None, seed=0, injector=None,
                 retry_policy=None, max_attempts=16, recovery_log=None,
                 tracer=None, metrics=None, checkpoint_store=None,
                 ledger=None):
        if injector is None and fault_plan is not None:
            injector = FaultInjector(fault_plan, seed=seed)
        self.vista = vista
        self.injector = injector
        self.retry_policy = retry_policy or RetryPolicy()
        self.max_attempts = int(max_attempts)
        self.recovery_log = (
            recovery_log if recovery_log is not None else RecoveryLog()
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.ledger = ledger if ledger is not None else NULL_LEDGER
        if self.ledger.enabled:
            # Recovery actions are barrier events in the run ledger:
            # every retry/resume/degrade step streams out durably.
            self.recovery_log.sink = self.ledger
        self.checkpoint_store = checkpoint_store
        # Valid-partition count at the last resume decision: resume is
        # chosen only while the store keeps *growing* between crashes,
        # which guarantees the resume loop terminates.
        self._resume_watermark = None

    # ------------------------------------------------------------------
    def run(self, plan=None, premat_layer=None, feature_store=None):
        """Run the workload, degrading and retrying until it succeeds.

        Returns the successful :class:`~repro.core.executor.
        WorkloadResult` with ``metrics["recovery_log"]`` holding every
        retry, blacklist, and degradation step, or raises the first
        non-retryable error (:class:`NoFeasiblePlan`, a non-retryable
        :class:`WorkloadCrash`, or the last crash once
        ``max_attempts`` is exhausted).
        """
        vista = self.vista
        recovery = self.recovery_log
        tracer = self.tracer
        metrics = self.metrics
        config = vista._config or vista.optimize(
            tracer=tracer if tracer.enabled else None,
        )
        plan = plan or vista.plan
        attempt = 0
        while True:
            attempt += 1
            record_decision(self.ledger, plan, config)
            # Equipped before the executor attaches the recorders, so
            # they share the injector's clock and the log's sink.
            context = equip_context(
                vista.build_context(config), injector=self.injector,
                policy=self.retry_policy, recovery_log=recovery,
            )
            executor = FeatureTransferExecutor(
                context, vista.cnn, vista.dataset, vista.layers, config,
                downstream_fn=vista.downstream_fn,
                feature_store=feature_store,
                tracer=tracer if tracer.enabled else None,
                metrics=metrics if metrics.enabled else None,
                checkpoint_store=self.checkpoint_store,
                ledger=self.ledger if self.ledger.enabled else None,
            )
            try:
                try:
                    with tracer.span(f"attempt:{attempt}", plan=plan.label,
                                     cpu=config.cpu, join=config.join,
                                     persistence=config.persistence):
                        result = executor.run(plan, premat_layer=premat_layer)
                finally:
                    # Every attempt abandons its context on the way
                    # out: kill and reap any worker process the
                    # backend still holds (a no-op for the serial
                    # backend, and for the process backend unless a
                    # stage bracket was somehow skipped — stages reap
                    # their own workers on every exit path).
                    context.exec_backend.close()
            except WorkloadCrash as crash:
                if attempt >= self.max_attempts:
                    raise
                if self._should_resume():
                    # Resume-first: the store grew since the last
                    # decision, so re-running the *same* plan/config on
                    # a fresh context restores the checkpointed
                    # partitions and recomputes only the rest. Fresh
                    # workers also model replacement machines, which is
                    # why even ClusterExhausted is resumable here.
                    restorable = self._resume_watermark
                    recovery.record(
                        "resume", attempt=attempt,
                        crash=type(crash).__name__,
                        restorable_partitions=restorable,
                        plan=plan.label, cpu=config.cpu,
                        sim_time_s=self._sim_time(),
                    )
                    tracer.event(
                        "resume", attempt=attempt,
                        crash=type(crash).__name__,
                        restorable_partitions=restorable,
                    )
                    metrics.counter(
                        "resumes_total", crash=type(crash).__name__,
                    ).inc()
                    continue
                if not crash.retryable:
                    raise
                config, plan, step = degrade_once(
                    config, plan, self._optimize_below
                )
                # A degraded plan/config lands in a fresh checkpoint
                # namespace (new fingerprint): reset the progress
                # watermark so resume gets a clean first chance there.
                self._resume_watermark = None
                recovery.record(
                    "degrade", attempt=attempt,
                    crash=type(crash).__name__, step=step,
                    plan=plan.label, cpu=config.cpu, join=config.join,
                    persistence=config.persistence,
                    sim_time_s=self._sim_time(),
                )
                tracer.event(
                    "degrade", attempt=attempt,
                    crash=type(crash).__name__, step=step,
                    plan=plan.label, cpu=config.cpu, join=config.join,
                    persistence=config.persistence,
                )
                metrics.counter(
                    "degrades_total",
                    step=step.split(":", 1)[0],
                    crash=type(crash).__name__,
                ).inc()
                continue
            result.metrics["recovery_log"] = [dict(e) for e in recovery]
            result.metrics["recovery_attempts"] = attempt
            result.metrics["recovered_plan"] = plan.label
            return result

    # ------------------------------------------------------------------
    def _should_resume(self):
        """Resume-first policy: retry the same plan/config when the
        checkpoint store made *progress* since the last resume
        decision. No store, an unbound store (crash before the first
        stage), or a stalled store (a crash the checkpoints cannot
        outrun — structural memory overflow at stage one) all fall
        through to the degradation ladder."""
        store = self.checkpoint_store
        if store is None or store.fingerprint is None:
            return False
        valid = store.valid_partition_count()
        watermark = (
            self._resume_watermark
            if self._resume_watermark is not None else 0
        )
        if valid <= watermark:
            return False
        self._resume_watermark = valid
        return True

    def _optimize_below(self, cpu):
        """Rung 4: Algorithm 1's first feasible candidate strictly
        below ``cpu`` — its search with ``cpu_max`` clamped to ``cpu``."""
        from repro.core.optimizer import (
            config_from_candidate,
            enumerate_candidates,
        )

        vista = self.vista
        for candidate in enumerate_candidates(
            vista.workload, vista.resources,
            downstream=vista.downstream_spec, backend=vista.backend,
        ):
            if candidate.feasible and candidate.cpu < cpu:
                return config_from_candidate(candidate)
        raise NoFeasiblePlan(
            f"no cpu in [1, {cpu - 1}] satisfies the memory constraints "
            f"for {vista.model_name} on "
            f"{vista.resources.system_memory_bytes} B nodes; "
            "provision machines with more memory"
        )

    def _sim_time(self):
        return self.injector.clock.now if self.injector is not None else 0.0

    def __repr__(self):
        return (
            f"<ResilientRunner {self.vista.model_name} "
            f"max_attempts={self.max_attempts}>"
        )
