"""Deterministic fault injection and runtime recovery primitives.

This package is the reproduction's answer to "Vista never crashes" at
production scale: instead of holding only *by construction* (the
optimizer's constraints), the claim is exercised at runtime by
injecting task crashes, transient OOMs, worker loss, and stragglers
into the dataflow engine, and recovering via lineage-based task retry
(``repro.dataflow.executor``) plus the degrade-and-retry supervisor
(``repro.core.resilient``). Everything is seeded and runs on a
simulated clock, so any fault sequence is replayable and the recovered
features can be asserted bit-identical to a fault-free run.
"""

from repro.faults.clock import SimulatedClock
from repro.faults.injector import FaultInjector, InjectedTaskCrash
from repro.faults.plan import (
    FaultPlan,
    FaultRule,
    STRAGGLER,
    TASK_CRASH,
    TASK_OOM,
    WORKER_KILL,
    WORKER_LOSS,
)
from repro.faults.retry import RecoveryLog, RetryPolicy


def equip_context(context, injector=None, policy=None, recovery_log=None):
    """Assign fault-injection and recovery state to a cluster context.

    ``ClusterContext`` declares the three fields (None by default, so
    plain contexts pay nothing); the task scheduler reads them once per
    stage. The injector (if any) shares the recovery log so its
    straggler events land in the same ledger. Call it before the
    recorders are attached: they pick up the injector's clock and the
    log's sink as they arrive. Returns the context for chaining.
    """
    recovery_log = recovery_log if recovery_log is not None else RecoveryLog()
    if injector is not None:
        if injector.recovery_log is None:
            injector.recovery_log = recovery_log
        context.fault_injector = injector
    context.retry_policy = policy if policy is not None else RetryPolicy()
    context.recovery_log = recovery_log
    return context


__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "InjectedTaskCrash",
    "RecoveryLog",
    "RetryPolicy",
    "STRAGGLER",
    "SimulatedClock",
    "TASK_CRASH",
    "TASK_OOM",
    "WORKER_KILL",
    "WORKER_LOSS",
    "equip_context",
]
