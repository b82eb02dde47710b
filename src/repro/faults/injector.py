"""The seeded fault injector.

The dataflow engine calls two hooks — :meth:`FaultInjector.
on_wave_start` before each task wave and :meth:`FaultInjector.
on_task_start` before each task attempt — and the injector consults
its :class:`~repro.faults.plan.FaultPlan` to decide whether to raise
an injected failure, lose the worker, or stretch the simulated clock.
All randomness (``probability`` gates) comes from one seeded RNG, so a
given (plan, seed) pair injects the exact same fault sequence on every
run: determinism is what lets the suite assert that recovered features
are bit-identical to a fault-free run.
"""

from __future__ import annotations

import os
import random
from collections import Counter, defaultdict

from repro.exceptions import TransientTaskOOM, VistaError, WorkerLost
from repro.faults.clock import SimulatedClock
from repro.faults.plan import (
    CHECKPOINT_CORRUPT,
    CHECKPOINT_KINDS,
    CHECKPOINT_MISSING,
    CHECKPOINT_TORN,
    FaultPlan,
    STRAGGLER,
    TASK_CRASH,
    TASK_OOM,
    WORKER_KILL,
    WORKER_LOSS,
)


class InjectedTaskCrash(VistaError):
    """A task crash injected by a :class:`FaultInjector`. Transient:
    the task scheduler retries it from lineage."""

    transient = True


class FaultInjector:
    """Deterministically injects the faults a :class:`FaultPlan`
    declares.

    Attach one to a cluster context (``context.fault_injector``) —
    :func:`repro.faults.equip_context` wires it together with a retry
    policy and a recovery log. ``injected`` counts firings per fault
    kind, and ``clock`` is the simulated clock shared with the retry
    layer's backoff.
    """

    def __init__(self, plan=None, seed=0, clock=None, recovery_log=None):
        self.plan = plan if plan is not None else FaultPlan()
        self.seed = int(seed)
        self.rng = random.Random(self.seed)
        self.clock = clock if clock is not None else SimulatedClock()
        self.recovery_log = recovery_log
        self.wave_counter = 0
        self.injected = Counter()
        self._fired = defaultdict(int)

    # ------------------------------------------------------------------
    # hooks called by the dataflow engine
    # ------------------------------------------------------------------
    def on_wave_start(self, worker_id, what=""):
        """Called before a wave of tasks starts on ``worker_id``;
        raises :class:`WorkerLost` if a worker-loss rule fires."""
        self.wave_counter += 1
        for rule in self.plan:
            if not rule.matches_wave(what, worker_id, self.wave_counter):
                continue
            if not self._fires(rule):
                continue
            self.injected[WORKER_LOSS] += 1
            raise WorkerLost(
                f"injected loss of worker {worker_id} at wave "
                f"{self.wave_counter}",
                worker_id=worker_id,
            )

    def on_task_start(self, what, partition_index, worker_id, attempt):
        """Called before each task attempt; may raise an injected
        failure or advance the simulated clock (straggler)."""
        for rule in self.plan:
            if rule.kind == WORKER_LOSS and rule.wave is not None:
                continue  # handled at wave boundaries
            if rule.kind in CHECKPOINT_KINDS:
                continue  # fired by the checkpoint store's write hooks
            if rule.kind == WORKER_KILL:
                continue  # fired (and budgeted) by on_task_fork only
            if not rule.matches_task(what, partition_index, worker_id,
                                     attempt):
                continue
            if not self._fires(rule):
                continue
            self.injected[rule.kind] += 1
            where = (
                f"partition {partition_index} on worker {worker_id} "
                f"(attempt {attempt}, {what})"
            )
            if rule.kind == STRAGGLER:
                self.clock.advance(rule.delay_s)
                if self.recovery_log is not None:
                    self.recovery_log.record(
                        "straggler", table=what, partition=partition_index,
                        worker=worker_id, attempt=attempt,
                        delay_s=rule.delay_s, sim_time_s=self.clock.now,
                    )
                continue  # a delay, not a failure
            if rule.kind == TASK_CRASH:
                raise InjectedTaskCrash(f"injected task crash at {where}")
            if rule.kind == TASK_OOM:
                raise TransientTaskOOM(f"injected transient OOM at {where}")
            if rule.kind == WORKER_LOSS:
                raise WorkerLost(
                    f"injected loss of worker {worker_id} at {where}",
                    worker_id=worker_id,
                )

    def on_task_fork(self, what, partition_index, worker_id, attempt):
        """Called by a lane backend (threads or processes) just
        before it starts a task on a lane; returns the kill phase
        (``"start"`` / ``"transfer"``) if a worker-kill rule fires,
        else None. The process backend SIGKILLs the real worker at that
        point and the thread backend raises ``WorkerLost`` there — this
        is the only hook that consumes a worker-kill rule's ``times``
        budget, and the serial backend never calls it, so kill rules
        are inert there by construction."""
        for rule in self.plan:
            if rule.kind != WORKER_KILL:
                continue
            if not rule.matches_task(what, partition_index, worker_id,
                                     attempt):
                continue
            if not self._fires(rule):
                continue
            self.injected[WORKER_KILL] += 1
            if self.recovery_log is not None:
                self.recovery_log.record(
                    "worker_kill", table=what, partition=partition_index,
                    worker=worker_id, attempt=attempt,
                    phase=rule.phase or "start",
                    sim_time_s=self.clock.now,
                )
            return rule.phase or "start"
        return None

    def on_checkpoint_write(self, stage_id, path, entries):
        """Called by the checkpoint store after a wave file landed
        durably; ``entries`` maps each of its partitions (by index) to
        its ``{offset, nbytes, ...}`` range of ``path``. Corruption
        rules flip one seeded byte inside the matching partition's
        range; missing-file rules delete the wave file, so every
        partition in it reads as missing; torn rules truncate it
        mid-file (the write that 'beat the rename' in a real torn
        write), cutting its footer, so the next bind drops the whole
        wave. Either way the footer vouches for the *true* bytes, so
        restore must detect the damage instead of ingesting it."""
        for key, entry in entries.items():
            for rule in self.plan:
                if (rule.kind not in (CHECKPOINT_CORRUPT, CHECKPOINT_MISSING)
                        or not rule.matches_checkpoint(stage_id, int(key))
                        # a wave-mate's rule may have deleted the file
                        or not os.path.exists(path)
                        or not self._fires(rule)):
                    continue
                self.injected[rule.kind] += 1
                if rule.kind == CHECKPOINT_MISSING:
                    os.remove(path)
                    detail = "deleted"
                else:
                    detail = self._flip_byte(path, entry["offset"],
                                             entry["nbytes"])
                self._log_checkpoint_fault(rule.kind, stage_id, int(key),
                                           detail)
        for rule in self.plan:
            if (rule.kind != CHECKPOINT_TORN
                    or not rule.matches_checkpoint(stage_id, None)
                    or not os.path.exists(path) or not self._fires(rule)):
                continue
            self.injected[CHECKPOINT_TORN] += 1
            size = os.path.getsize(path)
            keep = max(1, size // 2)
            with open(path, "rb+") as handle:
                handle.truncate(keep)
            self._log_checkpoint_fault(
                CHECKPOINT_TORN, stage_id, None,
                f"truncated wave file {size}->{keep} B")

    def _log_checkpoint_fault(self, kind, stage_id, partition, detail):
        if self.recovery_log is not None:
            self.recovery_log.record(
                "checkpoint_fault", kind=kind, stage=str(stage_id),
                partition=partition, detail=detail,
                sim_time_s=self.clock.now,
            )

    def _flip_byte(self, path, start, nbytes):
        """Flip one byte at a seeded offset of ``[start, start +
        nbytes)`` — a single-bit-rot stand-in that a SHA-256 check must
        catch."""
        offset = start + self.rng.randrange(nbytes)
        with open(path, "rb+") as handle:
            handle.seek(offset)
            original = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([original ^ 0xFF]))
        return f"flipped byte at offset {offset}"

    # ------------------------------------------------------------------
    def _fires(self, rule):
        """Apply the rule's ``times`` budget and probability gate."""
        key = id(rule)
        if rule.times is not None and self._fired[key] >= rule.times:
            return False
        if rule.probability < 1.0 and self.rng.random() >= rule.probability:
            return False
        self._fired[key] += 1
        return True

    def __repr__(self):
        return (
            f"<FaultInjector seed={self.seed} rules={len(self.plan)} "
            f"injected={dict(self.injected)}>"
        )
