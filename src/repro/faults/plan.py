"""Declarative fault plans.

A :class:`FaultPlan` is an ordered list of :class:`FaultRule` entries
describing *which* failures to inject *where*: a task crash on
partition N at attempt K, a transient per-task OOM, the loss of a
worker at wave W, or a straggler delay on the simulated clock. Plans
are pure data — the seeded :class:`~repro.faults.injector.
FaultInjector` owns all mutable firing state — so the same plan can be
replayed deterministically against a fault-free run to prove the
recovered features are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Rule kinds.
TASK_CRASH = "task-crash"
TASK_OOM = "task-oom"
WORKER_LOSS = "worker-loss"
STRAGGLER = "straggler"
#: Real process death: SIGKILL the forked worker assigned the matching
#: task (process backend only; inert on the serial backend, which has
#: no worker process to kill). ``phase`` picks the kill point —
#: ``"start"`` before the task is sent to it, ``"transfer"`` after it
#: announced its result frame but before the frame was transferred.
WORKER_KILL = "worker-kill"
#: Checkpoint-hostility kinds: prove recovery against a store that
#: lies, not just one that is empty. ``table`` matches the stage id.
CHECKPOINT_CORRUPT = "checkpoint-corrupt"
CHECKPOINT_MISSING = "checkpoint-missing"
CHECKPOINT_TORN = "checkpoint-torn"

KINDS = (TASK_CRASH, TASK_OOM, WORKER_LOSS, STRAGGLER, WORKER_KILL,
         CHECKPOINT_CORRUPT, CHECKPOINT_MISSING, CHECKPOINT_TORN)
CHECKPOINT_KINDS = (CHECKPOINT_CORRUPT, CHECKPOINT_MISSING, CHECKPOINT_TORN)
KILL_PHASES = ("start", "transfer")


@dataclass(frozen=True)
class FaultRule:
    """One declarative injection rule.

    ``None`` match fields are wildcards. ``attempt`` matches the
    task's attempt number (1-based), so ``attempt=1`` fails only the
    first try and lets the retry succeed. ``times`` bounds how often
    the rule fires across the whole workload (``None`` = unlimited);
    ``probability`` gates each firing on the injector's seeded RNG.
    """

    kind: str
    partition: int | None = None   # task's partition index
    worker: int | None = None      # worker node id
    attempt: int | None = None     # task attempt number (1-based)
    wave: int | None = None        # global wave counter (worker loss)
    table: str | None = None       # substring match on the op label
    delay_s: float = 0.0           # straggler delay (simulated seconds)
    probability: float = 1.0
    times: int | None = 1
    phase: str | None = None       # worker-kill point: start|transfer

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {KINDS}"
            )
        if self.phase is not None and self.phase not in KILL_PHASES:
            raise ValueError(
                f"unknown kill phase {self.phase!r}; choose from "
                f"{KILL_PHASES}"
            )

    def matches_task(self, what, partition_index, worker_id, attempt):
        """Does this rule apply to a task about to start?"""
        if self.wave is not None:
            return False  # wave-scoped rules fire at wave boundaries
        if self.partition is not None and self.partition != partition_index:
            return False
        if self.worker is not None and self.worker != worker_id:
            return False
        if self.attempt is not None and self.attempt != attempt:
            return False
        if self.table is not None and self.table not in what:
            return False
        return True

    def matches_checkpoint(self, stage_id, partition_index):
        """Does this checkpoint rule apply to a just-written
        checkpoint file? ``table`` substring-matches the stage id,
        ``partition`` the partition index (torn-manifest rules ignore
        partitions — the manifest is run-level)."""
        if self.kind not in CHECKPOINT_KINDS:
            return False
        if self.table is not None and self.table not in str(stage_id):
            return False
        if (self.kind != CHECKPOINT_TORN and self.partition is not None
                and self.partition != partition_index):
            return False
        return True

    def matches_wave(self, what, worker_id, wave):
        """Does this worker-loss rule apply to a wave about to start?"""
        if self.kind != WORKER_LOSS:
            return False
        if self.partition is not None:
            return False  # partition-scoped loss fires mid-wave, at task level
        if self.worker is not None and self.worker != worker_id:
            return False
        if self.wave is not None and self.wave != wave:
            return False
        if self.table is not None and self.table not in what:
            return False
        return True


@dataclass
class FaultPlan:
    """An ordered collection of :class:`FaultRule` entries.

    Builder methods return ``self`` so plans read declaratively::

        plan = (FaultPlan()
                .task_crash(partition=3, attempt=1)
                .worker_loss(worker=1, wave=4)
                .straggler(partition=0, delay_s=5.0))
    """

    rules: list = field(default_factory=list)

    def add(self, rule):
        self.rules.append(rule)
        return self

    def task_crash(self, partition=None, attempt=1, worker=None, table=None,
                   probability=1.0, times=1):
        """Crash the matching task attempt with an injected error."""
        return self.add(FaultRule(
            TASK_CRASH, partition=partition, attempt=attempt, worker=worker,
            table=table, probability=probability, times=times,
        ))

    def task_oom(self, partition=None, attempt=None, worker=None, table=None,
                 probability=1.0, times=1):
        """Fail the matching task attempt with a transient OOM."""
        return self.add(FaultRule(
            TASK_OOM, partition=partition, attempt=attempt, worker=worker,
            table=table, probability=probability, times=times,
        ))

    def worker_loss(self, worker, wave=None, table=None, probability=1.0,
                    times=1):
        """Lose a worker — at global wave ``wave``, or at its next wave
        when ``wave`` is None."""
        return self.add(FaultRule(
            WORKER_LOSS, worker=worker, wave=wave, table=table,
            probability=probability, times=times,
        ))

    def worker_kill(self, worker=None, partition=None, attempt=None,
                    table=None, phase="start", probability=1.0, times=1):
        """SIGKILL the real worker process assigned the matching task
        (process backend). ``phase="transfer"`` kills it after it
        announced its result frame but before the frame is in — the
        crash-mid-transfer case the leak tests cover."""
        return self.add(FaultRule(
            WORKER_KILL, worker=worker, partition=partition,
            attempt=attempt, table=table, phase=phase,
            probability=probability, times=times,
        ))

    def straggler(self, partition=None, delay_s=10.0, worker=None,
                  table=None, attempt=None, probability=1.0, times=1):
        """Delay the matching task on the simulated clock (no failure)."""
        return self.add(FaultRule(
            STRAGGLER, partition=partition, worker=worker, table=table,
            attempt=attempt, delay_s=delay_s, probability=probability,
            times=times,
        ))

    def checkpoint_corrupt(self, stage=None, partition=None, probability=1.0,
                           times=1):
        """Flip a seeded byte in the matching checkpoint payload after
        it lands on disk — restore must catch the SHA-256 mismatch."""
        return self.add(FaultRule(
            CHECKPOINT_CORRUPT, table=stage, partition=partition,
            probability=probability, times=times,
        ))

    def checkpoint_missing(self, stage=None, partition=None, probability=1.0,
                           times=1):
        """Delete the matching checkpoint payload after it is written
        — restore must treat the manifest entry as unusable."""
        return self.add(FaultRule(
            CHECKPOINT_MISSING, table=stage, partition=partition,
            probability=probability, times=times,
        ))

    def checkpoint_torn(self, stage=None, probability=1.0, times=1):
        """Truncate the manifest mid-file after a commit, simulating a
        torn write that beat the rename — the next bind must detect
        the unparseable JSON and quarantine the run directory."""
        return self.add(FaultRule(
            CHECKPOINT_TORN, table=stage, probability=probability,
            times=times,
        ))

    def __len__(self):
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)
