"""The degrade-and-retry supervisor: features recovered from any
seeded fault sequence must be bit-identical to a fault-free run, the
degradation ladder must follow the paper's order, and every recovery
action must land in ``metrics["recovery_log"]``."""

import numpy as np
import pytest

from repro.core.api import Vista, default_resources
from repro.core.config import VistaConfig
from repro.core.plans import EAGER, LAZY, Materialization
from repro.core.resilient import ResilientRunner, degrade_once
from repro.data import foods_dataset
from repro.exceptions import ClusterExhausted, NoFeasiblePlan
from repro.faults import FaultPlan
from repro.recovery import CheckpointStore
from repro.trace import Tracer


def _make_vista():
    return Vista(
        model_name="alexnet", num_layers=2,
        dataset=foods_dataset(num_records=48),
        resources=default_resources(num_nodes=2),
        downstream_fn=lambda features, labels: {"matrix": features.copy()},
    )


@pytest.fixture(scope="module")
def baseline():
    return _make_vista().run()


def _matrices(result):
    return {
        layer: lr.downstream["matrix"]
        for layer, lr in result.layer_results.items()
    }


def _assert_bit_identical(result, baseline):
    expected = _matrices(baseline)
    actual = _matrices(result)
    assert sorted(actual) == sorted(expected)
    for layer, matrix in expected.items():
        assert np.array_equal(actual[layer], matrix), (
            f"features diverged on {layer}"
        )


# ---------------------------------------------------------------------
# fault-free behaviour
# ---------------------------------------------------------------------
def test_fault_free_run_is_transparent(baseline):
    result = _make_vista().run_resilient()
    _assert_bit_identical(result, baseline)
    assert result.metrics["recovery_log"] == []
    assert result.metrics["recovery_attempts"] == 1
    assert result.metrics["recovered_plan"] == "staged/aj"


# ---------------------------------------------------------------------
# bit-identical features under every injected fault class
# ---------------------------------------------------------------------
FAULT_PLANS = {
    "task-crash": lambda: FaultPlan().task_crash(
        partition=1, attempt=1, times=3
    ),
    "task-oom": lambda: FaultPlan().task_oom(
        partition=0, attempt=1, times=2
    ),
    "worker-loss": lambda: FaultPlan().worker_loss(worker=1),
    "straggler": lambda: FaultPlan().straggler(partition=2, delay_s=30.0),
    "combined": lambda: (
        FaultPlan()
        .task_crash(partition=1, attempt=1, times=3)
        .task_oom(partition=0, attempt=1, times=2)
        .worker_loss(worker=1)
        .straggler(partition=2, delay_s=30.0)
    ),
}


@pytest.mark.parametrize("fault_class", sorted(FAULT_PLANS))
def test_bit_identical_features_under_fault(fault_class, baseline):
    plan = FAULT_PLANS[fault_class]()
    result = _make_vista().run_resilient(fault_plan=plan, seed=7)
    _assert_bit_identical(result, baseline)
    assert result.metrics["faults_injected"]
    assert result.metrics["recovery_log"], (
        "injected faults must leave a recovery trace"
    )
    # lineage-only recovery re-executes work, it never skips any
    assert result.metrics["tasks_run"] >= baseline.metrics["tasks_run"]
    if fault_class in ("straggler", "combined"):
        assert result.metrics["sim_time_s"] >= 30.0


def test_worker_loss_recovery_details(baseline):
    result = _make_vista().run_resilient(
        fault_plan=FaultPlan().worker_loss(worker=1), seed=0
    )
    _assert_bit_identical(result, baseline)
    events = result.metrics["recovery_log"]
    kinds = [e["event"] for e in events]
    assert "worker_lost" in kinds and "blacklist" in kinds
    blacklist = next(e for e in events if e["event"] == "blacklist")
    assert blacklist["worker"] == 1
    # the whole workload completed on the surviving worker, without
    # needing a degradation step
    assert result.metrics["recovery_attempts"] == 1
    assert "degrade" not in kinds


def test_same_seed_same_recovery_log(baseline):
    def go():
        plan = (
            FaultPlan()
            .task_crash(probability=0.5, attempt=None, times=3)
            .worker_loss(worker=1)
        )
        return _make_vista().run_resilient(fault_plan=plan, seed=13)

    first, second = go(), go()
    _assert_bit_identical(first, baseline)
    _assert_bit_identical(second, baseline)
    assert first.metrics["recovery_log"] == second.metrics["recovery_log"]
    assert first.metrics["sim_time_s"] == second.metrics["sim_time_s"]


# ---------------------------------------------------------------------
# the degradation ladder
# ---------------------------------------------------------------------
def test_supervisor_degrades_and_recovers(baseline):
    # partition 0's task fails its entire retry budget on workload
    # attempt 1, escalating to the supervisor; the rule is then spent,
    # so the degraded attempt 2 succeeds.
    plan = FaultPlan().task_oom(partition=0, attempt=None, times=4)
    result = _make_vista().run_resilient(fault_plan=plan, seed=0)
    _assert_bit_identical(result, baseline)
    assert result.metrics["recovery_attempts"] == 2
    degrades = [
        e for e in result.metrics["recovery_log"] if e["event"] == "degrade"
    ]
    assert len(degrades) == 1
    assert degrades[0]["step"] == "join:broadcast->shuffle"
    assert degrades[0]["crash"] == "TransientTaskOOM"
    assert degrades[0]["join"] == "shuffle"
    # the task retries that preceded the escalation are in the log too
    retries = [
        e for e in result.metrics["recovery_log"]
        if e["event"] == "task_retry"
    ]
    assert len(retries) == 3


def test_degradation_ladder_order():
    config = VistaConfig(
        cpu=3, num_partitions=6, mem_storage_bytes=1, mem_user_bytes=1,
        mem_dl_bytes=1, join="broadcast", persistence="deserialized",
    )

    def fake_optimizer(cpu):
        # a fresh optimizer pick resets join/persistence upward; the
        # ladder must re-degrade them before touching cpu again
        return VistaConfig(
            cpu=cpu - 1, num_partitions=6, mem_storage_bytes=1,
            mem_user_bytes=1, mem_dl_bytes=1, join="shuffle",
            persistence="serialized",
        )

    plan = EAGER
    steps = []
    for _ in range(6):
        config, plan, step = degrade_once(config, plan, fake_optimizer)
        steps.append(step)
    assert steps == [
        "join:broadcast->shuffle",
        "persistence:deserialized->serialized",
        "materialization:eager->staged",
        "materialization:staged->lazy",
        "cpu:3->2",
        "cpu:2->1",
    ]
    assert plan.materialization is Materialization.LAZY
    with pytest.raises(NoFeasiblePlan):
        degrade_once(config, plan, fake_optimizer)


def test_cpu_rung_reinvokes_the_optimizer():
    vista = _make_vista()
    config = vista.optimize()
    runner = ResilientRunner(vista)
    lowered = runner._optimize_below(config.cpu)
    assert lowered.cpu < config.cpu
    # Algorithm 1 re-derived np for the lower parallelism
    assert lowered.num_partitions == lowered.cpu * 2


def test_ladder_exhaustion_raises_no_feasible_plan():
    # an unkillable transient OOM on partition 0 crashes every workload
    # attempt, walking the entire ladder down to cpu=1
    plan = FaultPlan().task_oom(partition=0, attempt=None, times=None)
    vista = _make_vista()
    with pytest.raises(NoFeasiblePlan):
        vista.run_resilient(fault_plan=plan, seed=0, max_attempts=64)


def test_non_retryable_crash_is_reraised():
    plan = FaultPlan().worker_loss(worker=0).worker_loss(worker=1)
    vista = _make_vista()
    runner = ResilientRunner(vista, fault_plan=plan, seed=0)
    with pytest.raises(ClusterExhausted):
        runner.run()
    # losing the whole cluster is not a planning problem: no ladder steps
    assert runner.recovery_log.count("degrade") == 0
    assert runner.recovery_log.count("blacklist") == 2


def test_lazy_plan_recovers_too(baseline):
    plan = FaultPlan().task_crash(partition=3, attempt=1, times=2)
    result = _make_vista().run_resilient(plan=LAZY, fault_plan=plan, seed=0)
    _assert_bit_identical(result, baseline)
    assert result.metrics["recovery_log"]


# ---------------------------------------------------------------------
# the supervisor's span structure: two records of one recovery
# ---------------------------------------------------------------------
TRACED_RECOVERIES = {
    # label: (fault plan, needs a checkpoint store, attempts, degrades)
    "oom-degrade": (
        lambda: FaultPlan().task_oom(partition=0, attempt=None, times=4),
        False, 2, 1,
    ),
    # both workers die in the train stage, after the inference stage's
    # checkpoints committed: the supervisor resumes instead of degrading
    "ckpt-resume": (
        lambda: (FaultPlan()
                 .worker_loss(worker=None, wave=5)
                 .worker_loss(worker=None, wave=6)),
        True, 2, 0,
    ),
}


@pytest.mark.parametrize("label", sorted(TRACED_RECOVERIES))
def test_trace_attempts_and_degrades_match_recovery_log(
    label, tmp_path, baseline
):
    make_plan, durable, attempts, degrades = TRACED_RECOVERIES[label]
    tracer = Tracer()
    result = _make_vista().run_resilient(
        fault_plan=make_plan(), seed=7, tracer=tracer,
        checkpoint_store=CheckpointStore(str(tmp_path)) if durable else None,
    )
    _assert_bit_identical(result, baseline)
    log = [e["event"] for e in result.metrics["recovery_log"]]
    spans = tracer.export()
    assert (len([s for s in spans if s["name"].startswith("attempt:")])
            == result.metrics["recovery_attempts"] == attempts)
    degrade_events = [
        event for span in spans for event in span["events"]
        if event["event"] == "degrade"
    ]
    assert len(degrade_events) == log.count("degrade") == degrades
    if durable:
        assert log.count("resume") >= 1


# ---------------------------------------------------------------------
# the recovery log
# ---------------------------------------------------------------------
def test_recovery_log_structure(baseline):
    plan = (
        FaultPlan()
        .task_crash(partition=1, attempt=1, times=2)
        .worker_loss(worker=1)
        .straggler(partition=2, delay_s=5.0)
    )
    result = _make_vista().run_resilient(fault_plan=plan, seed=3)
    _assert_bit_identical(result, baseline)
    events = result.metrics["recovery_log"]
    assert events
    for event in events:
        assert isinstance(event, dict)
        assert "event" in event and "sim_time_s" in event
    for retry in (e for e in events if e["event"] == "task_retry"):
        for key in ("table", "partition", "worker", "attempt", "fault",
                    "backoff_s"):
            assert key in retry
    stamps = [e["sim_time_s"] for e in events]
    assert stamps == sorted(stamps), "simulated time must be monotone"
    assert result.metrics["sim_time_s"] >= stamps[-1]


# ---------------------------------------------------------------------
# the run ledger's optimizer decision
# ---------------------------------------------------------------------
def _ledgered(tmp_path, name, run):
    """Run ``run(ledger)`` against a file-backed ledger; returns the
    file's ``runsum/v1`` summary and its parsed events."""
    from repro.observe import RunLedger, read_ledger, summarize_ledger

    ledger = RunLedger(str(tmp_path / f"{name}.jsonl"))
    try:
        run(ledger)
    finally:
        ledger.close()
    events, problems = read_ledger(ledger.path)
    return summarize_ledger(events, problems), events


def test_resilient_ledger_knobs_equal_the_plain_twins(tmp_path):
    """``run_resilient`` records Algorithm 1's choice as ``Vista.run``
    does, so the summary's knobs (what ``exact-plan-choice`` reads)
    match the plain twin's."""
    plain, _ = _ledgered(tmp_path, "plain",
                         lambda ledger: _make_vista().run(ledger=ledger))
    resilient, _ = _ledgered(
        tmp_path, "resilient",
        lambda ledger: _make_vista().run_resilient(ledger=ledger),
    )
    assert set(plain["knobs"]) == {
        "plan", "cpu", "join", "persistence", "num_partitions"}
    assert resilient["knobs"] == plain["knobs"]


def test_degraded_run_records_one_decision_per_attempt(tmp_path):
    """Each attempt records the plan and configuration it runs: the
    broadcast join that crashed, then the shuffle join that recovered."""
    plan = FaultPlan().task_oom(partition=0, attempt=None, times=4)
    results = []
    _, events = _ledgered(tmp_path, "degraded", lambda ledger: results.append(
        _make_vista().run_resilient(fault_plan=plan, seed=0, ledger=ledger)))
    decisions = [e for e in events if e["kind"] == "optimizer_decision"]
    assert len(decisions) == results[0].metrics["recovery_attempts"] == 2
    assert [d["join"] for d in decisions] == ["broadcast", "shuffle"]
    assert {d["plan"] for d in decisions} == {"staged/aj"}
