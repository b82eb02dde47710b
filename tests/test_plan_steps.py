"""The compiled plan is the contract: Figure 5 written down once (the
golden table), the structural properties every compiled plan holds,
agreement of the three readers — executor spans and checkpoint
stage ids, peak predictor, progress monitor — with the step list, and
where each step's stage is placed (a second golden table, and the
forks one ledgered run actually made)."""

import pytest

from repro.cnn import build_model
from repro.core.api import Vista, default_resources
from repro.core.config import VistaConfig
from repro.core.executor import FeatureTransferExecutor, dispatches
from repro.core.plans import (
    ALL_PLANS, SOURCE, Op, compile_plan, infer_step,
)
from repro.data import foods_dataset
from repro.dataflow.context import local_context
from repro.observe import RunLedger, predict_stage_plan
from repro.recovery import CheckpointStore
from repro.trace import Tracer


def _render(steps):
    """One line per step: op, slots, then what the op-specific fields
    and the derived span / stage-id strings say."""
    lines = []
    for step in steps:
        parts = [step.op.value, step.reads]
        if step.writes:
            parts += ["->", step.writes]
        if step.op is Op.INFER:
            parts.append(
                f"[{step.from_layer or 'image'}: "
                + " ".join(f"{l}={c}" for l, c in step.outputs) + "]"
            )
            if step.keep:
                parts.append("keep=" + ",".join(step.keep))
        elif step.layer:
            parts.append(f"[{step.layer}]")
        if step.span_name:
            parts.append(f"span={step.span_name}")
        if step.stage_id:
            parts.append(f"ckpt={step.stage_id}")
        lines.append(" ".join(parts))
    return lines


KEEP = "keep=features,label"

GOLDEN = {
    "lazy": [
        "infer source -> t_fc7 [image: fc7=tensor] "
        "span=inference:fc7 ckpt=infer:image->fc7",
        "join t_fc7 -> joined [fc7] span=join",
        "train joined [fc7] span=train:fc7",
        "infer source -> t_fc8 [image: fc8=tensor] "
        "span=inference:fc8 ckpt=infer:image->fc8",
        "join t_fc8 -> joined [fc8] span=join",
        "train joined [fc8] span=train:fc8",
    ],
    "lazy-reordered": [
        "join source -> joined span=join",
        f"infer joined -> t_fc7 [image: fc7=tensor] {KEEP} "
        "span=inference:fc7 ckpt=infer:image->fc7+aj",
        "train t_fc7 [fc7] span=train:fc7",
        f"infer joined -> t_fc8 [image: fc8=tensor] {KEEP} "
        "span=inference:fc8 ckpt=infer:image->fc8+aj",
        "train t_fc8 [fc8] span=train:fc8",
    ],
    "eager": [
        "infer source -> t_eager [image: fc7=tensor:fc7 fc8=tensor:fc8] "
        "span=inference:eager ckpt=eager:image->fc8",
        "join t_eager -> joined span=join",
        "cache joined",
        "project joined -> projected [fc7]",
        "train projected [fc7] span=train:fc7",
        "project joined -> projected [fc8]",
        "train projected [fc8] span=train:fc8",
        "unpersist joined",
    ],
    "eager-reordered": [
        "join source -> joined span=join",
        "infer joined -> t_eager [image: fc7=tensor:fc7 fc8=tensor:fc8] "
        f"{KEEP} span=inference:eager ckpt=eager:image->fc8+aj",
        "cache t_eager",
        "project t_eager -> projected [fc7]",
        "train projected [fc7] span=train:fc7",
        "project t_eager -> projected [fc8]",
        "train projected [fc8] span=train:fc8",
        "unpersist t_eager",
    ],
    "staged": [
        "join source -> joined span=join",
        f"infer joined -> t_fc7 [image: fc7=tensor] {KEEP} "
        "span=inference:fc7 ckpt=infer:image->fc7+aj",
        "cache t_fc7",
        "train t_fc7 [fc7] span=train:fc7",
        f"infer t_fc7 -> t_fc8 [fc7: fc8=tensor] {KEEP} "
        "span=inference:fc8 ckpt=infer:fc7->fc8+aj",
        "cache t_fc8",
        "unpersist t_fc7",
        "train t_fc8 [fc8] span=train:fc8",
        "unpersist t_fc8",
    ],
    "staged-bj": [
        "infer source -> t_fc7 [image: fc7=tensor] "
        "span=inference:fc7 ckpt=infer:image->fc7",
        "cache t_fc7",
        "join t_fc7 -> joined [fc7] span=join",
        "train joined [fc7] span=train:fc7",
        "infer t_fc7 -> t_fc8 [fc7: fc8=tensor] "
        "span=inference:fc8 ckpt=infer:fc7->fc8",
        "cache t_fc8",
        "unpersist t_fc7",
        "join t_fc8 -> joined [fc8] span=join",
        "train joined [fc8] span=train:fc8",
        "unpersist t_fc8",
    ],
}


@pytest.mark.parametrize("name", sorted(ALL_PLANS))
def test_golden_steps(name):
    assert _render(compile_plan(ALL_PLANS[name], ["fc7", "fc8"])) \
        == GOLDEN[name]


def test_golden_steps_from_prematerialized_layer():
    """``source_layer`` only moves where the first inference starts."""
    steps = compile_plan(ALL_PLANS["staged"], ["fc7", "fc8"], "conv5")
    assert _render(steps)[:2] == [
        "join source -> joined span=join",
        f"infer joined -> t_fc7 [conv5: fc7=tensor] {KEEP} "
        "span=inference:fc7 ckpt=infer:conv5->fc7+aj",
    ]
    assert _render(steps)[2:] == GOLDEN["staged"][2:]


LAYERS = ["conv5", "fc7", "fc8"]


@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(ALL_PLANS))
def test_structural_properties(name, num_layers):
    layers = LAYERS[-num_layers:]
    steps = compile_plan(ALL_PLANS[name], layers)
    written = {SOURCE}
    cached = set()
    for step in steps:
        assert step.reads in written, f"{step} reads an unwritten slot"
        if step.op is Op.CACHE:
            assert step.reads not in cached
            cached.add(step.reads)
        elif step.op is Op.UNPERSIST:
            cached.remove(step.reads)  # KeyError: never cached / twice
        if step.writes:
            written.add(step.writes)
    assert not cached, f"never unpersisted: {cached}"
    assert [s.layer for s in steps if s.op is Op.TRAIN] == layers
    inferred = [
        layer for s in steps if s.op is Op.INFER for layer, _ in s.outputs
    ]
    assert inferred == layers


def _span_stream(root):
    """The plan-shaped children of the ``workload`` span, with the
    physical operator folded out of ``join:<operator>``."""
    workload = next(c for c in root.children if c.name == "workload")
    names = []
    for child in workload.children:
        kind = child.name.split(":")[0]
        if kind == "join":
            names.append("join")
        elif kind in ("inference", "train"):
            names.append(child.name)
    return names


@pytest.mark.parametrize("num_layers", [1, 3])
@pytest.mark.parametrize("name", sorted(ALL_PLANS))
def test_executor_and_monitor_agree_with_steps(tmp_path, name, num_layers):
    plan = ALL_PLANS[name]
    vista = Vista(
        model_name="alexnet", num_layers=num_layers,
        dataset=foods_dataset(num_records=24),
        resources=default_resources(num_nodes=2),
    )
    steps = compile_plan(plan, vista.layers)
    span_names = [s.span_name for s in steps if s.span_name]
    tracer = Tracer()
    store = CheckpointStore(str(tmp_path), fsync=False)
    vista.run(plan=plan, tracer=tracer, checkpoint_store=store)

    assert _span_stream(tracer.root) == span_names
    assert store.stages() == sorted(s.stage_id for s in steps if s.stage_id)
    stage_plan = predict_stage_plan(
        vista.model_stats, vista.layers, vista.dataset_stats, plan,
        vista.optimize(), vista.resources, backend=vista.backend,
    )
    assert [stage.matcher for stage in stage_plan.stages] \
        == ["read", *span_names]


# ---------------------------------------------------------------------
# stage placement: which steps cross a process boundary
# ---------------------------------------------------------------------
PLACEMENT_CASES = {
    # model, number of top layers, pre-materialized base layer
    "alexnet": ("alexnet", 4, None),
    "resnet50": ("resnet50", 5, None),
    "alexnet-premat": ("alexnet", 3, "conv5"),
}

#: Every ``INFER`` step of every plan, in order, ``*`` = dispatched to
#: the context's backend. All other steps stay in the driver.
PLACEMENT = {
    "alexnet": {
        "lazy": "*image->conv5 *image->fc6 *image->fc7 *image->fc8",
        "lazy-reordered": "*image->conv5 *image->fc6 *image->fc7 *image->fc8",
        "eager": "*image->conv5+fc6+fc7+fc8",
        "eager-reordered": "*image->conv5+fc6+fc7+fc8",
        "staged": "*image->conv5 conv5->fc6 fc6->fc7 fc7->fc8",
        "staged-bj": "*image->conv5 conv5->fc6 fc6->fc7 fc7->fc8",
    },
    "resnet50": {
        "lazy": "*image->conv4_6 *image->conv5_1 *image->conv5_2 "
                "*image->conv5_3 *image->fc6",
        "lazy-reordered": "*image->conv4_6 *image->conv5_1 *image->conv5_2 "
                          "*image->conv5_3 *image->fc6",
        "eager": "*image->conv4_6+conv5_1+conv5_2+conv5_3+fc6",
        "eager-reordered": "*image->conv4_6+conv5_1+conv5_2+conv5_3+fc6",
        "staged": "*image->conv4_6 conv4_6->conv5_1 conv5_1->conv5_2 "
                  "conv5_2->conv5_3 conv5_3->fc6",
        "staged-bj": "*image->conv4_6 conv4_6->conv5_1 conv5_1->conv5_2 "
                     "conv5_2->conv5_3 conv5_3->fc6",
    },
    "alexnet-premat": {
        "lazy": "conv5->fc6 conv5->fc7 conv5->fc8",
        "lazy-reordered": "conv5->fc6 conv5->fc7 conv5->fc8",
        "eager": "conv5->fc6+fc7+fc8",
        "eager-reordered": "conv5->fc6+fc7+fc8",
        "staged": "conv5->fc6 fc6->fc7 fc7->fc8",
        "staged-bj": "conv5->fc6 fc6->fc7 fc7->fc8",
    },
}


@pytest.mark.parametrize("name", sorted(ALL_PLANS))
@pytest.mark.parametrize("case", sorted(PLACEMENT_CASES))
def test_golden_placement(case, name):
    """Exactly the steps that start at the raw image are dispatched;
    joins, projections, vectorize-and-train and every layer-to-layer
    inference stay in the driver."""
    model, num_layers, premat = PLACEMENT_CASES[case]
    cnn = build_model(model, profile="mini")
    layers = cnn.top_feature_layers(num_layers)
    steps = compile_plan(ALL_PLANS[name], layers, premat)
    assert " ".join(
        "*" * dispatches(cnn, step)
        + f"{step.from_layer or 'image'}->"
        + "+".join(layer for layer, _ in step.outputs)
        for step in steps if step.op is Op.INFER
    ) == PLACEMENT[case][name]
    assert not any(
        dispatches(cnn, step) for step in steps if step.op is not Op.INFER)
    if premat:  # the pre-materialization pass starts at the raw image
        assert dispatches(cnn, infer_step(SOURCE, None, premat))


def test_forks_happen_under_the_dispatched_stage_only():
    """One ledgered Staged/AJ AlexNet-mini run at np=8, cpu=2 on the
    process backend: nine stages, one of them sent to workers — eight
    tasks over two forked lanes, all under image->conv5, none under the
    join or any later stage."""
    cnn = build_model("alexnet", profile="mini")
    config = VistaConfig(
        cpu=2, num_partitions=8, mem_storage_bytes=10**9,
        mem_user_bytes=10**9, mem_dl_bytes=10**9, join="broadcast",
        persistence="deserialized",
    )
    ledger = RunLedger()
    FeatureTransferExecutor(
        local_context(num_nodes=1, cores_per_node=4, cpu=2,
                      exec_backend="process"),
        cnn, foods_dataset(num_records=64), cnn.top_feature_layers(4),
        config, ledger=ledger,
    ).run(ALL_PLANS["staged"])

    stages = []  # [what, task_fork events] per stage, in run order
    for event in ledger:
        if event["kind"] == "stage_tasks":
            stages.append([event["what"], []])
        elif event["kind"] == "task_fork":
            stages[-1][1].append(event)
    assert len(stages) == 9
    assert stages[0][0] == "broadcast join output" and not stages[0][1]
    what, forks = stages[1]
    assert what.startswith("map over ") and len(forks) == 8
    assert sum(event["spawn_s"] > 0 for event in forks) == 2
    assert sorted(event["partition"] for event in forks) == list(range(8))
    assert not any(forks for _, forks in stages[2:])
