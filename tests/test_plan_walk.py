"""The cost model prices the plan the engine runs: one walk over
``compile_plan``'s steps (the golden table), the terms priced from it,
and agreement of the walk with what the executor meters and traces."""

import pytest

from repro.cnn import build_model, get_model_stats
from repro.core.config import DatasetStats, VistaConfig, Workload
from repro.core.executor import FeatureTransferExecutor
from repro.core.plans import ALL_PLANS, EAGER, STAGED, Op, compile_plan
from repro.core.sizing import eager_table_bytes, estimate_sizes
from repro.costmodel import cloudlab_cluster, estimate_plan, params
from repro.costmodel.crashes import manual_setup
from repro.costmodel.io_cost import broadcast_seconds, task_overhead_seconds
from repro.costmodel.runtime import price_plan, walk_plan
from repro.data import foods_dataset
from repro.dataflow.context import local_context
from repro.trace import Tracer

ALEXNET = get_model_stats("alexnet")
LAYERS = ALEXNET.top_feature_layers(4)
FOODS = DatasetStats(20_000, 130, 14 * 1024)
WORKLOAD = Workload(ALEXNET, LAYERS, FOODS)
CLUSTER = cloudlab_cluster()


def _render(walk):
    """One line per step: op, the slot it reads, then what the walk
    sized — FLOPs per image, join operand bytes, or cached bytes and
    the reads the table serves while cached — and the aggregates."""
    lines = []
    for row in walk.rows:
        step = row.step
        parts = [step.op.value, step.reads]
        if step.op is Op.INFER:
            parts.append(f"{step.from_layer or 'image'}->"
                         + "+".join(layer for layer, _ in step.outputs))
            parts.append(f"flops={row.flops}")
        elif step.op is Op.JOIN:
            parts.append(f"operand={row.operand_bytes}")
        elif step.op is Op.CACHE:
            parts.append(f"bytes={row.table_bytes} reads={row.cached_reads}")
        elif step.layer:
            parts.append(step.layer)
        lines.append(" ".join(parts))
    lines.append(
        f"source_reads={walk.source_reads} peak={walk.peak_bytes} "
        f"largest={walk.largest_table_bytes} "
        f"max_reads={walk.max_cached_reads}"
    )
    return lines


#: Roster AlexNet, its top four layers, FOODS (20k records, 130
#: structured features, 14 KB images): |T_str| = 11,040,000 B,
#: |T_img| = 287,200,000 B, unpooled conv5 / fc6 / fc7 / fc8 =
#: 173,056 / 16,384 / 16,384 / 4,000 B per record.
GOLDEN = {
    "lazy": [
        "infer source image->conv5 flops=2155766656",
        "join t_conv5 operand=3472160000",
        "train joined conv5",
        "infer source image->fc6 flops=2231273344",
        "join t_fc6 operand=338720000",
        "train joined fc6",
        "infer source image->fc7 flops=2264827776",
        "join t_fc7 operand=338720000",
        "train joined fc7",
        "infer source image->fc8 flops=2273019776",
        "join t_fc8 operand=91040000",
        "train joined fc8",
        "source_reads=4 peak=0 largest=0 max_reads=0",
    ],
    "lazy-reordered": [
        "join source operand=298240000",
        "infer joined image->conv5 flops=2155766656",
        "train t_conv5 conv5",
        "infer joined image->fc6 flops=2231273344",
        "train t_fc6 fc6",
        "infer joined image->fc7 flops=2264827776",
        "train t_fc7 fc7",
        "infer joined image->fc8 flops=2273019776",
        "train t_fc8 fc8",
        "source_reads=4 peak=0 largest=0 max_reads=0",
    ],
    # Figure 5(C): ONE join, of the all-layers table.
    "eager": [
        "infer source image->conv5+fc6+fc7+fc8 flops=2273019776",
        "join t_eager operand=4207520000",
        "cache joined bytes=8405600000 reads=4",
        "project joined conv5",
        "train projected conv5",
        "project joined fc6",
        "train projected fc6",
        "project joined fc7",
        "train projected fc7",
        "project joined fc8",
        "train projected fc8",
        "unpersist joined",
        "source_reads=1 peak=8405600000 largest=8405600000 max_reads=4",
    ],
    "eager-reordered": [
        "join source operand=298240000",
        "infer joined image->conv5+fc6+fc7+fc8 flops=2273019776",
        "cache t_eager bytes=8405600000 reads=4",
        "project t_eager conv5",
        "train projected conv5",
        "project t_eager fc6",
        "train projected fc6",
        "project t_eager fc7",
        "train projected fc7",
        "project t_eager fc8",
        "train projected fc8",
        "unpersist t_eager",
        "source_reads=1 peak=8405600000 largest=8405600000 max_reads=4",
    ],
    # A stage table serves its TRAIN (or JOIN) and the next INFER.
    "staged": [
        "join source operand=298240000",
        "infer joined image->conv5 flops=2155766656",
        "cache t_conv5 bytes=6933920000 reads=2",
        "train t_conv5 conv5",
        "infer t_conv5 conv5->fc6 flops=75506688",
        "cache t_fc6 bytes=667040000 reads=2",
        "unpersist t_conv5",
        "train t_fc6 fc6",
        "infer t_fc6 fc6->fc7 flops=33554432",
        "cache t_fc7 bytes=667040000 reads=2",
        "unpersist t_fc6",
        "train t_fc7 fc7",
        "infer t_fc7 fc7->fc8 flops=8192000",
        "cache t_fc8 bytes=171680000 reads=1",
        "unpersist t_fc7",
        "train t_fc8 fc8",
        "unpersist t_fc8",
        "source_reads=1 peak=7589920000 largest=6933920000 max_reads=2",
    ],
    "staged-bj": [
        "infer source image->conv5 flops=2155766656",
        "cache t_conv5 bytes=6933920000 reads=2",
        "join t_conv5 operand=3472160000",
        "train joined conv5",
        "infer t_conv5 conv5->fc6 flops=75506688",
        "cache t_fc6 bytes=667040000 reads=2",
        "unpersist t_conv5",
        "join t_fc6 operand=338720000",
        "train joined fc6",
        "infer t_fc6 fc6->fc7 flops=33554432",
        "cache t_fc7 bytes=667040000 reads=2",
        "unpersist t_fc6",
        "join t_fc7 operand=338720000",
        "train joined fc7",
        "infer t_fc7 fc7->fc8 flops=8192000",
        "cache t_fc8 bytes=171680000 reads=1",
        "unpersist t_fc7",
        "join t_fc8 operand=91040000",
        "train joined fc8",
        "unpersist t_fc8",
        "source_reads=1 peak=7589920000 largest=6933920000 max_reads=2",
    ],
}


@pytest.mark.parametrize("name", sorted(ALL_PLANS))
def test_golden_walk(name):
    assert _render(walk_plan(WORKLOAD, ALL_PLANS[name])) == GOLDEN[name]


def test_walk_storage_terms_are_eq16_and_eq6():
    """Staged's peak is s_double (two consecutive stages, T_str once),
    its largest table s_single; Eager caches the all-layers table."""
    sizing = estimate_sizes(WORKLOAD)
    staged = walk_plan(WORKLOAD, STAGED)
    assert staged.peak_bytes == sizing.s_double
    assert staged.largest_table_bytes == sizing.s_single
    assert walk_plan(WORKLOAD, EAGER).peak_bytes \
        == eager_table_bytes(WORKLOAD)


@pytest.mark.parametrize("join", ["shuffle", "broadcast"])
@pytest.mark.parametrize("name", sorted(ALL_PLANS))
def test_priced_rows_are_the_span_opening_steps(name, join):
    setup = manual_setup(WORKLOAD, 4, join=join)
    rows, breakdown, _ = price_plan(
        WORKLOAD, ALL_PLANS[name], setup, CLUSTER
    )
    assert [step for step, _ in rows] == [
        step for step in compile_plan(ALL_PLANS[name], LAYERS)
        if step.span_name
    ]
    joins = [seconds for step, seconds in rows if step.op is Op.JOIN]
    assert breakdown["join"] == pytest.approx(sum(joins))
    report = estimate_plan(WORKLOAD, ALL_PLANS[name], setup, CLUSTER)
    assert not report.crashed
    assert sum(report.breakdown.values()) == report.seconds
    assert report.breakdown == breakdown


def test_eager_bj_joins_and_broadcasts_once():
    """Figure 5(C) joins the all-layers table once: one broadcast of
    T_str, and ``2 + |L|`` stages (the read, the join, |L| trainings)."""
    setup = manual_setup(WORKLOAD, 4, join="broadcast")
    rows, breakdown, _ = price_plan(WORKLOAD, EAGER, setup, CLUSTER)
    assert [step.op for step, _ in rows].count(Op.JOIN) == 1
    assert breakdown["join"] == broadcast_seconds(
        FOODS.structured_table_bytes(), CLUSTER
    )
    stages = 2 + len(LAYERS)
    assert breakdown["overhead"] == task_overhead_seconds(
        stages * setup.num_partitions, setup.num_partitions, CLUSTER,
        setup.cpu,
    ) + stages * params.STAGE_OVERHEAD_S


# ---------------------------------------------------------------------
# the walk against the engine
# ---------------------------------------------------------------------
ENGINE_CASES = {
    # model, number of top layers, pre-materialized base layer
    "alexnet": ("alexnet", 4, None),
    "alexnet-conv5": ("alexnet", 3, "conv5"),
    "resnet50": ("resnet50", 3, None),
}
RECORDS = 12


@pytest.mark.parametrize("name", sorted(ALL_PLANS))
@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_walk_matches_what_the_executor_meters_and_traces(case, name):
    model_name, num_layers, base = ENGINE_CASES[case]
    cnn = build_model(model_name, profile="mini")
    layers = cnn.top_feature_layers(num_layers)
    dataset = foods_dataset(num_records=RECORDS)
    config = VistaConfig(
        cpu=1, num_partitions=2, mem_storage_bytes=10**9,
        mem_user_bytes=10**9, mem_dl_bytes=10**9, join="broadcast",
        persistence="deserialized",
    )
    tracer = Tracer()
    result = FeatureTransferExecutor(
        local_context(num_nodes=1, cores_per_node=2, cpu=1), cnn, dataset,
        layers, config, tracer=tracer,
    ).run(ALL_PLANS[name], premat_layer=base)

    walk = walk_plan(
        Workload(cnn.stats, layers, DatasetStats.from_dataset(dataset), base),
        ALL_PLANS[name],
    )
    assert sum(row.flops for row in walk.rows) * RECORDS \
        == result.metrics["inference_flops"]
    workload = next(c for c in tracer.root.children if c.name == "workload")
    spans = [child.name.split(":")[0] for child in workload.children]
    ops = [row.step.op for row in walk.rows]
    assert ops.count(Op.JOIN) == spans.count("join")
    assert ops.count(Op.INFER) == spans.count("inference")
