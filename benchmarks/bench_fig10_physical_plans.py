"""Figure 10: physical plan choices — Shuffle vs Broadcast join x
Serialized vs Deserialized persistence, varying data scale and the
number of structured features.

Shape invariants (Section 5.3):
  - on ResNet50 the four combinations are nearly indistinguishable at
    low scale; Serialized slightly wins at 8X (spill relief);
  - Broadcast slightly outperforms Shuffle on AlexNet;
  - Broadcast plans CRASH once the structured table gets wide enough
    (10,000 features at 8X);
  - no single combination dominates everywhere — the argument for an
    automated optimizer.
"""

import pytest

from harness import (
    FOODS,
    fmt_minutes,
    paper_workload,
    print_table,
    scale_dataset_stats,
)
from repro.core.plans import STAGED
from repro.costmodel import cloudlab_cluster, estimate_plan
from repro.costmodel.crashes import manual_setup

CLUSTER = cloudlab_cluster()
COMBOS = {
    "Shuffle/Deser.": ("shuffle", "deserialized"),
    "Shuffle/Ser.": ("shuffle", "serialized"),
    "Broad./Deser.": ("broadcast", "deserialized"),
    "Broad./Ser.": ("broadcast", "serialized"),
}
LAYER_COUNTS = {"alexnet": 4, "resnet50": 5}


def run(model_name, scale, num_structured_features=None):
    ds = scale_dataset_stats(
        FOODS, factor=scale,
        num_structured_features=num_structured_features,
    )
    workload = paper_workload(model_name, ds, LAYER_COUNTS[model_name])
    out = {}
    for label, (join, pers) in COMBOS.items():
        setup = manual_setup(
            workload, 4, join=join, persistence=pers, label=label
        )
        out[label] = estimate_plan(workload, STAGED, setup, CLUSTER)
    return out


@pytest.fixture(scope="module")
def scale_sweep():
    return {
        (model, scale): run(model, scale)
        for model in ("alexnet", "resnet50")
        for scale in (1, 2, 4, 8)
    }


@pytest.fixture(scope="module")
def feature_sweep():
    return {
        (model, nf): run(model, 8, num_structured_features=nf)
        for model in ("alexnet", "resnet50")
        for nf in (10, 100, 1000, 10_000)
    }


def test_fig10_tables(scale_sweep, feature_sweep, benchmark):
    benchmark(lambda: run("alexnet", 2))
    for model in ("alexnet", "resnet50"):
        rows = [
            [f"{scale}X"] + [
                fmt_minutes(scale_sweep[(model, scale)][c]) for c in COMBOS
            ]
            for scale in (1, 2, 4, 8)
        ]
        print_table(
            f"Figure 10 — {model}, runtime (min) vs data scale",
            ["scale"] + list(COMBOS), rows,
        )
        rows = [
            [nf] + [
                fmt_minutes(feature_sweep[(model, nf)][c]) for c in COMBOS
            ]
            for nf in (10, 100, 1000, 10_000)
        ]
        print_table(
            f"Figure 10 — {model}/8X, runtime (min) vs #structured "
            "features",
            ["#features"] + list(COMBOS), rows,
        )


def test_combos_close_on_resnet_low_scale(scale_sweep):
    cells = scale_sweep[("resnet50", 1)]
    completed = [r.seconds for r in cells.values() if not r.crashed]
    assert max(completed) < 1.25 * min(completed)


def test_serialized_helps_resnet_at_8x(scale_sweep):
    cells = scale_sweep[("resnet50", 8)]
    assert cells["Shuffle/Ser."].seconds <= cells["Shuffle/Deser."].seconds


def test_broadcast_crashes_at_wide_structured_tables(feature_sweep):
    for model in ("alexnet", "resnet50"):
        wide = feature_sweep[(model, 10_000)]
        assert wide["Broad./Deser."].crashed
        assert wide["Broad./Ser."].crashed
        assert not wide["Shuffle/Deser."].crashed


def test_broadcast_fine_at_narrow_structured_tables(feature_sweep):
    for model in ("alexnet", "resnet50"):
        narrow = feature_sweep[(model, 100)]
        assert not narrow["Broad./Deser."].crashed


def test_no_single_combo_dominates(scale_sweep, feature_sweep):
    """The utility-of-an-optimizer claim: the winner changes across
    operating points (and the broadcast 'winner' can crash)."""
    winners = set()
    for cells in list(scale_sweep.values()) + list(feature_sweep.values()):
        completed = {
            label: r.seconds for label, r in cells.items() if not r.crashed
        }
        winners.add(min(completed, key=completed.get))
    crashed_somewhere = any(
        r.crashed
        for cells in feature_sweep.values() for r in cells.values()
    )
    assert len(winners) >= 2 or crashed_somewhere
