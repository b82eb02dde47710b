"""Figure 9: logical plan alternatives — Eager vs Staged x join
Before/After inference, varying |L| and data scale, for AlexNet and
ResNet50 on (semi-synthetic) Foods.

Shape invariants (Section 5.3):
  - differences are small at low scale / low |L|;
  - Eager gets much slower than Staged as |L| and scale grow,
    especially for ResNet50 (disk spills of large intermediates);
  - AJ plans are comparable to BJ and marginally faster at scale.
"""

import pytest

from harness import FOODS, paper_workload, print_table, scale_dataset_stats
from repro.core.plans import (
    EAGER,
    EAGER_REORDERED,
    LAZY,
    STAGED,
    STAGED_BJ,
)
from repro.costmodel import cloudlab_cluster, estimate_plan
from repro.costmodel.crashes import manual_setup

CLUSTER = cloudlab_cluster()
PLANS = {
    "Eager/BJ": EAGER,
    "Eager/AJ": EAGER_REORDERED,
    "Staged/BJ": STAGED_BJ,
    "Staged/AJ": STAGED,
}


def run(model_name, num_layers, scale):
    workload = paper_workload(
        model_name, scale_dataset_stats(FOODS, factor=scale), num_layers
    )
    out = {}
    for label, plan in PLANS.items():
        setup = manual_setup(workload, 4, label=label)
        out[label] = estimate_plan(workload, plan, setup, CLUSTER)
    return out


@pytest.fixture(scope="module")
def layer_sweep():
    return {
        (model, k): run(model, k, 2)
        for model in ("alexnet", "resnet50")
        for k in range(1, {"alexnet": 4, "resnet50": 5}[model] + 1)
    }


@pytest.fixture(scope="module")
def scale_sweep():
    return {
        (model, scale): run(
            model, {"alexnet": 4, "resnet50": 5}[model], scale
        )
        for model in ("alexnet", "resnet50")
        for scale in (1, 2, 4, 8)
    }


def test_fig09_tables(layer_sweep, scale_sweep, benchmark):
    benchmark(lambda: run("alexnet", 4, 2))
    for model in ("alexnet", "resnet50"):
        ks = sorted(k for m, k in layer_sweep if m == model)
        rows = [
            [k] + [
                f"{layer_sweep[(model, k)][p].minutes:.1f}" for p in PLANS
            ]
            for k in ks
        ]
        print_table(
            f"Figure 9({1 if model == 'alexnet' else 2}) — {model}/2X, "
            "runtime (min) vs #layers",
            ["#layers"] + list(PLANS), rows,
        )
        rows = [
            [f"{scale}X"] + [
                f"{scale_sweep[(model, scale)][p].minutes:.1f}"
                for p in PLANS
            ]
            for scale in (1, 2, 4, 8)
        ]
        print_table(
            f"Figure 9({3 if model == 'alexnet' else 4}) — {model}, "
            "runtime (min) vs data scale",
            ["scale"] + list(PLANS), rows,
        )


def test_differences_small_at_low_scale(layer_sweep):
    for model in ("alexnet", "resnet50"):
        cells = layer_sweep[(model, 1)]
        times = [r.seconds for r in cells.values()]
        assert max(times) < 1.6 * min(times)


def test_eager_degrades_for_resnet_at_scale(scale_sweep):
    cells = scale_sweep[("resnet50", 8)]
    assert cells["Eager/AJ"].seconds > 1.5 * cells["Staged/AJ"].seconds
    assert cells["Eager/AJ"].spilled_bytes > 0


def test_staged_never_worse_than_eager(scale_sweep, layer_sweep):
    for cells in list(scale_sweep.values()) + list(layer_sweep.values()):
        assert cells["Staged/AJ"].seconds <= cells["Eager/AJ"].seconds * 1.05


def test_aj_competitive_with_bj_at_scale(scale_sweep):
    """AJ plans are mostly comparable, marginally faster at larger
    scales (join operand is the compact image table, not features)."""
    cells = scale_sweep[("resnet50", 8)]
    assert cells["Staged/AJ"].seconds <= cells["Staged/BJ"].seconds


def test_eager_equals_staged_when_one_layer():
    """With |L| = 1 Eager and Staged are the same plan."""
    cells = run("resnet50", 1, 1)
    assert cells["Eager/AJ"].seconds == pytest.approx(
        cells["Staged/AJ"].seconds, rel=0.01
    )
