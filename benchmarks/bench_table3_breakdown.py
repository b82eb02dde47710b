"""Table 3 + Figure 17 (Appendix C): per-layer runtime breakdown and
the drill-down speedup split.

Table 3: minutes for CNN inference + first LR iteration per explored
layer under Staged, plus the image-read row, for 1/2/4/8 nodes.

Figure 17: speedup curves split into 'CNN inference + LR first
iteration' (near-linear) vs 'reading images' (sub-linear, the HDFS
small-files problem).

Shape invariants:
  - the first (lowest) explored layer dominates each CNN's total —
    that is where full inference from raw images happens;
  - compute speedups are near-linear; read speedups sub-linear;
  - ResNet50's 1-node layer-5 row lands near the paper's ~19 min.
"""

import pytest

from harness import paper_workload, print_table
from repro.costmodel import cloudlab_cluster, per_layer_breakdown
from repro.costmodel.crashes import manual_setup

NODES = (1, 2, 4, 8)


def breakdown_for(model_name, num_nodes):
    workload = paper_workload(model_name)
    setup = manual_setup(workload, 4, label="tab3")
    return per_layer_breakdown(workload, setup, cloudlab_cluster(num_nodes))


@pytest.fixture(scope="module")
def table3():
    return {
        (model, n): breakdown_for(model, n)
        for model in ("resnet50", "alexnet", "vgg16")
        for n in NODES
    }


def test_table3(table3, benchmark):
    benchmark(lambda: breakdown_for("resnet50", 8))
    for model in ("resnet50", "alexnet", "vgg16"):
        layers = paper_workload(model).layers
        rows = []
        for depth, layer in enumerate(layers):
            label = f"{len(layers) - depth}"  # index from the top
            rows.append(
                [label, layer] + [
                    f"{table3[(model, n)][0][layer] / 60:.1f}"
                    for n in NODES
                ]
            )
        totals = [
            sum(table3[(model, n)][0].values()) / 60 for n in NODES
        ]
        rows.append(["total", ""] + [f"{t:.1f}" for t in totals])
        rows.append(
            ["read", "images"] + [
                f"{table3[(model, n)][1] / 60:.1f}" for n in NODES
            ]
        )
        print_table(
            f"Table 3 — {model}: per-layer inference + LR 1st iter "
            "(minutes) vs nodes",
            ["layer#", "layer", "1", "2", "4", "8"], rows,
        )


def test_first_layer_dominates(table3):
    for model in ("resnet50", "alexnet", "vgg16"):
        rows, _ = table3[(model, 1)]
        values = list(rows.values())
        assert values[0] == max(values)
        assert values[0] > 0.5 * sum(values)


def test_resnet_one_node_layer5_anchor(table3):
    """Table 3's measured anchor: ~19 minutes."""
    rows, _ = table3[("resnet50", 1)]
    minutes = rows["conv4_6"] / 60
    assert 13 < minutes < 25


def test_fig17_compute_speedup_near_linear(table3):
    for model in ("resnet50", "vgg16"):
        t1 = sum(table3[(model, 1)][0].values())
        t8 = sum(table3[(model, 8)][0].values())
        assert t1 / t8 > 5.0, model


def test_fig17_read_speedup_sublinear(table3):
    for model in ("resnet50", "alexnet", "vgg16"):
        read1 = table3[(model, 1)][1]
        read8 = table3[(model, 8)][1]
        assert 3 < read1 / read8 < 7.9, model


def test_fig17_alexnet_compute_speedup_weakest(table3):
    """AlexNet's absolute compute time is smallest, so overheads bite:
    its compute-side speedup trails VGG16's and ResNet50's."""
    speedups = {}
    for model in ("resnet50", "alexnet", "vgg16"):
        t1 = sum(table3[(model, 1)][0].values())
        t8 = sum(table3[(model, 8)][0].values())
        speedups[model] = t1 / t8
    assert speedups["alexnet"] <= min(
        speedups["vgg16"], speedups["resnet50"]
    ) + 0.01


def test_reads_identical_across_models(table3):
    """The read row depends only on the image count, not the CNN."""
    reads = {
        model: table3[(model, 4)][1]
        for model in ("resnet50", "alexnet", "vgg16")
    }
    values = list(reads.values())
    assert max(values) == pytest.approx(min(values))
