"""Figure 12: scalability — (A) scaleup (weak scaling), (B) speedup
(strong scaling) over 1-8 nodes, (C) single-node speedup vs cpu.

Shape invariants (Section 5.3):
  (A) near-linear scaleup for all three CNNs;
  (B) near-linear speedup for VGG16 and ResNet50, markedly sub-linear
      for AlexNet (its compute is small, so the sub-linear image reads
      and fixed overheads dominate);
  (C) single-node speedup vs cpu plateaus around 4 cores (TF uses all
      cores regardless of the cpu setting).
"""

import pytest

from harness import FOODS, paper_workload, print_table, scale_dataset_stats
from repro.core.plans import STAGED
from repro.costmodel import cloudlab_cluster, estimate_plan, params
from repro.costmodel.crashes import manual_setup

NODES = (1, 2, 4, 8)


def _runtime(model_name, num_nodes, scale=1, cpu=4):
    workload = paper_workload(
        model_name, scale_dataset_stats(FOODS, factor=scale)
    )
    setup = manual_setup(workload, cpu, label="scal")
    return estimate_plan(
        workload, STAGED, setup, cloudlab_cluster(num_nodes)
    )


@pytest.fixture(scope="module")
def speedup():
    out = {}
    for model in ("alexnet", "vgg16", "resnet50"):
        t1 = _runtime(model, 1).seconds
        out[model] = {n: t1 / _runtime(model, n).seconds for n in NODES}
    return out


@pytest.fixture(scope="module")
def scaleup():
    out = {}
    for model in ("alexnet", "vgg16", "resnet50"):
        t1 = _runtime(model, 1, scale=1).seconds
        out[model] = {
            n: t1 / _runtime(model, n, scale=n).seconds for n in NODES
        }
    return out


@pytest.fixture(scope="module")
def cpu_speedup_curve():
    """Figure 12(C): relative throughput at cpu threads on one node."""
    return {cpu: params.cpu_speedup(cpu) for cpu in range(1, 9)}


def test_fig12_tables(speedup, scaleup, cpu_speedup_curve, benchmark):
    benchmark(lambda: _runtime("alexnet", 4))
    rows = [
        [model] + [f"{scaleup[model][n]:.2f}" for n in NODES]
        for model in scaleup
    ]
    print_table(
        "Figure 12(A) — scaleup (1.0 = perfect weak scaling)",
        ["CNN"] + [f"{n} nodes" for n in NODES], rows,
    )
    rows = [
        [model] + [f"{speedup[model][n]:.2f}" for n in NODES]
        for model in speedup
    ]
    print_table(
        "Figure 12(B) — speedup vs nodes",
        ["CNN"] + [f"{n} nodes" for n in NODES], rows,
    )
    rows = [
        [cpu, f"{s:.2f}"] for cpu, s in cpu_speedup_curve.items()
    ]
    print_table(
        "Figure 12(C) — single-node speedup vs cpu (0.25X data)",
        ["cpu", "speedup"], rows,
    )
    from repro.report import line_chart

    print()
    print(line_chart(
        "Figure 12(B) rendered — speedup vs nodes",
        {model: [speedup[model][n] for n in NODES] for model in speedup},
        xs=list(NODES),
    ))


def test_near_linear_scaleup(scaleup):
    for model, curve in scaleup.items():
        assert curve[8] > 0.75, (model, curve)


def test_vgg_resnet_near_linear_speedup(speedup):
    for model in ("vgg16", "resnet50"):
        assert speedup[model][8] > 5.5, (model, speedup[model])


def test_alexnet_markedly_sublinear_speedup(speedup):
    assert speedup["alexnet"][8] < speedup["vgg16"][8]
    assert speedup["alexnet"][8] < speedup["resnet50"][8]
    assert speedup["alexnet"][8] < 6.0


def test_speedup_monotone_in_nodes(speedup):
    for model, curve in speedup.items():
        values = [curve[n] for n in NODES]
        assert values == sorted(values)


def test_cpu_speedup_plateaus_at_4(cpu_speedup_curve):
    assert cpu_speedup_curve[4] > 2.0
    assert cpu_speedup_curve[8] < 1.35 * cpu_speedup_curve[4]
