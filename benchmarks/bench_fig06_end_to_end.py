"""Figure 6: end-to-end reliability and efficiency (CPU cluster).

Regenerates the full {Foods, Amazon} x {Spark, Ignite} x {AlexNet,
VGG16, ResNet50} matrix over the six approaches: Lazy-1/5/7, Lazy-5
with Pre-mat, Eager, and Vista. Cells are minutes, "X" is a crash.

Shape invariants asserted (the paper's Section 5.1 narrative):
  - Vista never crashes and is fastest or near-fastest everywhere;
  - on Spark, Lazy-5 and Lazy-7 crash for VGG16 on both datasets;
  - on Ignite, Lazy-7 crashes for all CNNs on Amazon and for ResNet50
    on Foods; Eager crashes for ResNet50 on Amazon;
  - Vista's runtime reduction vs the Lazy baselines is 58-92%-ish.
"""

import pytest

from harness import AMAZON, FOODS, fmt_minutes, paper_workload, print_table
from repro.core.optimizer import optimize
from repro.core.plans import EAGER, LAZY, STAGED
from repro.costmodel import (
    cloudlab_cluster,
    estimate_plan,
    estimate_premat_runtime,
    ignite_default_setup,
    spark_default_setup,
    vista_setup,
)
from repro.costmodel.crashes import manual_setup
from repro.core.config import Resources
from repro.memory.model import GB

CLUSTER = cloudlab_cluster()
RESOURCES = Resources(8, 32 * GB, 8)
APPROACHES = ["Lazy-1", "Lazy-5", "Lazy-7", "Lazy-5+Premat", "Eager", "Vista"]


def run_cell(model_name, dataset_stats, backend, approach):
    """One Figure 6 cell: a RuntimeReport (possibly crashed)."""
    workload = paper_workload(model_name, dataset_stats)
    if approach.startswith("Lazy-") and "Premat" not in approach:
        cpu = int(approach.split("-")[1])
        setup = (
            spark_default_setup(cpu, dataset_stats.num_records)
            if backend == "spark" else ignite_default_setup(cpu)
        )
        return estimate_plan(workload, LAZY, setup, CLUSTER)
    if approach == "Lazy-5+Premat":
        setup = manual_setup(workload, 5, backend=backend, label=approach)
        pre, main = estimate_premat_runtime(
            workload, LAZY, setup, CLUSTER, label=approach,
        )
        if main.crashed:
            return main
        main.seconds += pre.seconds
        main.breakdown["premat"] = pre.seconds
        return main
    if approach == "Eager":
        setup = manual_setup(workload, 5, backend=backend, label="eager")
        return estimate_plan(workload, EAGER, setup, CLUSTER)
    if approach == "Vista":
        config = optimize(workload, RESOURCES)
        return estimate_plan(
            workload, STAGED, vista_setup(config, backend=backend), CLUSTER,
        )
    raise ValueError(approach)


def full_matrix():
    matrix = {}
    for ds_name, ds in (("foods", FOODS), ("amazon", AMAZON)):
        for backend in ("spark", "ignite"):
            for model in ("alexnet", "vgg16", "resnet50"):
                for approach in APPROACHES:
                    matrix[(ds_name, backend, model, approach)] = run_cell(
                        model, ds, backend, approach
                    )
    return matrix


@pytest.fixture(scope="module")
def matrix():
    return full_matrix()


def test_fig06_matrix(matrix, benchmark):
    benchmark(lambda: run_cell("resnet50", FOODS, "spark", "Vista"))
    for ds_name in ("foods", "amazon"):
        for backend in ("spark", "ignite"):
            rows = []
            for model in ("alexnet", "vgg16", "resnet50"):
                rows.append([model] + [
                    fmt_minutes(matrix[(ds_name, backend, model, a)])
                    for a in APPROACHES
                ])
            print_table(
                f"Figure 6 — {ds_name} / {backend} (minutes, X = crash)",
                ["CNN"] + APPROACHES, rows,
            )
    from repro.report import bar_chart

    for model in ("alexnet", "vgg16", "resnet50"):
        items = [
            (approach,
             None if matrix[("foods", "spark", model, approach)].crashed
             else matrix[("foods", "spark", model, approach)].minutes)
            for approach in APPROACHES
        ]
        print()
        print(bar_chart(
            f"Figure 6 rendered — foods/spark/{model}", items, unit=" min"
        ))


def test_vista_never_crashes(matrix):
    for key, report in matrix.items():
        if key[3] == "Vista":
            assert not report.crashed, key


def test_vista_is_fastest_or_near_fastest(matrix):
    for ds_name in ("foods", "amazon"):
        for backend in ("spark", "ignite"):
            for model in ("alexnet", "vgg16", "resnet50"):
                vista = matrix[(ds_name, backend, model, "Vista")]
                others = [
                    matrix[(ds_name, backend, model, a)]
                    for a in APPROACHES if a != "Vista"
                ]
                completed = [r.seconds for r in others if not r.crashed]
                assert vista.seconds <= min(completed) * 1.05


def test_spark_vgg_lazy_crashes(matrix):
    for ds_name in ("foods", "amazon"):
        for approach in ("Lazy-5", "Lazy-7"):
            assert matrix[(ds_name, "spark", "vgg16", approach)].crashed


def test_spark_non_vgg_lazy_completes(matrix):
    """Section 5.1: on Spark-TF only VGG16's Lazy runs crash."""
    for ds_name in ("foods", "amazon"):
        for model in ("alexnet", "resnet50"):
            for approach in ("Lazy-1", "Lazy-5", "Lazy-7"):
                assert not matrix[
                    (ds_name, "spark", model, approach)
                ].crashed, (ds_name, model, approach)


def test_ignite_lazy7_crashes_all_models_on_amazon(matrix):
    for model in ("alexnet", "vgg16", "resnet50"):
        assert matrix[("amazon", "ignite", model, "Lazy-7")].crashed


def test_ignite_lazy7_resnet_crashes_on_foods(matrix):
    assert matrix[("foods", "ignite", "resnet50", "Lazy-7")].crashed
    assert not matrix[("foods", "ignite", "alexnet", "Lazy-7")].crashed


def test_eager_crashes_ignite_amazon_resnet(matrix):
    assert matrix[("amazon", "ignite", "resnet50", "Eager")].crashed
    assert not matrix[("amazon", "ignite", "alexnet", "Eager")].crashed


def test_eager_spills_on_spark_amazon_resnet(matrix):
    eager = matrix[("amazon", "spark", "resnet50", "Eager")]
    vista = matrix[("amazon", "spark", "resnet50", "Vista")]
    assert not eager.crashed
    assert eager.spilled_bytes > 0
    assert eager.seconds > 1.5 * vista.seconds


def test_vista_runtime_reduction_band(matrix):
    """'reduces runtimes by 58% to 92% compared to baselines'
    (vs Lazy-1, the always-completing baseline)."""
    for ds_name in ("foods", "amazon"):
        for backend in ("spark", "ignite"):
            for model in ("alexnet", "vgg16", "resnet50"):
                lazy1 = matrix[(ds_name, backend, model, "Lazy-1")]
                vista = matrix[(ds_name, backend, model, "Vista")]
                reduction = 1 - vista.seconds / lazy1.seconds
                assert 0.5 <= reduction <= 0.95, (model, reduction)
