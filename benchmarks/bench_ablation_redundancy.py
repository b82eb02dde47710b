"""Ablation: computational redundancy of the logical plans, measured
two ways — statically from the roster (paper-scale FLOPs) and
dynamically by metering the real mini-engine execution.

This isolates the single mechanism behind most of Vista's speedup
(Section 4.2.1): Lazy re-runs the shared inference prefix once per
layer; Staged/Eager run it once. The two measurements must agree on
the redundancy *ratio*, since mini models keep the same chain
structure.
"""

import pytest

from harness import paper_workload, print_table
from repro.cnn import build_model
from repro.core.config import VistaConfig
from repro.core.executor import FeatureTransferExecutor
from repro.core.plans import EAGER, LAZY, STAGED, redundant_flops
from repro.data import foods_dataset
from repro.dataflow.context import local_context


def static_redundancy(model_name):
    """Paper-scale: Lazy total vs Staged total FLOPs per layer count."""
    workload = paper_workload(model_name)
    stats, layers = workload.model_stats, workload.layers
    out = {}
    for k in range(1, len(layers) + 1):
        subset = layers[-k:]
        staged = stats.layer_stats(subset[-1]).flops_from_input
        lazy = sum(
            stats.layer_stats(layer).flops_from_input for layer in subset
        )
        out[k] = (lazy, staged, redundant_flops(stats, subset))
    return out


def measured_ratios(model_name, num_layers):
    """Real execution: metered FLOPs for each plan on the mini engine."""
    model = build_model(model_name, profile="mini")
    layers = model.feature_layers[-num_layers:]
    dataset = foods_dataset(num_records=32)
    config = VistaConfig(
        cpu=2, num_partitions=4, mem_storage_bytes=10**9,
        mem_user_bytes=10**9, mem_dl_bytes=10**9, join="shuffle",
        persistence="deserialized",
    )
    out = {}
    for label, plan in (("lazy", LAZY), ("eager", EAGER),
                        ("staged", STAGED)):
        ctx = local_context(num_nodes=2, cores_per_node=4, cpu=2)
        executor = FeatureTransferExecutor(
            ctx, model, dataset, layers, config,
            downstream_fn=lambda f, l: {},
        )
        out[label] = executor.run(plan).metrics["inference_flops"]
    return out


@pytest.fixture(scope="module")
def static_results():
    return {m: static_redundancy(m) for m in
            ("alexnet", "vgg16", "resnet50")}


@pytest.fixture(scope="module")
def measured():
    return {
        m: measured_ratios(m, {"alexnet": 4, "vgg16": 3,
                               "resnet50": 5}[m])
        for m in ("alexnet", "vgg16", "resnet50")
    }


def test_redundancy_tables(static_results, measured, benchmark):
    benchmark(lambda: measured_ratios("alexnet", 2))
    for model, by_k in static_results.items():
        rows = [
            [k, f"{lazy / 1e9:.2f}", f"{staged / 1e9:.2f}",
             f"{redundant / lazy * 100:.0f}%"]
            for k, (lazy, staged, redundant) in sorted(by_k.items())
        ]
        print_table(
            f"Redundancy ablation — {model}: per-image GFLOPs",
            ["#layers", "Lazy", "Staged", "redundant"], rows,
        )
    rows = [
        [model, flops["lazy"], flops["staged"], flops["eager"],
         f"{flops['lazy'] / flops['staged']:.2f}x"]
        for model, flops in measured.items()
    ]
    print_table(
        "Redundancy ablation — measured FLOPs on the mini engine",
        ["CNN", "Lazy", "Staged", "Eager", "Lazy/Staged"], rows,
    )


def test_staged_eager_identical_flops(measured):
    for model, flops in measured.items():
        assert flops["staged"] == flops["eager"], model


def test_lazy_ratio_grows_with_layer_count(static_results):
    for model, by_k in static_results.items():
        ratios = [
            lazy / staged for _, (lazy, staged, _) in sorted(by_k.items())
        ]
        assert all(b >= a for a, b in zip(ratios, ratios[1:])), model


def test_lazy_ratio_near_layer_count_for_top_heavy_sets(static_results):
    """For layer sets clustered at the top of the network (AlexNet's
    fc7/fc8, VGG's fc stack), each extra Lazy pass costs ~a full
    inference: ratio ~= |L|."""
    lazy, staged, _ = static_results["vgg16"][3]
    assert lazy / staged > 2.9


def test_static_and_measured_ratios_agree_in_shape(static_results,
                                                   measured):
    """Mini models share the chain structure, so Lazy/Staged measured
    on them must exceed 1 and be largest for the CNN whose static
    ratio is largest."""
    static_ratio = {
        m: by_k[max(by_k)][0] / by_k[max(by_k)][1]
        for m, by_k in static_results.items()
    }
    measured_ratio = {
        m: flops["lazy"] / flops["staged"] for m, flops in measured.items()
    }
    assert all(r > 1.0 for r in measured_ratio.values())
    assert max(static_ratio, key=static_ratio.get) \
        == max(measured_ratio, key=measured_ratio.get)
