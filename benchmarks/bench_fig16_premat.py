"""Table 2 + Figure 16 (Appendix B): pre-materializing a base layer.

Table 2: sizes of pre-materialized feature layers for Foods (raw
images are ~0.26 GB); ResNet50's 5th-from-top layer is an order of
magnitude larger than the images.

Figure 16: workload runtime when each explored layer set starts from a
pre-materialized base layer vs from raw images.

Shape invariants:
  - feature layer sizes grow toward lower layers, and ResNet50's
    conv4_6 is far larger than the raw images;
  - premat helps AlexNet/VGG16 (cheap bases, big redundancy savings);
  - for ResNet50 starting from the huge 5th layer may NOT pay off
    (I/O of ~11.5 GB features vs recomputing), the paper's caveat.
"""

import pytest

from harness import FOODS, paper_workload, print_table
from repro.core.plans import STAGED
from repro.costmodel import (
    cloudlab_cluster,
    estimate_plan,
    estimate_premat_runtime,
)
from repro.costmodel.crashes import manual_setup
from repro.memory.model import GB

CLUSTER = cloudlab_cluster()
RAW_IMAGES_GB = FOODS.num_records * FOODS.avg_image_bytes / GB


def layer_sizes(model_name):
    workload = paper_workload(model_name)
    return {
        layer: workload.model_stats.materialized_bytes(layer)
        * FOODS.num_records
        for layer in workload.layers
    }


def premat_comparison(model_name, num_layers):
    """Runtime exploring the top ``num_layers`` layers, without and
    with pre-materialization of the lowest of them."""
    workload = paper_workload(model_name, num_layers=num_layers)
    setup = manual_setup(workload, 4, label="premat")
    plain = estimate_plan(workload, STAGED, setup, CLUSTER)
    pre, main = estimate_premat_runtime(workload, STAGED, setup, CLUSTER)
    return plain, pre, main


@pytest.fixture(scope="module")
def sizes():
    return {m: layer_sizes(m) for m in ("alexnet", "vgg16", "resnet50")}


@pytest.fixture(scope="module")
def comparisons():
    out = {}
    for model in ("alexnet", "vgg16", "resnet50"):
        for k in range(1, len(paper_workload(model).layers) + 1):
            out[(model, k)] = premat_comparison(model, k)
    return out


def test_table2_sizes(sizes, benchmark):
    benchmark(lambda: layer_sizes("resnet50"))
    rows = []
    for model, by_layer in sizes.items():
        for layer, nbytes in by_layer.items():
            rows.append([model, layer, f"{nbytes / GB:.2f}"])
    rows.append(["(raw images)", "-", f"{RAW_IMAGES_GB:.2f}"])
    print_table(
        "Table 2 — pre-materialized feature layer sizes, Foods (GB)",
        ["CNN", "layer", "size"], rows,
    )


def test_fig16_runtimes(comparisons):
    for model in ("alexnet", "vgg16", "resnet50"):
        rows = []
        for (m, k), (plain, pre, main) in sorted(comparisons.items()):
            if m != model:
                continue
            rows.append([
                f"{k}L", f"{plain.minutes:.1f}",
                f"{(pre.seconds + main.seconds) / 60:.1f}",
                f"{main.minutes:.1f}",
            ])
        print_table(
            f"Figure 16 — {model}: runtime (min) without premat / "
            "with premat incl. materialization / with premat excl.",
            ["layers", "no premat", "premat(total)", "premat(reuse)"],
            rows,
        )


def test_resnet_conv4_6_dwarfs_raw_images(sizes):
    assert sizes["resnet50"]["conv4_6"] > 30 * RAW_IMAGES_GB * GB


def test_fc_layers_small(sizes):
    """Top fc layers are ~0.08-0.3 GB at 20k records."""
    assert sizes["alexnet"]["fc8"] < 0.1 * GB
    assert sizes["vgg16"]["fc8"] < 0.1 * GB


def test_sizes_grow_toward_lower_layers(sizes):
    for model, by_layer in sizes.items():
        ordered = list(by_layer.values())
        # lowest explored layer is the largest
        assert ordered[0] == max(ordered)


def test_premat_reuse_faster_than_scratch(comparisons):
    """Once materialized, starting from the base layer beats
    recomputing from raw images for every CNN."""
    for model in ("alexnet", "vgg16", "resnet50"):
        layers = paper_workload(model).layers
        plain, _, main = comparisons[(model, len(layers))]
        assert main.seconds < plain.seconds, model


def test_resnet_premat_total_may_not_pay_off(comparisons):
    """Appendix B's caveat: including the materialization cost itself,
    pre-materializing ResNet50's ~11.5 GB 5th layer has the WORST
    total-cost ratio of the three CNNs (writing/reading the huge
    feature table eats the redundancy savings)."""
    ratios = {}
    for model in ("alexnet", "vgg16", "resnet50"):
        layers = paper_workload(model).layers
        plain, pre, main = comparisons[(model, len(layers))]
        ratios[model] = (pre.seconds + main.seconds) / plain.seconds
    assert ratios["resnet50"] > ratios["alexnet"]
    assert ratios["resnet50"] > ratios["vgg16"]
    assert ratios["resnet50"] > 1.0  # premat does NOT pay off in total
