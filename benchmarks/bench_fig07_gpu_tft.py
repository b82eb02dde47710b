"""Figure 7: (A) end-to-end on a GPU workstation; (B) TFT+Beam vs
Vista on Foods/ResNet50 varying the number of explored layers.

Shape invariants (Section 5.1):
  (A) Lazy-5 and Lazy-7 crash with VGG16 on the 12 GB GPU; Eager takes
      significantly longer than Vista for ResNet50 (disk spills);
  (B) with one layer TFT+Beam is slightly faster than Vista, but as
      the layer count grows Vista clearly outperforms it (all-layers-
      in-one-go puts memory pressure on Flink -> spills).
"""

import pytest

from harness import FOODS, fmt_minutes, paper_workload, print_table
from repro.core.config import Resources
from repro.core.optimizer import optimize
from repro.core.plans import EAGER, LAZY, STAGED
from repro.costmodel import (
    estimate_plan,
    flink_setup,
    gpu_workstation,
    spark_default_setup,
    vista_setup,
)
from repro.costmodel.crashes import manual_setup
from repro.memory.model import GB

GPU_CLUSTER = gpu_workstation()
GPU_RESOURCES = Resources(1, 32 * GB, 8, gpu_memory_bytes=12 * GB)
APPROACHES = ["Lazy-1", "Lazy-5", "Lazy-7", "Eager", "Vista"]


def gpu_cell(model_name, approach):
    workload = paper_workload(model_name)
    if approach.startswith("Lazy"):
        cpu = int(approach.split("-")[1])
        setup = spark_default_setup(cpu, FOODS.num_records)
        return estimate_plan(
            workload, LAZY, setup, GPU_CLUSTER, use_gpu=True
        )
    if approach == "Eager":
        setup = manual_setup(workload, 5, label="eager")
        return estimate_plan(
            workload, EAGER, setup, GPU_CLUSTER, use_gpu=True
        )
    config = optimize(workload, GPU_RESOURCES)
    return estimate_plan(
        workload, STAGED, vista_setup(config), GPU_CLUSTER, use_gpu=True,
    )


@pytest.fixture(scope="module")
def gpu_matrix():
    return {
        (model, approach): gpu_cell(model, approach)
        for model in ("alexnet", "vgg16", "resnet50")
        for approach in APPROACHES
    }


def tft_beam_runtime(num_layers):
    """TFT+Beam modelled as the Eager plan on the hand-tuned Flink
    configuration (Section 5.1's comparison setup)."""
    workload = paper_workload("resnet50", num_layers=num_layers)
    return estimate_plan(workload, EAGER, flink_setup(), gpu_workstation())


def vista_runtime(num_layers):
    workload = paper_workload("resnet50", num_layers=num_layers)
    config = optimize(workload, GPU_RESOURCES)
    return estimate_plan(
        workload, STAGED, vista_setup(config), gpu_workstation()
    )


@pytest.fixture(scope="module")
def tft_series():
    return {
        k: (tft_beam_runtime(k), vista_runtime(k)) for k in range(1, 6)
    }


def test_fig07a_gpu_matrix(gpu_matrix, benchmark):
    benchmark(lambda: gpu_cell("resnet50", "Vista"))
    rows = [
        [model] + [fmt_minutes(gpu_matrix[(model, a)]) for a in APPROACHES]
        for model in ("alexnet", "vgg16", "resnet50")
    ]
    print_table(
        "Figure 7(A) — Foods on GPU workstation (minutes, X = crash)",
        ["CNN"] + APPROACHES, rows,
    )


def test_fig07a_vgg_crashes_at_5_plus_threads(gpu_matrix):
    assert gpu_matrix[("vgg16", "Lazy-5")].crashed
    assert gpu_matrix[("vgg16", "Lazy-7")].crashed
    assert not gpu_matrix[("vgg16", "Lazy-1")].crashed


def test_fig07a_only_vgg_crashes(gpu_matrix):
    for model in ("alexnet", "resnet50"):
        for approach in APPROACHES:
            assert not gpu_matrix[(model, approach)].crashed, (model,
                                                               approach)


def test_fig07a_eager_resnet_much_slower_than_vista(gpu_matrix):
    eager = gpu_matrix[("resnet50", "Eager")]
    vista = gpu_matrix[("resnet50", "Vista")]
    assert eager.seconds > 1.5 * vista.seconds
    assert eager.spilled_bytes > 0


def test_fig07a_vista_never_crashes(gpu_matrix):
    for model in ("alexnet", "vgg16", "resnet50"):
        assert not gpu_matrix[(model, "Vista")].crashed


def test_fig07b_tft_beam_curve(tft_series, benchmark):
    benchmark(lambda: tft_beam_runtime(3))
    rows = [
        [k, f"{tft.minutes:.1f}", f"{vista.minutes:.1f}"]
        for k, (tft, vista) in sorted(tft_series.items())
    ]
    print_table(
        "Figure 7(B) — TFT+Beam vs Vista, Foods/ResNet50 (minutes)",
        ["#layers", "TFT+Beam", "Vista"], rows,
    )


def test_fig07b_crossover(tft_series):
    """One layer: TFT+Beam competitive; many layers: Vista wins
    clearly."""
    tft1, vista1 = tft_series[1]
    assert tft1.seconds < 1.3 * vista1.seconds  # competitive at k=1
    tft5, vista5 = tft_series[5]
    assert vista5.seconds < tft5.seconds  # Vista wins at k=5


def test_fig07b_gap_grows_with_layers(tft_series):
    gaps = [
        tft.seconds - vista.seconds
        for _, (tft, vista) in sorted(tft_series.items())
    ]
    assert gaps[-1] > gaps[0]
