"""Unit tests for the cost model's component terms (the plan walk's
FLOPs, cnn_cost, io_cost, params) — the pieces the runtime estimator
composes."""

import pytest

from repro.cnn import get_model_stats
from repro.cnn.zoo.roster import MODEL_ROSTER
from repro.core.config import DatasetStats, Workload
from repro.core.plans import EAGER, LAZY, STAGED, Op
from repro.costmodel import params
from repro.costmodel.cnn_cost import inference_seconds
from repro.costmodel.runtime import walk_plan
from repro.costmodel.io_cost import (
    broadcast_seconds,
    image_read_seconds,
    serde_seconds,
    shuffle_seconds,
    spill_seconds,
    task_overhead_seconds,
    training_seconds,
)
from repro.costmodel.params import cloudlab_cluster, gpu_workstation
from repro.memory.model import GB

CLUSTER = cloudlab_cluster()
STATS = get_model_stats("alexnet")
LAYERS = STATS.feature_layers


def _infer_flops(plan, base_layer=None):
    """``{INFER step's last layer: FLOPs per image}`` of the walk."""
    walk = walk_plan(
        Workload(STATS, LAYERS, DatasetStats(100, 10, 1024), base_layer),
        plan,
    )
    return {row.step.outputs[-1][0]: row.flops
            for row in walk.rows if row.step.op is Op.INFER}


class TestPlanFlops:
    def test_lazy_is_sum_of_paths(self):
        expected = sum(
            STATS.layer_stats(layer).flops_from_input for layer in LAYERS
        )
        assert sum(_infer_flops(LAZY).values()) == expected

    def test_staged_is_deepest_path(self):
        assert sum(_infer_flops(STAGED).values()) == STATS.layer_stats(
            LAYERS[-1]
        ).flops_from_input

    def test_eager_equals_staged(self):
        assert sum(_infer_flops(EAGER).values()) \
            == sum(_infer_flops(STAGED).values())

    def test_base_layer_subtracts_prefix(self):
        full = sum(_infer_flops(STAGED).values())
        from_base = sum(_infer_flops(STAGED, base_layer=LAYERS[0]).values())
        assert from_base < full
        prefix = STATS.layer_stats(LAYERS[0]).flops_from_input
        assert full - from_base == prefix

    def test_per_layer_breakdown_sums_to_plan_total(self):
        per_layer = _infer_flops(STAGED)
        assert list(per_layer) == LAYERS
        assert sum(per_layer.values()) == STATS.layer_stats(
            LAYERS[-1]
        ).flops_from_input

    def test_per_layer_lazy_entries_are_full_paths(self):
        for layer, flops in _infer_flops(LAZY).items():
            assert flops == STATS.layer_stats(layer).flops_from_input


class TestInferenceSeconds:
    def test_scales_inversely_with_nodes(self):
        one = inference_seconds(1e13, "alexnet", cloudlab_cluster(1), 4)
        eight = inference_seconds(1e13, "alexnet", cloudlab_cluster(8), 4)
        assert one / eight == pytest.approx(8.0)

    def test_gpu_uses_gpu_throughput(self):
        cpu = inference_seconds(1e13, "resnet50", gpu_workstation(), 4)
        gpu = inference_seconds(
            1e13, "resnet50", gpu_workstation(), 4, use_gpu=True
        )
        assert gpu < cpu

    def test_model_efficiency_applied(self):
        vgg = inference_seconds(1e13, "vgg16", CLUSTER, 4)
        resnet = inference_seconds(1e13, "resnet50", CLUSTER, 4)
        assert vgg < resnet  # VGG runs closer to peak per FLOP


class TestIOCosts:
    def test_image_read_sublinear(self):
        t1 = image_read_seconds(20_000, cloudlab_cluster(1))
        t8 = image_read_seconds(20_000, cloudlab_cluster(8))
        assert 1 < t1 / t8 < 8

    def test_image_read_anchor(self):
        """Table 3: ~3.7 min to read Foods' 20k images on one node."""
        minutes = image_read_seconds(20_000, cloudlab_cluster(1)) / 60
        assert 3 < minutes < 5

    def test_shuffle_scales_with_bytes_and_nodes(self):
        assert shuffle_seconds(2 * GB, CLUSTER) == pytest.approx(
            2 * shuffle_seconds(1 * GB, CLUSTER)
        )
        assert shuffle_seconds(1 * GB, cloudlab_cluster(1)) > \
            shuffle_seconds(1 * GB, cloudlab_cluster(8))

    def test_broadcast_independent_of_node_count(self):
        assert broadcast_seconds(1 * GB, cloudlab_cluster(2)) == \
            broadcast_seconds(1 * GB, cloudlab_cluster(8))

    def test_spill_counts_write_plus_rereads(self):
        once = spill_seconds(10 * GB, CLUSTER, reread_passes=1)
        thrice = spill_seconds(10 * GB, CLUSTER, reread_passes=3)
        assert thrice == pytest.approx(2 * once)

    def test_serde_scales_with_cores(self):
        slow = serde_seconds(10 * GB, CLUSTER, 1)
        fast = serde_seconds(10 * GB, CLUSTER, 4)
        assert slow / fast == pytest.approx(4.0)

    def test_task_overhead_penalty_above_threshold(self):
        below = task_overhead_seconds(1000, 1000, CLUSTER, 4)
        above = task_overhead_seconds(1000, 3000, CLUSTER, 4)
        assert above > below

    def test_training_grows_with_iterations(self):
        five = training_seconds(20_000, 4000, 160, CLUSTER, 4, iterations=5)
        ten = training_seconds(20_000, 4000, 160, CLUSTER, 4, iterations=10)
        assert ten > five


class TestParams:
    def test_cpu_speedup_monotone(self):
        values = [params.cpu_speedup(c) for c in range(1, 9)]
        assert values == sorted(values)
        assert values[0] == 1.0

    def test_serialized_ratios_alexnet_compresses_hardest(self):
        ratios = {name: stats.serialized_ratio
                  for name, stats in MODEL_ROSTER.items()}
        assert ratios["alexnet"] < ratios["resnet50"] <= ratios["vgg16"]

    def test_gpu_workstation_spec(self):
        spec = gpu_workstation()
        assert spec.has_gpu
        assert spec.num_nodes == 1
        assert spec.gpu_memory_bytes == 12 * GB

    def test_cloudlab_spec(self):
        spec = cloudlab_cluster()
        assert not spec.has_gpu
        assert spec.num_nodes == 8
        assert spec.system_memory_bytes == 32 * GB
