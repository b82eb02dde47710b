"""Monotonicity and golden tests for the cost-model terms the
calibration pipeline prices: runtime estimates must move the right way
as the workload grows, and Eq. 16 must produce the exact bytes the
tracer's sizing comparison assumes."""

import pytest

from repro.cnn import build_model, get_model_stats
from repro.core.config import DatasetStats, Workload
from repro.core.plans import LAZY, STAGED
from repro.core.sizing import estimate_sizes
from repro.costmodel import estimate_plan
from repro.costmodel.crashes import manual_setup
from repro.costmodel.io_cost import (
    image_read_seconds,
    task_overhead_seconds,
    training_seconds,
)
from repro.costmodel.params import cloudlab_cluster

CLUSTER = cloudlab_cluster()
STATS = get_model_stats("alexnet")
LAYERS = STATS.top_feature_layers(4)


def _stats(num_records=20_000, num_structured_features=130):
    return DatasetStats(
        num_records=num_records,
        num_structured_features=num_structured_features,
        avg_image_bytes=14 * 1024,
    )


def _runtime(dataset_stats, layers=LAYERS, plan=STAGED, cpu=4):
    workload = Workload(STATS, layers, dataset_stats)
    setup = manual_setup(workload, cpu)
    return estimate_plan(workload, plan, setup, CLUSTER)


class TestRuntimeMonotonicity:
    def test_grows_with_record_count(self):
        seconds = [
            _runtime(_stats(num_records=n)).seconds
            for n in (5_000, 20_000, 80_000)
        ]
        assert seconds == sorted(seconds)
        assert seconds[0] < seconds[-1]

    def test_grows_with_layer_depth(self):
        ds = _stats()
        seconds = [
            _runtime(ds, layers=LAYERS[:k]).seconds
            for k in range(1, len(LAYERS) + 1)
        ]
        assert seconds == sorted(seconds)

    def test_lazy_inference_dominates_staged(self):
        """Lazy re-runs every prefix, so its inference term can never
        be cheaper than Staged's single deepest pass."""
        ds = _stats()
        lazy = _runtime(ds, plan=LAZY).breakdown["inference"]
        staged = _runtime(ds, plan=STAGED).breakdown["inference"]
        assert lazy >= staged

    def test_overhead_grows_with_partition_count(self):
        workload = Workload(STATS, LAYERS, _stats())
        small = manual_setup(workload, 4)
        large = small.with_(num_partitions=small.num_partitions * 8)
        overhead_small = estimate_plan(
            workload, STAGED, small, CLUSTER
        ).breakdown["overhead"]
        overhead_large = estimate_plan(
            workload, STAGED, large, CLUSTER
        ).breakdown["overhead"]
        assert overhead_large > overhead_small


class TestIOCostMonotonicity:
    def test_image_read_grows_with_image_count(self):
        counts = (1_000, 20_000, 200_000)
        seconds = [image_read_seconds(n, CLUSTER) for n in counts]
        assert seconds == sorted(seconds)
        # per-file latency dominated: linear in the file count
        assert seconds[2] == pytest.approx(10 * seconds[1])

    def test_task_overhead_grows_with_task_count(self):
        seconds = [
            task_overhead_seconds(n, 160, CLUSTER, 4)
            for n in (160, 1_600, 16_000)
        ]
        assert seconds == sorted(seconds)
        assert seconds[0] < seconds[-1]

    def test_training_grows_with_records_and_width(self):
        base = training_seconds(20_000, 4_000, 160, CLUSTER, 4)
        assert training_seconds(80_000, 4_000, 160, CLUSTER, 4) > base
        assert training_seconds(20_000, 16_000, 160, CLUSTER, 4) > base


class TestEq16Golden:
    """Eq. 16 on the executable mini AlexNet, against hand-computed
    bytes: |T_i| = alpha * n * (8 + 8 + 4*flat_dim) + |Tstr| with
    alpha=2, n=24, |Tstr| = 24 * (8+8+8+4*10+8) = 1728, and flat dims
    conv5=128, fc6=fc7=32, fc8=10."""

    GOLDEN = {"conv5": 27072, "fc6": 8640, "fc7": 8640, "fc8": 4416}

    def test_mini_alexnet_estimates(self):
        cnn = build_model("alexnet", profile="mini")
        ds = _stats(num_records=24, num_structured_features=10)
        estimates = estimate_sizes(
            Workload(cnn.stats, ["conv5", "fc6", "fc7", "fc8"], ds)
        ).intermediate_table_bytes
        assert estimates == self.GOLDEN

    def test_matches_roster_formula_shape(self):
        """Executable and roster stats price the same record layout
        through the same Eq. 16: the two differ by the flat dims
        alone."""
        cnn = build_model("alexnet", profile="mini")
        ds = _stats(num_records=24, num_structured_features=10)
        report = estimate_sizes(Workload(STATS, ["fc8"], ds))
        # roster fc8 flat dim is 1000 (ImageNet logits) vs mini's 10:
        # the difference must be exactly alpha * n * 4 * (1000 - 10)
        mini = estimate_sizes(
            Workload(cnn.stats, ["fc8"], ds)
        ).intermediate_table_bytes["fc8"]
        roster = report.intermediate_table_bytes["fc8"]
        assert roster - mini == 2 * 24 * 4 * (1000 - 10)

    def test_s_double_drops_one_tstr(self):
        ds = _stats(num_records=24, num_structured_features=10)
        report = estimate_sizes(Workload(STATS, ["fc7", "fc8"], ds))
        sizes = report.intermediate_table_bytes
        assert report.s_single == max(sizes.values())
        assert report.s_double == (
            sizes["fc7"] + sizes["fc8"] - ds.structured_table_bytes()
        )
