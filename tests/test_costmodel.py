"""Unit tests for the calibrated cost model: crash prediction and
runtime shapes matching the paper's narrative."""

import math

import pytest

from repro.cnn import build_model, get_model_stats
from repro.cnn.zoo.densenet import build_densenet_mini
from repro.core.api import Vista
from repro.core.config import DatasetStats, Resources, Workload
from repro.core.optimizer import optimize
from repro.core.plans import ALL_PLANS, EAGER, LAZY, LAZY_REORDERED, STAGED
from repro.costmodel import (
    CRASH_DL,
    CRASH_DL_GPU,
    CRASH_STORAGE,
    CRASH_USER,
    cloudlab_cluster,
    detect_crash,
    estimate_plan,
    estimate_premat_runtime,
    estimate_runtime,
    gpu_workstation,
    ignite_default_setup,
    per_layer_breakdown,
    spark_default_setup,
    vista_setup,
)
from repro.costmodel import params
from repro.costmodel.cnn_cost import executable_model_stats
from repro.costmodel.crashes import ExecutionSetup, manual_setup
from repro.data import foods_dataset
from repro.explain.whatif import cluster_from_resources
from repro.memory.model import GB


def _workload(model, ds):
    stats = get_model_stats(model)
    counts = {"alexnet": 4, "vgg16": 3, "resnet50": 5}
    return Workload(stats, stats.top_feature_layers(counts[model]), ds)


CLUSTER = cloudlab_cluster()


class TestCrashPrediction:
    def test_vgg_lazy_5_and_7_crash_on_spark(self, foods_stats,
                                             amazon_stats):
        for ds in (foods_stats, amazon_stats):
            for cpu in (5, 7):
                setup = spark_default_setup(cpu, ds.num_records)
                assert detect_crash(
                    _workload("vgg16", ds), LAZY, setup, CLUSTER
                ) == CRASH_DL

    def test_vgg_lazy_1_completes(self, foods_stats):
        setup = spark_default_setup(1, foods_stats.num_records)
        assert detect_crash(
            _workload("vgg16", foods_stats), LAZY, setup, CLUSTER
        ) is None

    def test_alexnet_and_resnet_lazy_complete_on_spark(self, foods_stats,
                                                       amazon_stats):
        """Spark crashes only VGG16 (Section 5.1)."""
        for model in ("alexnet", "resnet50"):
            for ds in (foods_stats, amazon_stats):
                for cpu in (1, 5, 7):
                    setup = spark_default_setup(cpu, ds.num_records)
                    assert detect_crash(
                        _workload(model, ds), LAZY, setup, CLUSTER,
                    ) is None, (model, cpu)

    def test_ignite_lazy_7_crashes_all_models_on_amazon(self,
                                                        amazon_stats):
        for model in ("alexnet", "vgg16", "resnet50"):
            crash = detect_crash(
                _workload(model, amazon_stats), LAZY,
                ignite_default_setup(7), CLUSTER,
            )
            assert crash is not None, model

    def test_ignite_lazy_7_resnet_crashes_on_foods(self, foods_stats):
        assert detect_crash(
            _workload("resnet50", foods_stats), LAZY,
            ignite_default_setup(7), CLUSTER,
        ) == CRASH_USER

    def test_ignite_lazy_7_alexnet_completes_on_foods(self, foods_stats):
        assert detect_crash(
            _workload("alexnet", foods_stats), LAZY,
            ignite_default_setup(7), CLUSTER,
        ) is None

    def test_eager_crashes_ignite_amazon_resnet(self, amazon_stats):
        workload = _workload("resnet50", amazon_stats)
        setup = manual_setup(workload, 5, backend="ignite")
        assert detect_crash(
            workload, EAGER, setup, CLUSTER,
        ) == CRASH_STORAGE

    def test_eager_completes_ignite_amazon_alexnet(self, amazon_stats):
        workload = _workload("alexnet", amazon_stats)
        setup = manual_setup(workload, 5, backend="ignite")
        assert detect_crash(
            workload, EAGER, setup, CLUSTER,
        ) is None

    @pytest.mark.parametrize("model", ["alexnet", "vgg16", "resnet50"])
    @pytest.mark.parametrize("backend", ["spark", "ignite"])
    def test_vista_never_crashes(self, model, backend, paper_resources,
                                 foods_stats, amazon_stats):
        """The headline reliability claim, on every Figure 6 cell."""
        for ds in (foods_stats, amazon_stats):
            workload = _workload(model, ds)
            config = optimize(workload, paper_resources)
            setup = vista_setup(config, backend=backend)
            assert detect_crash(
                workload, STAGED, setup, CLUSTER
            ) is None, (model, backend, ds.num_records)

    def test_gpu_vgg_crashes_at_5_threads(self, foods_stats):
        setup = spark_default_setup(5, foods_stats.num_records)
        assert detect_crash(
            _workload("vgg16", foods_stats), LAZY, setup,
            gpu_workstation(), use_gpu=True,
        ) == CRASH_DL_GPU

    def test_gpu_resnet_survives_7_threads(self, foods_stats):
        setup = spark_default_setup(7, foods_stats.num_records)
        assert detect_crash(
            _workload("resnet50", foods_stats), LAZY, setup,
            gpu_workstation(), use_gpu=True,
        ) is None


class TestRuntimeShapes:
    def _vista(self, model, ds, paper_resources, backend="spark"):
        workload = _workload(model, ds)
        config = optimize(workload, paper_resources)
        return estimate_plan(
            workload, STAGED, vista_setup(config, backend=backend), CLUSTER,
        )

    def test_vista_beats_lazy1_by_paper_range(self, paper_resources,
                                              foods_stats, amazon_stats):
        """'Vista ... reduces runtimes by 58% to 92% compared to
        baselines' — check the reduction vs Lazy-1 lands in a sane
        band (we allow 50-95%)."""
        for model in ("alexnet", "vgg16", "resnet50"):
            for ds in (foods_stats, amazon_stats):
                lazy1 = estimate_plan(
                    _workload(model, ds), LAZY,
                    spark_default_setup(1, ds.num_records), CLUSTER,
                )
                vista = self._vista(model, ds, paper_resources)
                reduction = 1 - vista.seconds / lazy1.seconds
                assert 0.5 < reduction < 0.95, (model, reduction)

    def test_eager_spills_hurt_on_amazon_resnet(self, paper_resources,
                                                amazon_stats):
        """Figure 6: 'Eager incurs significant overheads due to costly
        disk spills' on Spark/Amazon/ResNet50."""
        workload = _workload("resnet50", amazon_stats)
        setup = manual_setup(workload, 5)
        eager = estimate_plan(workload, EAGER, setup, CLUSTER)
        vista = self._vista("resnet50", amazon_stats, paper_resources)
        assert eager.spilled_bytes > 0
        assert eager.seconds > 1.5 * vista.seconds

    def test_eager_comparable_when_data_fits(self, paper_resources,
                                             foods_stats):
        """'When Eager does not crash and the intermediate data fits in
        memory, its efficiency is comparable to Vista.'"""
        workload = _workload("alexnet", foods_stats)
        setup = manual_setup(workload, 5)
        eager = estimate_plan(workload, EAGER, setup, CLUSTER)
        vista = self._vista("alexnet", foods_stats, paper_resources)
        assert eager.seconds < 1.3 * vista.seconds

    def test_lazy_reordered_join_cost_lower_at_scale(self, amazon_stats):
        """Pulling the join below inference shrinks shuffle volume when
        features outweigh images (Section 4.2.1)."""
        workload = _workload("resnet50", amazon_stats)
        setup = spark_default_setup(5, amazon_stats.num_records)
        bj = estimate_plan(workload, LAZY, setup, CLUSTER)
        aj = estimate_plan(workload, LAZY_REORDERED, setup, CLUSTER)
        assert aj.breakdown["join"] < bj.breakdown["join"]

    def test_premat_helps_alexnet_but_not_resnet_base5(self, foods_stats):
        """Appendix B: pre-materializing helps when the base layer is
        cheap to store; ResNet's 5th-from-top layer is ~11.5 GB and may
        not pay off."""
        workload = _workload("alexnet", foods_stats)
        setup = manual_setup(workload, 5)
        pre, main = estimate_premat_runtime(workload, LAZY, setup, CLUSTER)
        plain = estimate_plan(workload, LAZY, setup, CLUSTER)
        assert main.seconds < plain.seconds

    def test_table3_resnet_anchor(self, foods_stats):
        """Calibration anchor: ResNet50/Foods layer-5 inference + first
        LR iteration ~19 min on one node at cpu=4 (Table 3)."""
        workload = _workload("resnet50", foods_stats)
        setup = manual_setup(workload, 4)
        rows, read = per_layer_breakdown(
            workload, setup, cloudlab_cluster(1)
        )
        minutes = rows["conv4_6"] / 60
        assert 13 < minutes < 25

    def test_read_time_sublinear_in_nodes(self, foods_stats):
        """Table 3: image reads speed up sub-linearly (small files)."""
        workload = _workload("alexnet", foods_stats)
        setup = manual_setup(workload, 4)
        t1 = estimate_plan(
            workload, STAGED, setup, cloudlab_cluster(1)
        ).breakdown["read"]
        t8 = estimate_plan(
            workload, STAGED, setup, cloudlab_cluster(8)
        ).breakdown["read"]
        assert 3 < t1 / t8 < 8  # sub-linear: less than 8x on 8 nodes

    def test_gpu_faster_than_cpu(self, foods_stats):
        workload = _workload("resnet50", foods_stats)
        setup = manual_setup(workload, 5)
        cpu_run = estimate_plan(workload, STAGED, setup, CLUSTER)
        gpu_run = estimate_plan(
            workload, STAGED, setup, gpu_workstation(), use_gpu=True,
        )
        assert gpu_run.breakdown["inference"] < cpu_run.breakdown["inference"]

    def test_crashed_report_has_infinite_seconds(self, foods_stats):
        report = estimate_plan(
            _workload("vgg16", foods_stats), LAZY,
            spark_default_setup(7, foods_stats.num_records), CLUSTER,
        )
        assert report.crashed
        assert math.isinf(report.seconds)
        assert report.cell() == "X"

    def test_cpu_speedup_plateaus(self):
        """Figure 12(C): speedup vs cpu flattens around 4 cores."""
        s4 = params.cpu_speedup(4)
        s8 = params.cpu_speedup(8)
        assert s4 > 2.0
        assert s8 / s4 < 1.35

    def test_densenet_spill_uses_its_own_serialized_ratio(self):
        """DenseNet-mini is not a roster model: its statistics carry
        the 0.4 serialized ratio, and its spill is priced with that
        ratio (Staged, serialized, 200k records, 1 B of Storage on one
        node) — not with a 0.45 fallback keyed by model name."""
        stats = build_densenet_mini().stats
        assert stats.serialized_ratio == 0.4
        setup = ExecutionSetup(
            label="squeezed", backend="spark", cpu=1, num_partitions=2000,
            join="shuffle", persistence="serialized", heap_bytes=8 * GB,
            user_cap_bytes=4 * GB, core_cap_bytes=2 * GB,
            storage_cap_bytes=1, storage_spills=True,
        )
        report = estimate_plan(
            Workload(stats, stats.feature_layers,
                     DatasetStats(200_000, 130, 14 * 1024)),
            STAGED, setup, cloudlab_cluster(1),
        )
        assert report.crash is None
        assert report.spilled_bytes == 843_839_999

    def test_large_np_overhead_penalty(self, foods_stats):
        """Figure 11(B): np > 2000 triggers status-compression
        overhead."""
        workload = _workload("alexnet", foods_stats)
        small = manual_setup(workload, 4).with_(num_partitions=1000)
        large = small.with_(num_partitions=4000)
        t_small = estimate_plan(workload, STAGED, small, CLUSTER)
        t_large = estimate_plan(workload, STAGED, large, CLUSTER)
        assert t_large.breakdown["overhead"] > 4 * t_small.breakdown["overhead"]


def test_estimate_runtime_keeps_the_loose_statistics_call_shape():
    """``estimate_runtime`` prices a plan from loose statistics, called
    positionally exactly as ``benchmarks/e2e/layers.py::predicted_seconds``
    calls it (executable AlexNet-mini stats, ``vista.dataset_stats``, a
    pre-materialized ``conv5``); on every plan it reports what the
    record form, :func:`estimate_plan`, reports."""
    resources = Resources(
        num_nodes=1, system_memory_bytes=32 * GB, cores_per_node=3
    )
    vista = Vista("alexnet", 3, foods_dataset(num_records=24), resources)
    setup = vista_setup(vista.optimize())
    stats = executable_model_stats(build_model("alexnet", profile="mini"))
    cluster = cluster_from_resources(resources)
    workload = Workload(stats, vista.layers, vista.dataset_stats, "conv5")
    for plan in ALL_PLANS.values():
        report = estimate_runtime(
            stats, vista.layers, vista.dataset_stats, plan, setup,
            cluster, base_layer="conv5",
        )
        assert not report.crashed
        assert report == estimate_plan(workload, plan, setup, cluster)
