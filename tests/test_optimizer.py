"""Unit tests for Algorithm 1 — the Vista optimizer."""

import pytest

from repro.cnn import get_model_stats
from repro.core.config import (
    DEFAULT_CORE_MEMORY,
    DEFAULT_MAX_PARTITION,
    DEFAULT_OS_RESERVED,
    DatasetStats,
    DownstreamSpec,
    Resources,
    Workload,
)
from repro.core.optimizer import (
    downstream_mem_bytes,
    num_partitions_for,
    optimize,
    user_memory_requirement,
)
from repro.exceptions import NoFeasiblePlan
from repro.memory.model import GB, MB


class TestNumPartitions:
    def test_multiple_of_total_cores(self):
        np_ = num_partitions_for(10 * GB, 7, 8)
        assert np_ % (7 * 8) == 0

    def test_partitions_bounded_by_pmax(self):
        s_single = 50 * GB
        np_ = num_partitions_for(s_single, 4, 8)
        assert s_single / np_ <= 100 * MB

    def test_small_data_gets_one_wave(self):
        assert num_partitions_for(1 * MB, 4, 2) == 8


class TestPaperPicks:
    """Section 5.3: 'the Vista optimizer picks ... AlexNet: 7,
    VGG16: 4, and ResNet50: 7' on the 8-core, 32 GB nodes."""

    @pytest.mark.parametrize("model,nl,expected_cpu", [
        ("alexnet", 4, 7), ("vgg16", 3, 4), ("resnet50", 5, 7),
    ])
    def test_cpu_picks(self, model, nl, expected_cpu, paper_resources,
                       foods_stats):
        stats = get_model_stats(model)
        config = optimize(
            Workload(stats, stats.top_feature_layers(nl), foods_stats),
            paper_resources,
        )
        assert config.cpu == expected_cpu

    def test_broadcast_for_small_structured_table(self, paper_resources,
                                                  foods_stats):
        stats = get_model_stats("alexnet")
        config = optimize(
            Workload(stats, stats.top_feature_layers(4), foods_stats),
            paper_resources,
        )
        assert config.join == "broadcast"

    def test_shuffle_for_large_structured_table(self, paper_resources,
                                                amazon_stats):
        stats = get_model_stats("alexnet")
        config = optimize(
            Workload(stats, stats.top_feature_layers(4), amazon_stats),
            paper_resources,
        )
        assert config.join == "shuffle"

    def test_serialized_when_storage_cannot_hold_s_double(
        self, paper_resources, amazon_stats
    ):
        stats = get_model_stats("resnet50")
        config = optimize(
            Workload(stats, stats.top_feature_layers(5), amazon_stats),
            paper_resources,
        )
        assert config.persistence == "serialized"

    def test_deserialized_when_storage_suffices(self, paper_resources,
                                                foods_stats):
        stats = get_model_stats("alexnet")
        config = optimize(
            Workload(stats, stats.top_feature_layers(4), foods_stats),
            paper_resources,
        )
        assert config.persistence == "deserialized"


class TestConstraints:
    def test_eq9_cpu_leaves_a_core_for_os(self, paper_resources,
                                          foods_stats):
        for model in ("alexnet", "vgg16", "resnet50"):
            stats = get_model_stats(model)
            config = optimize(
                Workload(stats, stats.feature_layers, foods_stats),
                paper_resources,
            )
            assert 1 <= config.cpu <= 7

    def test_eq12_total_memory_respected(self, paper_resources,
                                         foods_stats):
        for model in ("alexnet", "vgg16", "resnet50"):
            stats = get_model_stats(model)
            config = optimize(
                Workload(stats, stats.feature_layers, foods_stats),
                paper_resources,
            )
            total = (
                DEFAULT_OS_RESERVED + config.mem_dl_bytes
                + config.mem_user_bytes + DEFAULT_CORE_MEMORY
                + config.mem_storage_bytes
            )
            assert total <= paper_resources.system_memory_bytes

    def test_eq13_np_multiple_of_workers(self, paper_resources,
                                         foods_stats):
        stats = get_model_stats("resnet50")
        config = optimize(
            Workload(stats, stats.feature_layers, foods_stats),
            paper_resources,
        )
        assert config.num_partitions % (
            config.cpu * paper_resources.num_nodes
        ) == 0

    def test_eq14_partition_size_bound(self, paper_resources, amazon_stats):
        stats = get_model_stats("resnet50")
        workload = Workload(stats, stats.feature_layers, amazon_stats)
        config = optimize(workload, paper_resources)
        sizing = workload.sizes
        assert sizing.s_single / config.num_partitions \
            <= DEFAULT_MAX_PARTITION * 1.01

    def test_eq15_gpu_constraint_lowers_cpu(self, foods_stats):
        gpu_res = Resources(1, 32 * GB, 8, gpu_memory_bytes=12 * GB)
        stats = get_model_stats("vgg16")
        config = optimize(
            Workload(stats, stats.feature_layers, foods_stats),
            gpu_res,
        )
        assert config.cpu * stats.gpu_mem_bytes < 12 * GB
        assert config.cpu <= 2

    def test_user_memory_covers_requirement(self, paper_resources,
                                            foods_stats):
        stats = get_model_stats("alexnet")
        workload = Workload(stats, stats.feature_layers, foods_stats)
        config = optimize(workload, paper_resources)
        m_mem = downstream_mem_bytes(workload)
        need = user_memory_requirement(
            workload, config.num_partitions, config.cpu, m_mem,
        )
        assert config.mem_user_bytes >= need


class TestInfeasibility:
    def test_tiny_nodes_raise_no_feasible_plan(self, foods_stats):
        small = Resources(8, 4 * GB, 8)
        stats = get_model_stats("vgg16")
        with pytest.raises(NoFeasiblePlan):
            optimize(Workload(stats, stats.feature_layers, foods_stats),
                     small)

    def test_downstream_in_dl_system_raises_dl_footprint(
        self, paper_resources, foods_stats
    ):
        stats = get_model_stats("alexnet")
        big_m = DownstreamSpec(mem_bytes=3 * GB, in_dl_system=True)
        config = optimize(
            Workload(stats, stats.feature_layers, foods_stats),
            paper_resources,
            downstream=big_m,
        )
        # DL region must hold max(f, M) per thread: 3 GB > 2 GB.
        assert config.mem_dl_bytes == config.cpu * 3 * GB
