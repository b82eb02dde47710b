"""Tests for smaller public surfaces: the exception hierarchy, the
zoo builder's validation, local contexts, and Vista on GPU resources."""

import pytest

from repro import Vista, default_resources
from repro.core.config import Resources
from repro.data import foods_dataset
from repro.dataflow.context import local_context
from repro.exceptions import (
    DLExecutionMemoryExceeded,
    NoFeasiblePlan,
    ShapeError,
    StorageMemoryExceeded,
    UserMemoryExceeded,
    VistaError,
    WorkloadCrash,
)
from repro.memory.model import GB


class TestExceptionHierarchy:
    def test_crashes_are_vista_errors(self):
        for exc in (DLExecutionMemoryExceeded, UserMemoryExceeded,
                    StorageMemoryExceeded):
            assert issubclass(exc, WorkloadCrash)
            assert issubclass(exc, VistaError)

    def test_no_feasible_plan_is_not_a_crash(self):
        assert issubclass(NoFeasiblePlan, VistaError)
        assert not issubclass(NoFeasiblePlan, WorkloadCrash)

    def test_shape_error_is_vista_error(self):
        assert issubclass(ShapeError, VistaError)


class TestLocalContext:
    def test_spark_default(self):
        ctx = local_context()
        assert ctx.num_nodes == 2
        assert ctx.workers[0].budget.storage_elastic

    def test_ignite_static_storage(self):
        ctx = local_context(backend="ignite", storage_gb=2)
        assert not ctx.workers[0].budget.storage_elastic
        assert ctx.workers[0].budget.storage_bytes == 2 * GB

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            local_context(backend="flink")

    def test_cpu_defaults_to_cores(self):
        ctx = local_context(cores_per_node=6)
        assert ctx.cpu == 6

    def test_worker_assignment_round_robin(self):
        ctx = local_context(num_nodes=3)
        assert ctx.worker_for(0).node_id == 0
        assert ctx.worker_for(4).node_id == 1

    def test_table_name_counter(self):
        ctx = local_context()
        first = ctx.next_table_name()
        second = ctx.next_table_name()
        assert first != second


class TestVistaOnGpuResources:
    def test_gpu_constraint_respected_in_api(self):
        dataset = foods_dataset(num_records=24)
        resources = Resources(
            num_nodes=1, system_memory_bytes=32 * GB, cores_per_node=8,
            gpu_memory_bytes=12 * GB,
        )
        vista = Vista("vgg16", 2, dataset, resources)
        config = vista.optimize()
        from repro.cnn import get_model_stats

        stats = get_model_stats("vgg16")
        assert config.cpu * stats.gpu_mem_bytes < 12 * GB

    def test_infeasible_resources_raise(self):
        dataset = foods_dataset(num_records=24)
        tiny = Resources(
            num_nodes=1, system_memory_bytes=4 * GB, cores_per_node=8
        )
        vista = Vista("vgg16", 2, dataset, tiny)
        with pytest.raises(NoFeasiblePlan):
            vista.optimize()


class TestIgniteBackendOptimizer:
    def test_ignite_backend_may_lower_cpu_for_storage(self):
        """The Ignite static-storage constraint can only make the pick
        more conservative, never less."""
        from repro.cnn import get_model_stats
        from repro.core.config import DatasetStats, Workload
        from repro.core.optimizer import optimize

        stats = get_model_stats("resnet50")
        workload = Workload(
            stats, stats.feature_layers, DatasetStats(200_000, 200, 15 * 1024)
        )
        resources = Resources(8, 32 * GB, 8)
        spark_cfg = optimize(workload, resources, backend="spark")
        ignite_cfg = optimize(workload, resources, backend="ignite")
        assert ignite_cfg.cpu <= spark_cfg.cpu

    def test_ignite_raises_when_data_cannot_fit_memory(self):
        from repro.cnn import get_model_stats
        from repro.core.config import DatasetStats, Workload
        from repro.core.optimizer import optimize

        stats = get_model_stats("resnet50")
        huge = Workload(
            stats, stats.feature_layers,
            DatasetStats(2_000_000, 200, 15 * 1024),
        )
        resources = Resources(2, 32 * GB, 8)
        with pytest.raises(NoFeasiblePlan):
            optimize(huge, resources, backend="ignite")
        # Spark with spills remains feasible for the same workload.
        optimize(huge, resources, backend="spark")


class TestWorkloadResultSurface:
    def test_result_repr_and_layer_repr(self):
        dataset = foods_dataset(num_records=24)
        vista = Vista("alexnet", 1, dataset, default_resources(num_nodes=2))
        result = vista.run()
        assert "fc8" in repr(result)
        assert "fc8" in repr(result.layer_results["fc8"])
        assert result.metrics["plan"] == "staged/aj"
