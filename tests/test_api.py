"""Integration tests for the declarative Vista API."""

import numpy as np
import pytest

from repro import Vista, default_resources
from repro.core.config import DatasetStats
from repro.core.plans import LAZY, STAGED
from repro.data import foods_dataset
from repro.exceptions import InvalidLayerError


@pytest.fixture(scope="module")
def dataset():
    return foods_dataset(num_records=40)


@pytest.fixture(scope="module")
def resources():
    return default_resources(num_nodes=2)


def test_end_to_end_run(dataset, resources):
    vista = Vista("alexnet", 2, dataset, resources)
    result = vista.run()
    assert sorted(result.layer_results) == ["fc7", "fc8"]
    for layer_result in result.layer_results.values():
        assert "f1_train" in layer_result.downstream


def test_optimize_exposes_config(dataset, resources):
    vista = Vista("alexnet", 4, dataset, resources)
    config = vista.optimize()
    assert config.cpu == 7
    assert config.join in ("shuffle", "broadcast")


def test_layers_counted_from_top(dataset, resources):
    vista = Vista("resnet50", 3, dataset, resources)
    assert vista.layers == ["conv5_2", "conv5_3", "fc6"]


def test_sizing_report(dataset, resources):
    vista = Vista("alexnet", 2, dataset, resources)
    assert vista.dataset_stats == DatasetStats.from_dataset(dataset)
    assert vista.dataset_stats.num_records == 40
    report = vista.sizing()
    assert set(report.intermediate_table_bytes) == {"fc7", "fc8"}
    assert report.s_single > 0


def test_invalid_layer_count_rejected(dataset, resources):
    with pytest.raises(InvalidLayerError):
        Vista("vgg16", 10, dataset, resources)


def test_invalid_backend_rejected(dataset, resources):
    with pytest.raises(ValueError):
        Vista("alexnet", 2, dataset, resources, backend="flink")


def test_ignite_backend_runs(dataset, resources):
    vista = Vista("alexnet", 2, dataset, resources, backend="ignite")
    result = vista.run()
    assert len(result.layer_results) == 2


def test_custom_downstream_fn(dataset, resources):
    captured = {}

    def downstream(features, labels):
        captured["shape"] = features.shape
        return {"n": len(labels)}

    vista = Vista(
        "alexnet", 1, dataset, resources, downstream_fn=downstream
    )
    result = vista.run()
    assert result.layer_results["fc8"].downstream["n"] == 40
    assert captured["shape"][0] == 40


def test_run_alternate_plan_same_results(dataset, resources):
    matrices = {}

    def capture(features, labels):
        return {"matrix": features.copy()}

    for plan in (STAGED, LAZY):
        vista = Vista(
            "alexnet", 2, dataset, resources, downstream_fn=capture
        )
        result = vista.run(plan=plan)
        matrices[plan.label] = result.layer_results["fc8"].downstream[
            "matrix"
        ]
    np.testing.assert_allclose(
        matrices["staged/aj"], matrices["lazy/bj"], rtol=1e-4, atol=1e-5
    )


def test_build_context_applies_config(dataset, resources):
    vista = Vista("alexnet", 2, dataset, resources)
    config = vista.optimize()
    ctx = vista.build_context(config)
    assert ctx.cpu == config.cpu
    assert ctx.num_nodes == resources.num_nodes
    assert ctx.workers[0].budget.storage_bytes == config.mem_storage_bytes


def test_premat_run(dataset, resources):
    vista = Vista("alexnet", 2, dataset, resources)
    result = vista.run(premat_layer="fc7")
    assert result.metrics["premat_flops"] > 0


def test_doctest_example_shape():
    """The class docstring's example must actually work."""
    from repro.core.api import Vista as VistaClass

    vista = VistaClass(
        model_name="alexnet", num_layers=4,
        dataset=foods_dataset(num_records=24),
        resources=default_resources(num_nodes=2),
    )
    result = vista.run()
    assert sorted(result.layer_results) == ["conv5", "fc6", "fc7", "fc8"]


def test_premat_with_feature_store_via_api(tmp_path, dataset, resources):
    from repro.features.store import FeatureStore

    store = FeatureStore(tmp_path / "fs")
    vista = Vista("alexnet", 2, dataset, resources)
    first = vista.run(premat_layer="fc7", feature_store=store)
    assert first.metrics["premat_store_hit"] is False
    second = Vista("alexnet", 2, dataset, resources).run(
        premat_layer="fc7", feature_store=store
    )
    assert second.metrics["premat_store_hit"] is True
    assert second.metrics["premat_flops"] == 0
