"""Integration tests: every logical plan executed end-to-end on the
real dataflow + CNN engines must deliver identical downstream results
(Section 5.2: 'All approaches ... yield identical downstream models'),
with the FLOP relationships of Section 4.2.1.
"""

import numpy as np
import pytest

from repro.cnn import build_model
from repro.core.config import VistaConfig
from repro.core.executor import FeatureTransferExecutor
from repro.core.plans import (
    ALL_PLANS,
    EAGER,
    EAGER_REORDERED,
    LAZY,
    STAGED,
)
from repro.data import foods_dataset
from repro.dataflow.context import local_context


@pytest.fixture(scope="module")
def setup():
    dataset = foods_dataset(num_records=48)
    model = build_model("alexnet", profile="mini")
    config = VistaConfig(
        cpu=2, num_partitions=8, mem_storage_bytes=10**9,
        mem_user_bytes=10**9, mem_dl_bytes=10**9, join="shuffle",
        persistence="deserialized",
    )
    return dataset, model, config


def _run(setup, plan, layers=("fc7", "fc8"), downstream=None, **kwargs):
    dataset, model, config = setup
    ctx = local_context(num_nodes=2, cores_per_node=4, cpu=config.cpu)
    downstream = downstream or (
        lambda features, labels: {"matrix": features.copy()}
    )
    executor = FeatureTransferExecutor(
        ctx, model, dataset, list(layers), config, downstream_fn=downstream
    )
    return executor.run(plan, **kwargs)


def test_all_plans_identical_feature_matrices(setup):
    results = {
        name: _run(setup, plan) for name, plan in ALL_PLANS.items()
    }
    reference = results["staged"]
    for name, result in results.items():
        assert sorted(result.layer_results) == sorted(
            reference.layer_results
        )
        for layer in reference.layer_results:
            np.testing.assert_allclose(
                result.layer_results[layer].downstream["matrix"],
                reference.layer_results[layer].downstream["matrix"],
                rtol=1e-4, atol=1e-5,
                err_msg=f"{name} diverged on {layer}",
            )


def test_lazy_has_redundant_flops(setup):
    lazy = _run(setup, LAZY)
    staged = _run(setup, STAGED)
    eager = _run(setup, EAGER)
    assert lazy.metrics["inference_flops"] > staged.metrics["inference_flops"]
    assert eager.metrics["inference_flops"] == staged.metrics["inference_flops"]


def test_staged_flops_equal_deepest_path(setup):
    dataset, model, _ = setup
    staged = _run(setup, STAGED)
    expected = model.flops_between(0, "fc8") * len(dataset)
    assert staged.metrics["inference_flops"] == expected


def test_lazy_flops_equal_sum_of_paths(setup):
    dataset, model, _ = setup
    lazy = _run(setup, LAZY)
    expected = (
        model.flops_between(0, "fc7") + model.flops_between(0, "fc8")
    ) * len(dataset)
    assert lazy.metrics["inference_flops"] == expected


def test_default_downstream_trains_logistic_regression(setup):
    dataset, model, config = setup
    executor = FeatureTransferExecutor(
        local_context(num_nodes=2, cores_per_node=4, cpu=2), model, dataset,
        ["fc7", "fc8"], config,
    )
    result = executor.run(STAGED)
    for layer_result in result.layer_results.values():
        assert 0.0 <= layer_result.downstream["f1_train"] <= 1.0
        assert layer_result.downstream["model"].weights is not None


def test_feature_dims_are_struct_plus_pooled(setup):
    dataset, model, _ = setup
    result = _run(setup, STAGED, layers=("conv5", "fc8"))
    conv5_dim = result.layer_results["conv5"].feature_dim
    # 130 structured + pooled conv5 (2x2x8 = 32 in the mini profile)
    assert conv5_dim == 130 + 2 * 2 * 8
    assert result.layer_results["fc8"].feature_dim == 130 + 10


def test_premat_shifts_flops(setup):
    dataset, model, _ = setup
    plain = _run(setup, LAZY)
    premat = _run(setup, LAZY, premat_layer="fc7")
    assert premat.metrics["premat_flops"] > 0
    assert premat.metrics["inference_flops"] \
        < plain.metrics["inference_flops"]
    total_premat = (
        premat.metrics["premat_flops"] + premat.metrics["inference_flops"]
    )
    assert total_premat < plain.metrics["inference_flops"]


def test_premat_produces_identical_features(setup):
    plain = _run(setup, STAGED)
    premat = _run(setup, STAGED, premat_layer="fc7")
    for layer in plain.layer_results:
        np.testing.assert_allclose(
            premat.layer_results[layer].downstream["matrix"],
            plain.layer_results[layer].downstream["matrix"],
            rtol=1e-4, atol=1e-5,
        )


def test_broadcast_join_config(setup):
    dataset, model, config = setup
    from dataclasses import replace

    result_b = _run(
        (dataset, model, replace(config, join="broadcast")), STAGED
    )
    result_s = _run(setup, STAGED)
    for layer in result_s.layer_results:
        np.testing.assert_allclose(
            result_b.layer_results[layer].downstream["matrix"],
            result_s.layer_results[layer].downstream["matrix"],
            rtol=1e-5,
        )


def test_serialized_persistence_identical_results(setup):
    dataset, model, config = setup
    from dataclasses import replace

    result = _run(
        (dataset, model, replace(config, persistence="serialized")), STAGED
    )
    reference = _run(setup, STAGED)
    for layer in reference.layer_results:
        np.testing.assert_allclose(
            result.layer_results[layer].downstream["matrix"],
            reference.layer_results[layer].downstream["matrix"],
            rtol=1e-5,
        )


def test_metrics_populated(setup):
    result = _run(setup, STAGED)
    for key in ("inference_flops", "shuffle_bytes", "tasks_run",
                "storage_peak_bytes"):
        assert key in result.metrics
    assert result.metrics["tasks_run"] > 0


def _assert_storage_empty(ctx):
    for worker in ctx.workers:
        assert worker.storage.used_bytes == 0
        assert worker.storage.cached_keys() == []


@pytest.mark.parametrize("name", sorted(ALL_PLANS))
def test_failed_run_leaves_no_cached_partitions(setup, name):
    """A train step that raises must not strand the plan's cached
    tables in Storage (Staged used to: only Eager had a ``finally``)."""
    dataset, model, config = setup
    ctx = local_context(num_nodes=2, cores_per_node=4, cpu=config.cpu)

    def downstream(features, labels):
        raise RuntimeError("downstream failed")

    executor = FeatureTransferExecutor(
        ctx, model, dataset, ["fc7", "fc8"], config,
        downstream_fn=downstream,
    )
    with pytest.raises(RuntimeError, match="downstream failed"):
        executor.run(ALL_PLANS[name])
    _assert_storage_empty(ctx)


@pytest.mark.parametrize(
    "name", ["eager", "eager-reordered", "staged", "staged-bj"]
)
def test_failed_cache_leaves_no_cached_partitions(setup, name):
    """A ``cache()`` that exceeds Storage midway (Ignite: ~3 KB here
    admits some partitions, then raises) is released as well."""
    from repro.exceptions import StorageMemoryExceeded

    dataset, model, config = setup
    ctx = local_context(
        num_nodes=2, cores_per_node=4, cpu=config.cpu, backend="ignite",
        storage_gb=3e-6,
    )
    executor = FeatureTransferExecutor(
        ctx, model, dataset, ["fc7", "fc8"], config,
        downstream_fn=lambda f, l: {},
    )
    with pytest.raises(StorageMemoryExceeded):
        executor.run(ALL_PLANS[name])
    _assert_storage_empty(ctx)


def _tensorlist_matrix(setup, plan):
    """Train matrix of ``plan`` over single-member TensorList images
    held in a table whose partition 0 is empty."""
    from repro.dataflow.partition import Partition
    from repro.dataflow.table import DistributedTable
    from repro.tensor.tensorlist import TensorList

    dataset, model, config = setup
    ctx = local_context(num_nodes=2, cores_per_node=4, cpu=config.cpu)
    executor = FeatureTransferExecutor(
        ctx, model, dataset, ["fc7"], config,
        downstream_fn=lambda f, l: {"matrix": f.copy()},
    )
    tl_rows = [
        {"id": row["id"], "image": TensorList([row["image"]])}
        for row in dataset.image_rows
    ]
    executor.timg = DistributedTable(
        ctx, [Partition.from_rows(0, []), Partition.from_rows(1, tl_rows)],
        name="t_img",
    )
    return executor.run(plan).layer_results["fc7"].downstream["matrix"]


def test_eager_tensorlists_with_empty_first_partition(setup):
    """Eager needs no TensorList special case (it used to sniff the
    first non-empty partition and reject): an empty partition 0 next to
    multi-image rows trains the same matrix Staged does."""
    staged = _tensorlist_matrix(setup, STAGED)
    for plan in (EAGER, EAGER_REORDERED):
        assert np.array_equal(_tensorlist_matrix(setup, plan), staged), plan


def test_eager_sniff_tolerates_all_empty_table(setup):
    """A table with no rows anywhere runs through inference untouched
    (the run fails later, at training, for want of data)."""
    from repro.dataflow.partition import Partition
    from repro.dataflow.table import DistributedTable

    dataset, model, config = setup
    ctx = local_context(num_nodes=2, cores_per_node=4, cpu=config.cpu)
    executor = FeatureTransferExecutor(
        ctx, model, dataset, ["fc7"], config,
        downstream_fn=lambda f, l: {"matrix": f.copy()},
    )
    executor.timg = DistributedTable(
        ctx, [Partition.from_rows(0, []), Partition.from_rows(1, [])],
        name="t_img",
    )
    with pytest.raises(ValueError):
        executor.run(EAGER)


def test_resnet_staged_chain(small_foods):
    """Staged inference across ResNet's five feature layers, block to
    block, must match direct inference."""
    model = build_model("resnet50", profile="mini")
    config = VistaConfig(
        cpu=2, num_partitions=4, mem_storage_bytes=10**9,
        mem_user_bytes=10**9, mem_dl_bytes=10**9, join="shuffle",
        persistence="deserialized",
    )
    ctx = local_context(num_nodes=2, cores_per_node=4, cpu=2)
    dataset = foods_dataset(num_records=12)
    executor = FeatureTransferExecutor(
        ctx, model, dataset, model.feature_layers, config,
        downstream_fn=lambda f, l: {"matrix": f.copy()},
    )
    result = executor.run(STAGED)
    # independently verify one record's conv5_3 features
    image = dataset.image_rows[0]["image"]
    direct = model.forward(image, upto="conv5_3")
    from repro.features.pooling import pool_feature_tensor

    expected = np.concatenate([
        dataset.structured_rows[0]["features"],
        pool_feature_tensor(direct),
    ])
    matrix = result.layer_results["conv5_3"].downstream["matrix"]
    np.testing.assert_allclose(matrix[0], expected, rtol=1e-3, atol=1e-4)
