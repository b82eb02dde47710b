"""A DAG-shaped network through the one plan interpreter (Section 5.4,
fn. 1).

DenseNet runs as a chain of composite blocks through
``FeatureTransferExecutor``, so what Staged materialization promises a
DAG-shaped model is asserted on the real engine: no operator runs twice
under Staged, Lazy re-runs the shared prefix, every step's FLOPs are
accounted, a stored layer resumes the pass, and a layer that is not a
feature layer is refused — as is a chain that names a layer twice or
exposes one it does not have.
"""

from collections import Counter

import numpy as np
import pytest

from repro.cnn.shapes import LayerSpec
from repro.cnn.zoo.builder import build_from_specs
from repro.cnn.zoo.densenet import MINI_INPUT_SHAPE, build_densenet_mini
from repro.core.config import DatasetStats, VistaConfig
from repro.core.plans import ALL_PLANS, Op, compile_plan
from repro.costmodel.runtime import walk_plan
from repro.data import foods_dataset
from repro.exceptions import InvalidLayerError
from repro.features.pooling import pool_feature_tensor
from tests.test_plan_equivalence_prop import (
    _oracle_bound,
    _run_plan,
    _single_image_oracle,
)

RECORDS = 12
CONFIG = VistaConfig(
    cpu=2, num_partitions=3, mem_storage_bytes=10**9, mem_user_bytes=10**9,
    mem_dl_bytes=10**9, join="broadcast", persistence="deserialized",
)


@pytest.fixture(scope="module")
def dataset():
    return foods_dataset(
        num_records=RECORDS, image_shape=MINI_INPUT_SHAPE, seed=5
    )


@pytest.fixture(scope="module")
def image(dataset):
    return dataset.image_rows[0]["image"]


def _op_calls(dataset, plan_name):
    """How often each layer's operator ran under ``plan_name`` — counted
    by the engine's own per-operator hook on a model of its own."""
    model = build_densenet_mini()
    calls = Counter()
    model.op_timer = lambda name, seconds: calls.update([name])
    _run_plan(model, dataset, model.feature_layers, CONFIG,
              ALL_PLANS[plan_name], exec_backend="serial")
    return model, calls


def _build(specs, feature_layers):
    return build_from_specs("net", specs, MINI_INPUT_SHAPE, feature_layers)


def test_duplicate_node_rejected():
    """Layers are addressed by name: a chain cannot hold two of one."""
    conv = {"filters": 4, "kernel": 1}
    _build([LayerSpec("a", "conv", conv), LayerSpec("b", "conv", conv)], ["b"])
    with pytest.raises(InvalidLayerError):
        _build([LayerSpec("a", "conv", conv), LayerSpec("a", "conv", conv)],
               ["a"])


def test_unknown_staged_target_rejected():
    """A model cannot expose a feature layer it does not have."""
    with pytest.raises(InvalidLayerError):
        _build([LayerSpec("a", "conv", {"filters": 4, "kernel": 1})],
               ["ghost"])


def test_unknown_target_rejected(dataset):
    """Only the model's feature layers can be transferred: a block's
    inside is not addressable, as in the paper."""
    model = build_densenet_mini()
    for layer in ("nonexistent", "block1"):
        with pytest.raises(InvalidLayerError):
            _run_plan(model, dataset, [layer], CONFIG, ALL_PLANS["staged"])


def test_forward_computes_feature_nodes(image):
    """The stats the engine sizes tables with describe the tensors the
    model really emits, whole and pooled."""
    model = build_densenet_mini()
    for layer in model.feature_layers:
        tensor = model.forward(image, upto=layer)
        stats = model.stats.layer_stats(layer)
        assert tensor.shape == stats.output_shape
        assert tensor.nbytes == model.stats.materialized_bytes(layer)
        assert pool_feature_tensor(tensor).size == stats.transfer_dim


def test_forward_with_materialized_cut_matches_direct(image):
    model = build_densenet_mini()
    stored = model.forward(image, upto="block2_out")
    assert np.array_equal(
        model.partial_forward(stored, "block2_out", "head"),
        model.forward(image),
    )


def test_run_staged_matches_direct_forward(dataset):
    """Staged's train matrices are each image alone through
    ``CNN.forward``, pooled (batched GEMMs sum in another order: the
    tolerance of ``test_all_plans_match_single_image_oracle``)."""
    model = build_densenet_mini()
    result = _run_plan(model, dataset, model.feature_layers, CONFIG,
                       ALL_PLANS["staged"])
    for layer in model.feature_layers:
        got = result.layer_results[layer].downstream["matrix"]
        expected = _single_image_oracle(model, dataset, layer)
        assert np.all(
            np.abs(got - expected) <= _oracle_bound(expected)
        ), layer


def test_run_staged_no_redundant_execution(dataset):
    """Every operator runs once per partition — the same count for the
    stem as for the head."""
    for plan_name in ("staged", "staged-bj", "eager"):
        model, calls = _op_calls(dataset, plan_name)
        assert set(calls) == {op.name for op in model.layers}, plan_name
        assert set(calls.values()) == {CONFIG.num_partitions}, plan_name


def test_lazy_on_dag_runs_shared_prefix_repeatedly(dataset):
    """The redundancy claim holds for the DAG-shaped model: Lazy runs
    the layers under block1_out once per feature layer above them."""
    model, calls = _op_calls(dataset, "lazy")
    once = CONFIG.num_partitions
    assert calls["stem"] == calls["block1"] == calls["block1_out"] == 3 * once
    assert calls["block2"] == calls["block2_out"] == 2 * once
    assert calls["head"] == once


def test_schedule_flops_accounting():
    """The plan's INFER steps, the cost model on ``cnn.stats`` and the
    layer profiles agree on every plan's inference FLOPs per image."""
    model = build_densenet_mini()
    layers = model.feature_layers
    prefixes = [model.stats.layer_stats(l).flops_from_input for l in layers]
    assert prefixes[-1] == model.stats.total_flops  # head is the last layer
    for name, plan in ALL_PLANS.items():
        stepped = sum(
            model.flops_between(step.from_layer or 0, step.outputs[-1][0])
            for step in compile_plan(plan, layers) if step.op is Op.INFER
        )
        walk = walk_plan(model.stats, layers, DatasetStats(1, 0, 0), plan)
        assert stepped == sum(row.flops for row in walk.rows) == (
            sum(prefixes) if name.startswith("lazy") else prefixes[-1])
