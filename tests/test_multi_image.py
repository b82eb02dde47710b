"""Tests for multiple images per record — the paper's future-work
extension ("We leave support for ... multiple images per example to
future work", Section 3.2)."""

import numpy as np
import pytest

from repro.cnn import build_model
from repro.core.config import VistaConfig
from repro.core.executor import FeatureTransferExecutor
from repro.core.plans import EAGER, EAGER_REORDERED, LAZY, STAGED
from repro.data.synthetic import generate_dataset
from repro.dataflow.context import local_context
from repro.tensor.tensorlist import TensorList


@pytest.fixture(scope="module")
def multi_dataset():
    return generate_dataset(
        "multi", num_records=24, num_structured_features=16,
        images_per_record=3, seed=5,
    )


@pytest.fixture(scope="module")
def single_dataset():
    return generate_dataset(
        "single", num_records=24, num_structured_features=16,
        images_per_record=1, seed=5,
    )


def _executor(dataset, layers=("fc7", "fc8")):
    model = build_model("alexnet", profile="mini")
    config = VistaConfig(
        cpu=2, num_partitions=4, mem_storage_bytes=0, mem_user_bytes=0,
        mem_dl_bytes=0, join="shuffle", persistence="deserialized",
    )
    ctx = local_context(num_nodes=2, cores_per_node=4, cpu=2)
    return FeatureTransferExecutor(
        ctx, model, dataset, list(layers), config,
        downstream_fn=lambda f, l: {"matrix": f.copy()},
    )


def test_generator_produces_tensorlists(multi_dataset):
    image = multi_dataset.image_rows[0]["image"]
    assert isinstance(image, TensorList)
    assert len(image) == 3


def test_single_image_stays_plain_tensor(single_dataset):
    image = single_dataset.image_rows[0]["image"]
    assert isinstance(image, np.ndarray)


def test_staged_runs_with_multiple_images(multi_dataset):
    result = _executor(multi_dataset).run(STAGED)
    # pooled features concatenate across the 3 images: 16 struct +
    # 3 x 32 (mini fc7 width)
    assert result.layer_results["fc7"].feature_dim == 16 + 3 * 32


def test_lazy_matches_staged_with_multiple_images(multi_dataset):
    staged = _executor(multi_dataset).run(STAGED)
    lazy = _executor(multi_dataset).run(LAZY)
    for layer in ("fc7", "fc8"):
        np.testing.assert_allclose(
            staged.layer_results[layer].downstream["matrix"],
            lazy.layer_results[layer].downstream["matrix"],
            rtol=1e-4, atol=1e-5,
        )


def test_per_image_features_match_independent_inference(multi_dataset):
    from repro.features.pooling import pool_feature_tensor

    model = build_model("alexnet", profile="mini")
    result = _executor(multi_dataset).run(STAGED)
    matrix = result.layer_results["fc8"].downstream["matrix"]
    row0 = multi_dataset.image_rows[0]
    expected = np.concatenate(
        [multi_dataset.structured_rows[0]["features"]] + [
            pool_feature_tensor(model.forward(img, upto="fc8"))
            for img in row0["image"]
        ]
    )
    np.testing.assert_allclose(matrix[0], expected, rtol=1e-3, atol=1e-4)


def test_eager_matches_staged_with_multiple_images(multi_dataset):
    """Eager's ``tensor:<layer>`` columns are plain TensorList object
    columns: same inference UDF, same bits as Staged."""
    staged = _executor(multi_dataset).run(STAGED)
    for plan in (EAGER, EAGER_REORDERED):
        eager = _executor(multi_dataset).run(plan)
        for layer in ("fc7", "fc8"):
            assert np.array_equal(
                staged.layer_results[layer].downstream["matrix"],
                eager.layer_results[layer].downstream["matrix"],
            ), f"{plan} diverged on {layer}"


def test_eager_still_fine_with_single_image(single_dataset):
    result = _executor(single_dataset).run(EAGER)
    assert set(result.layer_results) == {"fc7", "fc8"}
