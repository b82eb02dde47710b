"""Unit tests for HOG features and feature-layer pooling."""

import numpy as np
import pytest

from repro.features.hog import hog_features
from repro.features.pooling import pool_feature_tensor, pooled_dim


class TestHOG:
    def test_descriptor_shape_32px(self):
        image = np.random.default_rng(0).normal(size=(32, 32, 3))
        desc = hog_features(image, cell_size=8, bins=9, block_size=2)
        # 4x4 cells -> 3x3 blocks of 2x2x9 = 36 each
        assert desc.shape == (9 * 36 // 4 * 4,) or desc.shape == (324,)

    def test_blocks_are_l2_normalized(self):
        image = np.random.default_rng(1).normal(size=(32, 32, 3)) * 100
        desc = hog_features(image)
        blocks = desc.reshape(-1, 36)
        norms = np.linalg.norm(blocks, axis=1)
        assert (norms <= 1.0 + 1e-5).all()

    def test_orientation_sensitivity(self):
        """Vertical vs horizontal stripes must produce different
        descriptors — HOG's entire point."""
        ys, xs = np.mgrid[0:32, 0:32]
        vertical = np.sin(xs / 2.0)
        horizontal = np.sin(ys / 2.0)
        dv = hog_features(vertical)
        dh = hog_features(horizontal)
        assert np.linalg.norm(dv - dh) > 0.1

    def test_brightness_invariance_of_flat_image(self):
        flat = np.full((32, 32), 7.0)
        desc = hog_features(flat)
        assert np.isfinite(desc).all()

    def test_grayscale_and_rgb_inputs(self):
        rng = np.random.default_rng(2)
        gray = rng.normal(size=(32, 32))
        rgb = np.stack([gray, gray, gray], axis=-1)
        np.testing.assert_allclose(
            hog_features(gray), hog_features(rgb), atol=1e-5
        )

    def test_too_small_image_rejected(self):
        with pytest.raises(ValueError):
            hog_features(np.zeros((4, 4)), cell_size=8)

    def test_bad_ndim_rejected(self):
        with pytest.raises(ValueError):
            hog_features(np.zeros((2, 2, 2, 2)))


class TestPooling:
    def test_conv_tensor_pooled_to_grid(self):
        tensor = np.random.default_rng(0).normal(size=(13, 13, 8))
        pooled = pool_feature_tensor(tensor, grid=2)
        assert pooled.shape == (2 * 2 * 8,)

    def test_flat_vector_passes_through(self):
        vector = np.arange(16.0)
        np.testing.assert_array_equal(pool_feature_tensor(vector), vector)

    def test_pooling_takes_max(self):
        tensor = np.zeros((4, 4, 1))
        tensor[0, 0, 0] = 42.0
        assert pool_feature_tensor(tensor).max() == 42.0

    @pytest.mark.parametrize("shape", [
        (13, 13, 8), (2, 2, 8), (7, 3, 5),      # pooled to the grid
        (1, 1, 8), (1, 3, 8), (3, 1, 8),        # under the grid: whole
        (16,), (1,),                            # flat layers: whole
    ])
    def test_pooled_dim_is_the_kernels_output_size(self, shape):
        """One rule, stated beside the kernel: a tensor under the grid
        in either direction passes through whole ((1, 3, 8) is 24
        values, not min(1, 2) * min(3, 2) * 8 = 16)."""
        assert pooled_dim(shape) == pool_feature_tensor(np.zeros(shape)).size

    def test_matches_roster_transfer_dim(self):
        from repro.cnn import get_model_stats

        stats = get_model_stats("alexnet")
        conv5_shape = stats.layer_stats("conv5").output_shape
        pooled = pool_feature_tensor(np.zeros(conv5_shape))
        assert pooled.shape == (stats.layer_stats("conv5").transfer_dim,)
