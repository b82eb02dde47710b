"""Batched-vs-per-image equivalence: ``forward_batch`` must reproduce
stacked per-image ``forward`` (allclose at float32) for every zoo
model, including partial inference ``f̂_{i→j}`` slices, batch size 1,
and the ragged final partition the executor's partition-level batching
produces."""

import numpy as np
import pytest

from repro.cnn import build_model
from repro.core.config import VistaConfig
from repro.core.executor import FeatureTransferExecutor
from repro.core.plans import STAGED
from repro.data import foods_dataset
from repro.dataflow.context import local_context
from repro.features.pooling import pool_feature_tensor, pool_feature_tensor_batch
from repro.tensor.ops import TensorOp, grid_max_pool, grid_max_pool_batch


def _batch(model, size, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(size,) + model.input_shape).astype(np.float32)


@pytest.mark.parametrize("batch_size", [1, 5])
def test_forward_batch_matches_stacked_forward(any_mini_model, batch_size):
    model = any_mini_model
    batch = _batch(model, batch_size)
    batched = model.forward_batch(batch)
    stacked = np.stack([model.forward(image) for image in batch])
    np.testing.assert_allclose(batched, stacked, rtol=1e-4, atol=1e-5)


def test_forward_batch_upto_feature_layers(any_mini_model):
    model = any_mini_model
    batch = _batch(model, 3)
    for layer in model.feature_layers:
        batched = model.forward_batch(batch, upto=layer)
        stacked = np.stack(
            [model.forward(image, upto=layer) for image in batch]
        )
        np.testing.assert_allclose(batched, stacked, rtol=1e-4, atol=1e-5)


def test_partial_forward_batch_slices(any_mini_model):
    """f̂_{i→j} between consecutive feature layers, batched, must match
    the per-image partial path."""
    model = any_mini_model
    batch = _batch(model, 4)
    previous = None
    current = batch
    for layer in model.feature_layers:
        batched = model.partial_forward_batch(current, previous or 0, layer)
        stacked = np.stack([
            model.partial_forward(member, previous or 0, layer)
            for member in current
        ])
        np.testing.assert_allclose(batched, stacked, rtol=1e-4, atol=1e-5)
        current = batched
        previous = layer


def test_apply_batch_default_is_loop_fallback():
    """Ops without a vectorized kernel still batch via the loop
    default."""

    class Doubler(TensorOp):
        def apply(self, tensor):
            return tensor * 2.0

    op = Doubler((3, 3, 2), (3, 3, 2))
    batch = np.arange(36, dtype=np.float32).reshape(2, 3, 3, 2)
    out = op.call_batch(batch)
    np.testing.assert_array_equal(out, batch * 2.0)


def test_grid_max_pool_batch_matches_per_image():
    rng = np.random.default_rng(3)
    batch = rng.normal(size=(7, 6, 5, 4)).astype(np.float32)
    batched = grid_max_pool_batch(batch)
    stacked = np.stack([grid_max_pool(t) for t in batch])
    np.testing.assert_array_equal(batched, stacked)


def retired_grid_max_pool_batch(batch, grid=2):
    """The per-cell batched grid pool the running-maximum kernel
    replaced: one ``.max(axis=(1, 2))`` per grid cell."""
    num, height, width, channels = batch.shape
    if height < grid or width < grid:
        return batch
    out = np.empty((num, grid, grid, channels), dtype=batch.dtype)
    row_edges = np.linspace(0, height, grid + 1, dtype=int)
    col_edges = np.linspace(0, width, grid + 1, dtype=int)
    for i in range(grid):
        for j in range(grid):
            block = batch[
                :, row_edges[i]:row_edges[i + 1],
                col_edges[j]:col_edges[j + 1], :,
            ]
            out[:, i, j, :] = block.max(axis=(1, 2))
    return out


def _grid_input(shape, layout, seed):
    rng = np.random.default_rng(seed)
    n, h, w, c = shape
    if layout == "sliced":
        parent = rng.normal(size=(n, h, 2 * w, c + 3)).astype(np.float32)
        batch = parent[:, :, ::2, 1:1 + c]
        assert not batch.flags.c_contiguous
        return batch
    batch = rng.normal(size=shape).astype(np.float32)
    if layout == "signed-zeros":
        batch[rng.random(shape) < 0.5] = -0.0
        batch[rng.random(shape) < 0.5] = 0.0
    if layout == "non-finite":
        batch.flat[::7] = np.inf
        batch.flat[::11] = -np.inf
        batch.flat[::13] = np.nan
    if layout == "read-only":
        batch.flags.writeable = False
    return batch


@pytest.mark.parametrize("layout", [
    "contiguous", "sliced", "read-only", "non-finite", "signed-zeros",
])
@pytest.mark.parametrize("grid", [1, 2, 3])
@pytest.mark.parametrize("shape", [
    # the feature tensors the benchmark's workloads pool
    (5, 4, 4, 8), (5, 4, 4, 32), (5, 2, 2, 64),
    # odd sizes, uneven bands, one-pixel bands, a batch of one
    (3, 5, 7, 3), (1, 7, 5, 2), (4, 3, 9, 1),
    # smaller than the grid: passed through
    (2, 1, 4, 3), (2, 4, 1, 3),
])
def test_grid_max_pool_batch_keeps_the_per_cell_bits(shape, grid, layout):
    batch = _grid_input(shape, layout, seed=sum(shape) + grid)
    got = grid_max_pool_batch(batch, grid=grid)
    want = retired_grid_max_pool_batch(batch, grid=grid)
    assert got.dtype == want.dtype and got.shape == want.shape
    if layout == "signed-zeros":
        # Of equal values np.maximum keeps its second operand, so which
        # zero a cell holding both -0.0 and 0.0 keeps follows the order
        # of the maxima. No zoo feature holds a -0.0: every one pooled
        # comes out of a ReLU, np.maximum(x, 0.0).
        assert np.array_equal(got, want)
    else:
        assert got.tobytes() == want.tobytes()
    if shape[1] < grid or shape[2] < grid:
        assert got is batch


def test_pool_feature_tensor_batch_matches_per_image():
    rng = np.random.default_rng(4)
    conv = rng.normal(size=(5, 6, 6, 3)).astype(np.float32)
    flat = rng.normal(size=(5, 12)).astype(np.float32)
    for batch in (conv, flat):
        batched = pool_feature_tensor_batch(batch)
        stacked = np.stack([pool_feature_tensor(t) for t in batch])
        np.testing.assert_array_equal(batched, stacked)


def test_ragged_final_partition_matches_direct_inference():
    """A workload whose row count doesn't divide the partition count
    exercises ragged batches; features must equal direct per-image
    inference."""
    dataset = foods_dataset(num_records=13)
    model = build_model("alexnet", profile="mini")
    config = VistaConfig(
        cpu=2, num_partitions=5, mem_storage_bytes=10**9,
        mem_user_bytes=10**9, mem_dl_bytes=10**9, join="shuffle",
        persistence="deserialized",
    )
    ctx = local_context(num_nodes=2, cores_per_node=4, cpu=2)
    executor = FeatureTransferExecutor(
        ctx, model, dataset, ["fc7"], config,
        downstream_fn=lambda f, l: {"matrix": f.copy()},
    )
    matrix = executor.run(STAGED).layer_results["fc7"].downstream["matrix"]
    structured = sorted(dataset.structured_rows, key=lambda r: r["id"])
    images = {row["id"]: row["image"] for row in dataset.image_rows}
    expected = np.stack([
        np.concatenate([
            np.asarray(row["features"], dtype=np.float32),
            pool_feature_tensor(model.forward(images[row["id"]], upto="fc7")),
        ])
        for row in structured
    ])
    np.testing.assert_allclose(matrix, expected, rtol=1e-4, atol=1e-5)
