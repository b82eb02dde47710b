"""Feature-layer dimensionality reduction before downstream training.

Section 5 (footnote 4): convolutional feature layers are max-pooled so
"the feature tensor [reduces] to a 2x2 grid of the same depth" before
flattening; fully connected layers are used as-is.
"""

from __future__ import annotations

import math

import numpy as np

from repro.tensor.ops import grid_max_pool, grid_max_pool_batch

#: The paper's grid: every run pools conv feature layers to 2x2xC.
POOL_GRID = 2


def pooled_dim(shape):
    """Length of :func:`pool_feature_tensor`'s output for a feature
    tensor of ``shape`` — the kernel's rule, stated once: a 3-d tensor
    at least the grid high and wide pools to ``grid x grid x C``;
    anything smaller, and every flat layer, passes through whole."""
    if len(shape) == 3 and min(shape[:2]) >= POOL_GRID:
        return POOL_GRID * POOL_GRID * shape[2]
    return math.prod(shape)


def pool_feature_tensor(tensor, grid=POOL_GRID):
    """Reduce a feature tensor for transfer: 3-d conv outputs are
    grid-max-pooled then flattened; 1-d outputs pass through flat."""
    tensor = np.asarray(tensor)
    if tensor.ndim == 3:
        tensor = grid_max_pool(tensor, grid=grid)
    return tensor.reshape(-1)


def pool_feature_tensor_batch(batch, grid=POOL_GRID):
    """Batched :func:`pool_feature_tensor` over an (N, ...) stack of
    same-shape feature tensors; returns an (N, transfer_dim) matrix."""
    batch = np.asarray(batch)
    if batch.ndim == 4:
        batch = grid_max_pool_batch(batch, grid=grid)
    return batch.reshape(batch.shape[0], -1)


def pool_feature_tensors(tensors, grid=POOL_GRID):
    """Pool a ragged sequence of feature tensors (an object column):
    tensors are grouped by exact shape and each group runs through the
    batched kernel once, so mixed-shape partitions still batch instead
    of falling back to one kernel call per row. Returns a list of 1-d
    vectors in input order (lengths may differ across shapes)."""
    tensors = [np.asarray(t) for t in tensors]
    groups = {}
    for position, tensor in enumerate(tensors):
        groups.setdefault(tensor.shape, []).append(position)
    out = [None] * len(tensors)
    for positions in groups.values():
        batch = pool_feature_tensor_batch(
            np.stack([tensors[p] for p in positions]), grid=grid
        )
        for position, vector in zip(positions, batch):
            out[position] = vector
    return out
