"""TensorOp and FlattenOp (Definitions 3.3 and 3.5).

A ``TensorOp`` is a function from a tensor of one fixed shape to a
tensor of another fixed shape. All CNN layers in :mod:`repro.cnn` are
TensorOps, which is what lets the executor treat partial CNN inference
(Def. 3.7) as plain function composition over the dataflow engine.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError


class TensorOp:
    """A function from tensors of ``input_shape`` to ``output_shape``.

    Subclasses implement :meth:`apply`. Shapes exclude any batch
    dimension: an op over a 3-d image tensor has a 3-tuple shape.

    Ops may additionally override :meth:`apply_batch`, the batched
    NHWC entry point over an ``(N, *input_shape)`` stack; the default
    falls back to looping :meth:`apply` over the batch axis, so every
    op is batch-callable even without a vectorized kernel.
    """

    def __init__(self, input_shape, output_shape, name=None):
        self.input_shape = tuple(int(d) for d in input_shape)
        self.output_shape = tuple(int(d) for d in output_shape)
        self.name = name or type(self).__name__

    def is_shape_compatible(self, tensor):
        """Return True iff ``tensor`` conforms to the expected input
        shape (Def. 3.3's shape-compatibility)."""
        return tuple(tensor.shape) == self.input_shape

    def check_shape(self, tensor):
        if not self.is_shape_compatible(tensor):
            raise ShapeError(
                f"{self.name}: tensor of shape {tuple(tensor.shape)} is not "
                f"shape-compatible with expected input {self.input_shape}"
            )

    def check_batch_shape(self, batch):
        if batch.ndim != 1 + len(self.input_shape) or \
                tuple(batch.shape[1:]) != self.input_shape:
            raise ShapeError(
                f"{self.name}: batch of shape {tuple(batch.shape)} is not "
                f"shape-compatible with expected input "
                f"(N, {', '.join(str(d) for d in self.input_shape)})"
            )

    def apply(self, tensor):
        raise NotImplementedError

    def apply_batch(self, batch):
        """Apply the op to an ``(N, *input_shape)`` stack of tensors.

        Loop fallback; vectorized ops override this.
        """
        return np.stack([self.apply(tensor) for tensor in batch])

    def __call__(self, tensor):
        self.check_shape(tensor)
        out = self.apply(tensor)
        if tuple(out.shape) != self.output_shape:
            raise ShapeError(
                f"{self.name}: produced shape {tuple(out.shape)}, "
                f"declared {self.output_shape}"
            )
        return out

    def call_batch(self, batch):
        """Shape-checked batched application (the batch analogue of
        ``__call__``)."""
        batch = np.asarray(batch)
        self.check_batch_shape(batch)
        out = self.apply_batch(batch)
        expected = (batch.shape[0],) + self.output_shape
        if tuple(out.shape) != expected:
            raise ShapeError(
                f"{self.name}: produced batch shape {tuple(out.shape)}, "
                f"declared {expected}"
            )
        return out

    @property
    def output_size(self):
        """Number of scalar elements in the output tensor."""
        return int(np.prod(self.output_shape))

    def __repr__(self):
        return (
            f"<{type(self).__name__} {self.name} "
            f"{self.input_shape}->{self.output_shape}>"
        )


class IdentityOp(TensorOp):
    """The identity TensorOp; useful as a no-op flatten stage."""

    def __init__(self, shape, name="identity"):
        super().__init__(shape, shape, name=name)

    def apply(self, tensor):
        return tensor

    def apply_batch(self, batch):
        return batch


class FlattenOp(TensorOp):
    """Flattens a tensor into a vector (Definition 3.5).

    The output is 1-d with length equal to the number of elements of
    the input tensor.
    """

    def __init__(self, input_shape, name="flatten"):
        length = int(np.prod(input_shape))
        super().__init__(input_shape, (length,), name=name)

    def apply(self, tensor):
        return np.ascontiguousarray(tensor).reshape(-1)

    def apply_batch(self, batch):
        return np.ascontiguousarray(batch).reshape(batch.shape[0], -1)


def grid_max_pool(tensor, grid=2):
    """Max-pool a (H, W, C) feature tensor down to a ``grid x grid x C``
    tensor, the dimensionality reduction the paper applies to
    convolutional feature layers before downstream training
    ("reduce the feature tensor to a 2x2 grid of the same depth",
    Section 5 footnote 4).

    Degenerate inputs smaller than the grid are returned unchanged.
    """
    if tensor.ndim != 3:
        raise ShapeError(f"grid_max_pool expects a 3-d tensor, got {tensor.ndim}-d")
    height, width, channels = tensor.shape
    if height < grid or width < grid:
        return tensor
    out = np.empty((grid, grid, channels), dtype=tensor.dtype)
    row_edges = np.linspace(0, height, grid + 1, dtype=int)
    col_edges = np.linspace(0, width, grid + 1, dtype=int)
    for i in range(grid):
        for j in range(grid):
            block = tensor[
                row_edges[i]:row_edges[i + 1], col_edges[j]:col_edges[j + 1], :
            ]
            out[i, j, :] = block.max(axis=(0, 1))
    return out


def grid_max_pool_batch(batch, grid=2):
    """Batched :func:`grid_max_pool` over an (N, H, W, C) stack, with
    the same grid edges: each row band's maximum is a running
    ``np.maximum`` over its rows into an (N, grid, W, C) buffer, each
    cell's a running maximum over its band's columns, so every pass is
    a long contiguous stretch. A one-pixel band is a copy. A maximum
    rounds nothing, so the order is free, except in which zero a cell
    holding both -0.0 and 0.0 keeps.

    Degenerate inputs smaller than the grid are returned unchanged,
    matching the per-image behaviour.
    """
    if batch.ndim != 4:
        raise ShapeError(
            f"grid_max_pool_batch expects a 4-d batch, got {batch.ndim}-d"
        )
    num, height, width, channels = batch.shape
    if height < grid or width < grid:
        return batch
    bands = np.empty((num, grid, width, channels), dtype=batch.dtype)
    out = np.empty((num, grid, grid, channels), dtype=batch.dtype)
    _running_max(batch, bands, np.linspace(0, height, grid + 1, dtype=int),
                 axis=1)
    _running_max(bands, out, np.linspace(0, width, grid + 1, dtype=int),
                 axis=2)
    return out


def _running_max(source, out, edges, axis):
    """``out``'s index ``i`` along ``axis`` is the maximum of
    ``source``'s slices ``edges[i]:edges[i + 1]`` along that axis."""
    lead = (slice(None),) * axis
    for i in range(len(edges) - 1):
        cell = out[lead + (i,)]
        first, stop = edges[i], edges[i + 1]
        np.copyto(cell, source[lead + (first,)])
        for k in range(first + 1, stop):
            np.maximum(cell, source[lead + (k,)], out=cell)
