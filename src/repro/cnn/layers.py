"""Executable CNN layer TensorOps.

Each class here is a :class:`~repro.tensor.ops.TensorOp` over (H, W, C)
feature tensors (or flat vectors for dense layers). Convolution uses
im2col + matmul; everything is plain numpy, single precision.

Every layer implements the batched NHWC contract (``apply_batch`` over
an (N, H, W, C) stack), and for conv, pooling and the composite blocks
that is the only kernel — one image runs as a stack of one. The two
layers that are sums of products are stated as matrix products and run
by BLAS, the SystemML-style formulation: convolution is one batch-wide
im2col (a plain reshape for 1x1) and a single GEMM, with ReLU (and a
bias, for a conv built with one) applied in place on the GEMM output;
LRN's cross-channel window sum is ``squares @ band`` with a fixed
(C, C) band matrix. Pooling reduces shifted slices so that every ufunc
loop runs a long contiguous stretch. Every pass other than a GEMM or
the im2col gather touches exactly the tensor's own elements, and every
kernel casts to float32 once on entry. Batching amortizes per-image
kernel overheads and is what the partition-level executor path runs on.

The ResNet bottleneck block and the DenseNet dense block are
*composite* TensorOps so that the CNN as a whole remains an indexed
chain (Def. 3.4) even though internally a block is a small DAG —
exactly the simplification the paper's footnote 1 makes. Feature
layers sit at block boundaries, never inside a block.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.ops import TensorOp
from repro.cnn.shapes import conv_output_hw
from repro.cnn.weights import he_normal


def _pad_hw_batch(batch, padding, value=0.0):
    """An (N, H, W, C) batch as float32 with ``padding`` cells of
    ``value`` on each spatial side (a view of the batch when it already
    is float32 and there are none to add)."""
    batch = batch.astype(np.float32, copy=False)
    if padding == 0:
        return batch
    n, h, w, c = batch.shape
    padded = np.full(
        (n, h + 2 * padding, w + 2 * padding, c), value, dtype=np.float32
    )
    padded[:, padding:padding + h, padding:padding + w] = batch
    return padded


def _im2col_batch(batch, kernel, stride, out_h, out_w):
    """Extract (N*out_h*out_w, kernel*kernel*C) patches from a whole
    (N, H, W, C) batch at once."""
    n, h, w, c = batch.shape
    if kernel == 1:
        # A 1x1 patch is the pixel itself: a reshape (of a strided
        # slice for the ResNet shortcut), no window gather.
        return batch[:, ::stride, ::stride].reshape(n * out_h * out_w, c)
    strides = batch.strides
    windows = np.lib.stride_tricks.as_strided(
        batch,
        shape=(n, out_h, out_w, kernel, kernel, c),
        strides=(
            strides[0],
            strides[1] * stride,
            strides[2] * stride,
            strides[1],
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    return windows.reshape(n * out_h * out_w, kernel * kernel * c)


class _BatchKernelOp(TensorOp):
    """A TensorOp whose one kernel is the batched one: a single image
    runs as a stack of length 1.

    Kernels never write into their input — stored feature blocks reach
    them as zero-copy views — only into arrays they allocated.
    """

    def apply(self, tensor):
        return self.apply_batch(tensor[None])[0]


class Conv2D(_BatchKernelOp):
    """2-d convolution with optional ReLU fused in, weights shape
    (K, K, Cin, Cout). Built without a ``bias`` it has no bias term at
    run time; ``self.bias`` is then the zeros ``param_count`` reads."""

    def __init__(self, input_shape, filters, kernel, stride=1, padding=0,
                 weights=None, bias=None, relu=False, name="conv"):
        h, w, cin = input_shape
        out_h, out_w = conv_output_hw(h, w, kernel, stride, padding)
        super().__init__(input_shape, (out_h, out_w, filters), name=name)
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.filters = filters
        if weights is None:
            weights = np.zeros((kernel, kernel, cin, filters), dtype=np.float32)
        self.weights = np.asarray(weights, dtype=np.float32)
        self.relu = relu
        self._wmat = self.weights.reshape(kernel * kernel * cin, filters)
        if bias is None:
            self.bias = np.zeros(filters, dtype=np.float32)
            self._bias_row = None
        else:
            self.bias = np.asarray(bias, dtype=np.float32)
            # One image's worth of bias, so the add runs rows of
            # oh*ow*F floats instead of F at a time.
            self._bias_row = np.tile(self.bias, out_h * out_w)

    def apply_batch(self, batch):
        out_h, out_w, _ = self.output_shape
        n = batch.shape[0]
        padded = _pad_hw_batch(batch, self.padding)
        cols = _im2col_batch(padded, self.kernel, self.stride, out_h, out_w)
        out = (cols @ self._wmat).reshape(n, out_h * out_w * self.filters)
        if self._bias_row is not None:
            out += self._bias_row
        if self.relu:
            np.maximum(out, 0.0, out=out)
        return out.reshape(n, out_h, out_w, self.filters)


class _Pool2D(_BatchKernelOp):
    #: Constant used to fill spatial padding before windowing.
    pad_value = 0.0

    def __init__(self, input_shape, kernel, stride=None, padding=0, name="pool"):
        h, w, c = input_shape
        stride = stride or kernel
        out_h, out_w = conv_output_hw(h, w, kernel, stride, padding)
        super().__init__(input_shape, (out_h, out_w, c), name=name)
        self.kernel = kernel
        self.stride = stride
        self.padding = padding

    def _shifted(self, array, axis, shift):
        """The slice of ``array`` holding element ``shift`` of every
        window along ``axis`` (1: rows, 2: columns)."""
        span = self.stride * (self.output_shape[axis - 1] - 1) + 1
        index = [slice(None)] * 4
        index[axis] = slice(shift, shift + span, self.stride)
        return array[tuple(index)]


class MaxPool2D(_Pool2D):
    """Max pooling. Padding uses -inf so pads never win the max.

    Separable: the max over row-shifted slices (contiguous runs of W*C
    floats), then over column-shifted slices of that.
    """

    pad_value = -np.inf

    def apply_batch(self, batch):
        out = _pad_hw_batch(batch, self.padding, self.pad_value)
        for axis in (1, 2):
            # kernel 1 reads shift 0 twice: max(x, x) is the copy
            reduced = np.maximum(
                self._shifted(out, axis, 0),
                self._shifted(out, axis, min(1, self.kernel - 1)),
            )
            for shift in range(2, self.kernel):
                np.maximum(
                    reduced, self._shifted(out, axis, shift), out=reduced
                )
            out = reduced
        return out


class AvgPool2D(_Pool2D):
    """Average pooling (zero-padded).

    Float addition is not associative, so the window is summed in its
    row-major order rather than separably.
    """

    def apply_batch(self, batch):
        padded = _pad_hw_batch(batch, self.padding, self.pad_value)
        total = np.zeros(
            (batch.shape[0],) + self.output_shape, dtype=np.float32
        )
        for row in range(self.kernel):
            rows = self._shifted(padded, 1, row)
            for col in range(self.kernel):
                total += self._shifted(rows, 2, col)
        total /= self.kernel * self.kernel
        return total


class GlobalAvgPool(TensorOp):
    """Global average pooling to a (1, 1, C) tensor."""

    def __init__(self, input_shape, name="global_avgpool"):
        c = input_shape[2]
        super().__init__(input_shape, (1, 1, c), name=name)

    def apply(self, tensor):
        return tensor.mean(axis=(0, 1), dtype=np.float32).reshape(1, 1, -1)

    def apply_batch(self, batch):
        out = batch.mean(axis=(1, 2), dtype=np.float32)
        return out.reshape(batch.shape[0], 1, 1, -1)


class ReLU(TensorOp):
    """Rectified linear non-linearity."""

    def __init__(self, shape, name="relu"):
        super().__init__(shape, shape, name=name)

    def apply(self, tensor):
        return np.maximum(tensor.astype(np.float32, copy=False), 0.0)

    apply_batch = apply


class LocalResponseNorm(TensorOp):
    """AlexNet-style local response normalization across channels.

    The cross-channel sum of squares is a window sum over the (last)
    channel axis, whatever the leading axes, so one kernel serves the
    per-image and the batched path: ``squares @ band``, where
    ``band[i, j]`` is ``alpha`` for ``|i - j| <= depth_radius`` and 0
    elsewhere. A non-finite square therefore reaches every channel of
    its pixel (``inf * 0``), not only its window.
    """

    def __init__(self, shape, depth_radius=2, bias=2.0, alpha=1e-4, beta=0.75,
                 name="lrn"):
        super().__init__(shape, shape, name=name)
        self.depth_radius = depth_radius
        self.bias = bias
        self.alpha = alpha
        self.beta = beta
        channel = np.arange(shape[-1])
        in_window = abs(channel[:, None] - channel) <= depth_radius
        self._band = in_window * np.float32(alpha)

    def _normalize(self, tensor):
        tensor = tensor.astype(np.float32, copy=False)
        denom = np.square(tensor).reshape(-1, tensor.shape[-1]) @ self._band
        denom += self.bias
        np.power(denom, self.beta, out=denom)
        return tensor / denom.reshape(tensor.shape)

    def apply(self, tensor):
        return self._normalize(tensor)

    def apply_batch(self, batch):
        return self._normalize(batch)


class Flatten(TensorOp):
    """Reshape a tensor to a flat vector (the in-network flatten, as
    opposed to the user-facing FlattenOp ``g_l``)."""

    def __init__(self, input_shape, name="flatten"):
        length = int(np.prod(input_shape))
        super().__init__(input_shape, (length,), name=name)

    def apply(self, tensor):
        return np.ascontiguousarray(tensor, dtype=np.float32).reshape(-1)

    def apply_batch(self, batch):
        return np.ascontiguousarray(batch, dtype=np.float32).reshape(
            batch.shape[0], -1
        )


class Dense(TensorOp):
    """Fully connected layer with optional ReLU fused in."""

    def __init__(self, n_in, n_out, weights=None, bias=None, relu=True,
                 name="dense"):
        super().__init__((n_in,), (n_out,), name=name)
        if weights is None:
            weights = np.zeros((n_in, n_out), dtype=np.float32)
        if bias is None:
            bias = np.zeros(n_out, dtype=np.float32)
        self.weights = np.asarray(weights, dtype=np.float32)
        self.bias = np.asarray(bias, dtype=np.float32)
        self.relu = relu

    def apply(self, tensor):
        out = tensor.astype(np.float32, copy=False) @ self.weights + self.bias
        if self.relu:
            np.maximum(out, 0.0, out=out)
        return out

    apply_batch = apply


class BottleneckBlock(_BatchKernelOp):
    """ResNet bottleneck residual block as one composite TensorOp.

    1x1 reduce -> 3x3 (strided) -> 1x1 expand, plus an identity or
    1x1-projection shortcut, ReLU after the add.
    """

    def __init__(self, input_shape, filters, stride=1, rng=None, name="block"):
        h, w, cin = input_shape
        cout = 4 * filters
        out_h, out_w = conv_output_hw(h, w, 3, stride, 1)
        super().__init__(input_shape, (out_h, out_w, cout), name=name)
        rng = rng or np.random.default_rng(0)
        self.reduce = Conv2D(
            input_shape, filters, 1,
            weights=he_normal(rng, (1, 1, cin, filters), cin), relu=True,
            name=f"{name}/reduce",
        )
        self.conv3 = Conv2D(
            self.reduce.output_shape, filters, 3, stride=stride, padding=1,
            weights=he_normal(rng, (3, 3, filters, filters), 9 * filters),
            relu=True, name=f"{name}/conv3",
        )
        self.expand = Conv2D(
            self.conv3.output_shape, cout, 1,
            weights=he_normal(rng, (1, 1, filters, cout), filters),
            name=f"{name}/expand",
        )
        if stride != 1 or cin != cout:
            self.shortcut = Conv2D(
                input_shape, cout, 1, stride=stride,
                weights=he_normal(rng, (1, 1, cin, cout), cin),
                name=f"{name}/shortcut",
            )
        else:
            self.shortcut = None

    def apply_batch(self, batch):
        batch = batch.astype(np.float32, copy=False)
        out = self.expand.apply_batch(
            self.conv3.apply_batch(self.reduce.apply_batch(batch))
        )
        out += self.shortcut.apply_batch(batch) if self.shortcut else batch
        np.maximum(out, 0.0, out=out)
        return out

    def param_count(self):
        count = self.reduce.weights.size + self.reduce.bias.size
        count += self.conv3.weights.size + self.conv3.bias.size
        count += self.expand.weights.size + self.expand.bias.size
        if self.shortcut:
            count += self.shortcut.weights.size + self.shortcut.bias.size
        return int(count)


class DenseBlock(_BatchKernelOp):
    """DenseNet dense block as one composite TensorOp: ``layers`` 3x3
    convs (ReLU fused), each reading the channel concatenation of the
    block's input and every earlier conv's output and appending
    ``growth`` channels to it."""

    def __init__(self, input_shape, layers, growth, rng=None, name="block"):
        h, w, cin = input_shape
        cout = cin + layers * growth
        super().__init__(input_shape, (h, w, cout), name=name)
        rng = rng or np.random.default_rng(0)
        self.convs = [
            Conv2D(
                (h, w, width), growth, 3, padding=1,
                weights=he_normal(rng, (3, 3, width, growth), 9 * width),
                relu=True, name=f"{name}/conv{i + 1}",
            )
            for i, width in enumerate(range(cin, cout, growth))
        ]

    def apply_batch(self, batch):
        out = batch.astype(np.float32, copy=False)
        for conv in self.convs:
            out = np.concatenate([out, conv.apply_batch(out)], axis=-1)
        return out
