"""Unit tests for the executable CNN layer TensorOps.

Two kinds of reference live here. The *oracles* are direct-loop float64
implementations written from the layer definitions, independent of the
kernels; the float32 kernels must agree with them within a rounding
budget derived per output element. The *retired formulations* are the
conv and pooling kernels this repository ran before the current ones
replaced them; the replacements must reproduce their float32 bits
exactly. LRN has no such twin: its window sum is a GEMM whose summation
order is BLAS's own, so it is held to the oracle and to properties of
the band formulation.
"""

import numpy as np
import pytest

from repro.cnn import layers as L

EPS = float(np.finfo(np.float32).eps)


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (1, 1)])
def test_conv2d_matches_naive(stride, padding):
    rng = np.random.default_rng(0)
    tensor = rng.normal(size=(6, 6, 3)).astype(np.float32)
    weights = rng.normal(size=(3, 3, 3, 4)).astype(np.float32)
    bias = rng.normal(size=4).astype(np.float32)
    conv = L.Conv2D((6, 6, 3), 4, 3, stride=stride, padding=padding,
                    weights=weights, bias=bias)
    expected, _ = oracle_conv(tensor[None], weights, bias, stride, padding,
                              relu=False)
    np.testing.assert_allclose(conv(tensor), expected[0], rtol=1e-4, atol=1e-5)


def test_conv2d_output_shape():
    conv = L.Conv2D((8, 8, 3), 16, 3, stride=2, padding=1)
    assert conv.output_shape == (4, 4, 16)


def test_maxpool_matches_manual():
    tensor = np.arange(16.0, dtype=np.float32).reshape(4, 4, 1)
    pool = L.MaxPool2D((4, 4, 1), 2)
    out = pool(tensor)
    assert out.shape == (2, 2, 1)
    assert out[0, 0, 0] == 5.0
    assert out[1, 1, 0] == 15.0


def test_maxpool_with_stride():
    tensor = np.arange(25.0, dtype=np.float32).reshape(5, 5, 1)
    pool = L.MaxPool2D((5, 5, 1), 3, stride=2)
    out = pool(tensor)
    assert out.shape == (2, 2, 1)
    assert out[0, 0, 0] == 12.0


def test_maxpool_pads_with_neg_inf():
    """Regression: zero padding must never beat negative activations
    (the docstring always promised -inf pads)."""
    tensor = np.full((2, 2, 1), -3.0, dtype=np.float32)
    pool = L.MaxPool2D((2, 2, 1), 2, stride=2, padding=1)
    out = pool(tensor)
    assert out.shape == (2, 2, 1)
    np.testing.assert_array_equal(out, np.full((2, 2, 1), -3.0))
    batched = pool.apply_batch(tensor[None, ...])
    np.testing.assert_array_equal(batched[0], out)


def test_avgpool_values():
    tensor = np.arange(16.0, dtype=np.float32).reshape(4, 4, 1)
    out = L.AvgPool2D((4, 4, 1), 2)(tensor)
    assert out[0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)


def test_global_avgpool():
    tensor = np.ones((3, 3, 5), dtype=np.float32) * 2.0
    out = L.GlobalAvgPool((3, 3, 5))(tensor)
    assert out.shape == (1, 1, 5)
    np.testing.assert_allclose(out.ravel(), 2.0)


def test_relu_clamps_negatives():
    tensor = np.array([[-1.0, 2.0]], dtype=np.float32)
    out = L.ReLU((1, 2))(tensor)
    assert np.array_equal(out, [[0.0, 2.0]])


def test_lrn_preserves_shape_and_reduces_magnitude():
    rng = np.random.default_rng(0)
    tensor = rng.normal(size=(4, 4, 8)).astype(np.float32) * 10
    out = L.LocalResponseNorm((4, 4, 8))(tensor)
    assert out.shape == tensor.shape
    assert np.abs(out).max() <= np.abs(tensor).max()
    assert np.sign(out[0, 0, 0]) == np.sign(tensor[0, 0, 0])


def test_flatten_layer():
    out = L.Flatten((2, 2, 2))(np.arange(8.0, dtype=np.float32).reshape(2, 2, 2))
    assert np.array_equal(out, np.arange(8.0))


def test_dense_with_and_without_relu():
    weights = np.array([[1.0], [-1.0]], dtype=np.float32)
    dense_relu = L.Dense(2, 1, weights=weights, relu=True)
    dense_lin = L.Dense(2, 1, weights=weights, relu=False)
    x = np.array([0.0, 2.0], dtype=np.float32)
    assert dense_relu(x)[0] == 0.0
    assert dense_lin(x)[0] == -2.0


def test_dense_bias():
    dense = L.Dense(2, 2, weights=np.zeros((2, 2), dtype=np.float32),
                    bias=np.array([1.0, -5.0], dtype=np.float32), relu=False)
    out = dense(np.zeros(2, dtype=np.float32))
    assert np.array_equal(out, [1.0, -5.0])


def test_bottleneck_identity_shortcut_shape():
    rng = np.random.default_rng(1)
    block = L.BottleneckBlock((8, 8, 16), 4, stride=1, rng=rng)
    out = block(rng.normal(size=(8, 8, 16)).astype(np.float32))
    assert out.shape == (8, 8, 16)
    assert block.shortcut is None


def test_bottleneck_projection_shortcut():
    rng = np.random.default_rng(1)
    block = L.BottleneckBlock((8, 8, 8), 4, stride=2, rng=rng)
    out = block(rng.normal(size=(8, 8, 8)).astype(np.float32))
    assert out.shape == (4, 4, 16)
    assert block.shortcut is not None


def test_bottleneck_output_nonnegative():
    rng = np.random.default_rng(2)
    block = L.BottleneckBlock((4, 4, 8), 2, rng=rng)
    out = block(rng.normal(size=(4, 4, 8)).astype(np.float32))
    assert (out >= 0).all()


def test_bottleneck_param_count_matches_profile():
    from repro.cnn.shapes import LayerSpec, profile_network

    rng = np.random.default_rng(0)
    block = L.BottleneckBlock((8, 8, 8), 4, stride=2, rng=rng)
    profile = profile_network(
        [LayerSpec("b", "bottleneck", {"filters": 4, "stride": 2})],
        (8, 8, 8),
    )[0]
    assert block.param_count() == profile.param_count


# ---------------------------------------------------------------------
# Independent float64 oracles and the retired float32 formulations
# ---------------------------------------------------------------------

#: (kernel, stride, padding), overlapping windows included.
GEOMETRIES = [
    (2, 2, 0), (3, 2, 0), (3, 2, 1), (3, 1, 1), (3, 3, 0), (1, 1, 0),
    (1, 2, 0), (5, 2, 2),
]
#: (batch, height, width, channels, sliced): batch of 1, odd sizes, a
#: single channel, and inputs that are non-contiguous views.
INPUTS = [
    (1, 9, 9, 5, False), (3, 8, 10, 4, False), (2, 7, 7, 1, False),
    (1, 9, 9, 5, True), (3, 8, 10, 4, True),
]


def make_input(batch, h, w, c, sliced, seed=0):
    """``sliced`` is False (a fresh contiguous array), True (a strided
    view of a wider parent) or ``"read-only"`` (a contiguous view, not
    at its buffer's start, that refuses writes)."""
    rng = np.random.default_rng([seed, batch, h, w, c])
    if sliced == "read-only":
        parent = (rng.normal(size=(batch + 1, h, w, c)) * 4).astype(
            np.float32
        )
        parent.flags.writeable = False
        return parent[1:]
    if not sliced:
        return (rng.normal(size=(batch, h, w, c)) * 4).astype(np.float32)
    parent = (rng.normal(size=(batch, h, 2 * w, c + 3)) * 4).astype(
        np.float32
    )
    view = parent[:, :, ::2, 1:1 + c]
    assert not view.flags.c_contiguous
    return view


def padded_windows(batch, kernel, stride, padding, pad_value):
    """The float64 padded batch, its pooled/convolved (out_h, out_w),
    and a function giving window (i, j) of image n."""
    n, h, w, c = batch.shape
    padded = np.full((n, h + 2 * padding, w + 2 * padding, c), pad_value)
    padded[:, padding:padding + h, padding:padding + w] = batch
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1

    def window(image, i, j):
        return padded[image, i * stride:i * stride + kernel,
                      j * stride:j * stride + kernel]

    return out_h, out_w, window


def oracle_conv(batch, weights, bias, stride, padding, relu):
    """Direct-loop float64 convolution. Also returns, per output, the
    sum of absolute terms that bounds float32 accumulation error."""
    kernel, _, _, filters = weights.shape
    w64, b64 = weights.astype(np.float64), bias.astype(np.float64)
    out_h, out_w, window = padded_windows(batch, kernel, stride, padding, 0.0)
    out = np.empty((len(batch), out_h, out_w, filters))
    magnitude = np.empty_like(out)
    for index in np.ndindex(*out.shape):
        image, i, j, f = index
        terms = window(image, i, j) * w64[..., f]
        out[index] = terms.sum() + b64[f]
        magnitude[index] = np.abs(terms).sum() + abs(b64[f])
    return (np.maximum(out, 0.0) if relu else out), magnitude


def oracle_pool(batch, kernel, stride, padding, mode):
    """Direct-loop float64 max / average pooling, with the per-output
    sum of absolute inputs for the average's error bound."""
    out_h, out_w, window = padded_windows(
        batch, kernel, stride, padding, -np.inf if mode == "max" else 0.0
    )
    out = np.empty((len(batch), out_h, out_w, batch.shape[3]))
    magnitude = np.empty_like(out)
    for index in np.ndindex(*out.shape):
        image, i, j, ch = index
        values = window(image, i, j)[:, :, ch]
        out[index] = values.max() if mode == "max" else values.mean()
        magnitude[index] = np.abs(values).sum()
    return out, magnitude


def oracle_lrn(batch, radius, bias, alpha, beta):
    """Direct-loop float64 local response normalization, ``x / d **
    beta`` with ``np.power``."""
    x = batch.astype(np.float64)
    out = np.empty_like(x)
    channels = x.shape[-1]
    for ch in range(channels):
        lo, hi = max(0, ch - radius), min(channels, ch + radius + 1)
        scale = (x[..., lo:hi] ** 2).sum(axis=-1)
        out[..., ch] = x[..., ch] / (bias + alpha * scale) ** beta
    return out


def retired_windows(batch, kernel, stride, padding, pad_value):
    """The 6-d strided window view the pooling and conv kernels used."""
    padded = np.pad(
        batch, ((0, 0), (padding, padding), (padding, padding), (0, 0)),
        mode="constant", constant_values=pad_value,
    )
    n, h, w, c = padded.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    strides = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded,
        shape=(n, out_h, out_w, kernel, kernel, c),
        strides=(strides[0], strides[1] * stride, strides[2] * stride,
                 strides[1], strides[2], strides[3]),
        writeable=False,
    )


def retired_conv(batch, weights, bias, stride, padding, relu):
    kernel, _, cin, filters = weights.shape
    windows = retired_windows(batch, kernel, stride, padding, 0.0)
    n, out_h, out_w = windows.shape[:3]
    cols = windows.reshape(n * out_h * out_w, kernel * kernel * cin)
    out = cols @ weights.reshape(kernel * kernel * cin, filters) + bias
    out = out.reshape(n, out_h, out_w, filters)
    return np.maximum(out, 0.0) if relu else out


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float32
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def same_as_retired(op, batch, retired):
    """Run ``op`` over ``batch`` and over each image alone, assert both
    carry the bits of ``retired`` (batch -> array) and return the
    batched result. The per-image GEMM has other dimensions than the
    batched one, so each is held to the retired call of its own shape."""
    out = op.call_batch(batch)
    assert_same_bits(out, retired(batch))
    for image in batch:
        assert_same_bits(op(image), retired(image[None])[0])
    return out


#: An unpadded conv wider than 1x1 gathers from the input itself, not
#: from a padded copy: besides INPUTS' strided views, a read-only view
#: that starts inside its buffer.
UNPADDED_VIEWS = [(2, 9, 9, 5, "read-only"), (2, 8, 10, 4, "read-only")]


@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES + [(1, 1, 1)])
@pytest.mark.parametrize("n,h,w,c,sliced", INPUTS + UNPADDED_VIEWS)
def test_conv2d_against_oracle_and_retired(n, h, w, c, sliced, kernel,
                                           stride, padding, relu):
    batch = make_input(n, h, w, c, sliced)
    rng = np.random.default_rng(kernel * 100 + stride * 10 + padding)
    weights = rng.normal(size=(kernel, kernel, c, 6)).astype(np.float32)
    bias = rng.normal(size=6).astype(np.float32)
    conv = L.Conv2D((h, w, c), 6, kernel, stride=stride, padding=padding,
                    weights=weights, bias=bias, relu=relu)
    got = same_as_retired(
        conv, batch,
        lambda x: retired_conv(x, weights, bias, stride, padding, relu),
    )
    want, magnitude = oracle_conv(batch, weights, bias, stride, padding, relu)
    # Budget: the K-term dot product plus bias accumulates, in any
    # summation order, at most (K + 1) * eps/2 of sum|x*w| + |b|;
    # doubled for slack.
    terms = kernel * kernel * c + 1
    assert (np.abs(got - want) <= terms * EPS * magnitude).all()


@pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
@pytest.mark.parametrize("n,h,w,c,sliced", INPUTS)
def test_maxpool_against_oracle_and_retired(n, h, w, c, sliced, kernel,
                                            stride, padding):
    batch = make_input(n, h, w, c, sliced)
    pool = L.MaxPool2D((h, w, c), kernel, stride=stride, padding=padding)
    got = same_as_retired(
        pool, batch,
        lambda x: retired_windows(
            x, kernel, stride, padding, -np.inf
        ).max(axis=(3, 4)),
    )
    want, _ = oracle_pool(batch, kernel, stride, padding, "max")
    # max rounds nothing: the float64 oracle must match exactly
    assert np.array_equal(got.astype(np.float64), want)


@pytest.mark.parametrize("kernel,stride,padding", GEOMETRIES)
@pytest.mark.parametrize("n,h,w,c,sliced", INPUTS)
def test_avgpool_against_oracle_and_retired(n, h, w, c, sliced, kernel,
                                            stride, padding):
    batch = make_input(n, h, w, c, sliced)
    pool = L.AvgPool2D((h, w, c), kernel, stride=stride, padding=padding)
    got = pool.call_batch(batch)
    if c > 1:
        # With a single channel numpy coalesces the channel axis into
        # the window's column axis and the retired reduction sums each
        # window row first; for every real channel count it sums the
        # window in row-major order, which is the order the kernel keeps.
        same_as_retired(
            pool, batch,
            lambda x: retired_windows(
                x, kernel, stride, padding, 0.0
            ).mean(axis=(3, 4), dtype=np.float32),
        )
    want, magnitude = oracle_pool(batch, kernel, stride, padding, "avg")
    # k*k - 1 adds, each rounding at most eps/2 of the window's
    # sum|x|, then the divide by k*k and its own rounding: at most
    # (eps/2) * sum|x| in all, doubled for slack.
    budget = EPS * magnitude
    assert (np.abs(got - want) <= budget).all()


def lrn_within_budget(lrn, got, x):
    """``got`` is float32, shaped like ``x``, and within the rounding
    budget of the float64 oracle over ``x`` as float32 (what the kernel
    computes on). Relative budget, counting roundings of at most eps/2:
    a square and the alpha product per window term and 2r adds reach
    the scale (2r + 3; the band's zeros add exactly nothing), and the
    bias add makes 2r + 4 in the denominator ``d``. ``d ** 0.75`` runs
    as ``sqrt(d * sqrt(d))``: the exponent carries d's error at 3/4,
    the inner root and the product each add one rounding that the outer
    root halves, and the outer root adds its own: two in all. The
    divide adds one, 2r + 7 at most. A whole eps per rounding leaves
    most of a factor of two on top."""
    x = x.astype(np.float32)
    radius = lrn.depth_radius
    want = oracle_lrn(x, radius, lrn.bias, lrn.alpha, lrn.BETA)
    assert got.dtype == np.float32
    assert got.shape == x.shape
    np.testing.assert_allclose(got, want, rtol=(2 * radius + 6) * EPS, atol=0)


def test_lrn_power_is_within_one_ulp_of_powf():
    """``sqrt(d * sqrt(d))`` against ``np.power(d, 0.75)`` on every
    float32 in [2, 4): ``d`` is ``bias + alpha * sum of squares``, at
    least the bias 2, and AlexNet-mini's two LRN layers read at most
    2.007 over the 2,048 Foods images. Measured there: no value is more
    than one ulp apart, about 28 % are one apart (both are within
    1.08 ulp of the exact power)."""
    lrn = L.LocalResponseNorm((1, 1, 1))
    start = np.float32(lrn.bias).view(np.int32)
    stop = np.float32(2 * lrn.bias).view(np.int32)
    for lo in range(start, stop, 1 << 20):
        d = np.arange(lo, min(lo + (1 << 20), stop), dtype=np.int32).view(
            np.float32
        )
        roots = np.sqrt(d * np.sqrt(d))
        powf = np.power(d, np.float32(lrn.BETA))
        assert roots.dtype == powf.dtype == np.float32
        ulps = roots.view(np.int32) - powf.view(np.int32)
        assert np.abs(ulps).max() <= 1


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
@pytest.mark.parametrize("n,h,w,c,sliced", INPUTS + [(2, 4, 4, 16, False)])
def test_lrn_against_oracle_and_retired(n, h, w, c, sliced, radius):
    """Covers C < 2r + 1 (1, 4 and 5 channels against windows up to 7).
    (The id predates the band GEMM; there is no retired LRN to match.)
    The batched GEMM has other dimensions than the per-image one, so
    each is held to the oracle, and bits only to a call of its own
    shape: an image alone is the batch of that one image."""
    batch = make_input(n, h, w, c, sliced)
    lrn = L.LocalResponseNorm((h, w, c), depth_radius=radius)
    lrn_within_budget(lrn, lrn.call_batch(batch), batch)
    for image in batch:
        got = lrn(image)
        lrn_within_budget(lrn, got, image)
        assert_same_bits(got, lrn.call_batch(image[None])[0])


@pytest.mark.parametrize(
    "layout", ["contiguous", "sliced", "read-only", "float64"]
)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("c", [1, 2, 3, 7, 8, 16])
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_lrn_shared_gap_buffer_keeps_the_padded_kernels_bits(radius, c, n,
                                                             layout):
    """Properties of the band formulation (the id predates it): one
    kernel whatever the leading axes — batched, empty, and on a bare
    channel vector; the band is built once; and a channel outside a
    window contributes an exact zero to it."""
    batch = make_input(n, 3, 5, c, layout == "sliced", seed=radius)
    if layout == "read-only":
        batch.flags.writeable = False
    if layout == "float64":
        batch = batch.astype(np.float64) + 1e-9
    lrn = L.LocalResponseNorm((3, 5, c), depth_radius=radius)
    band = lrn._band
    assert band.shape == (c, c) and band.dtype == np.float32
    channel = np.arange(c)
    assert np.array_equal(
        band != 0, abs(channel[:, None] - channel) <= radius
    )

    out = lrn.apply_batch(batch)
    lrn_within_budget(lrn, out, batch)
    assert_same_bits(lrn.apply_batch(batch), out)
    assert lrn._band is band
    pixel = batch[0, 1, 2]
    lrn_within_budget(lrn, lrn.apply(pixel), pixel)
    assert_same_bits(lrn.apply(pixel), lrn.apply_batch(pixel[None])[0])
    lrn_within_budget(lrn, lrn.apply_batch(batch[:0]), batch[:0])

    # Channel 0 changes; every channel further than r from it keeps
    # its bits (x + 0 is x in any summation order).
    changed = np.array(batch, dtype=np.float32)
    changed[..., 0] *= 3.0
    assert_same_bits(
        lrn.apply_batch(changed)[..., radius + 1:], out[..., radius + 1:]
    )


def test_ops_called_with_float64_compute_in_float32():
    """Regression: an op called directly with float64 used to compute
    LRN in float64 and round at the end (and Dense and ReLU to return
    float64 outright), so ``op(x)`` and ``CNN.forward(x)`` (which casts
    first) disagreed in the last bits."""
    batch64 = make_input(2, 8, 8, 6, False).astype(np.float64) + 1e-9
    rng = np.random.default_rng(0)
    ops = [
        L.LocalResponseNorm((8, 8, 6)),
        L.MaxPool2D((8, 8, 6), 3, stride=2, padding=1),
        L.AvgPool2D((8, 8, 6), 3, stride=2, padding=1),
        L.Conv2D((8, 8, 6), 4, 3, padding=1,
                 weights=np.ones((3, 3, 6, 4), dtype=np.float32)),
        L.BottleneckBlock((8, 8, 6), 2, rng=np.random.default_rng(0)),
        L.DenseBlock((8, 8, 6), 2, 3, rng=np.random.default_rng(0)),
        L.ReLU((8, 8, 6)),
        L.GlobalAvgPool((8, 8, 6)),
        L.Flatten((8, 8, 6)),
        L.Dense(8 * 8 * 6, 5, relu=False,
                weights=rng.normal(size=(8 * 8 * 6, 5)).astype(np.float32),
                bias=rng.normal(size=5).astype(np.float32)),
    ]
    for op in ops:
        x64 = batch64.reshape((2,) + op.input_shape)
        x32 = x64.astype(np.float32)
        assert_same_bits(op.call_batch(x64), op.call_batch(x32))
        assert_same_bits(op(x64[0]), op(x32[0]))


def test_kernels_leave_their_input_alone():
    """In-place epilogues may only touch arrays the kernel allocated."""
    batch = make_input(2, 8, 8, 8, False)
    batch.flags.writeable = False
    before = batch.tobytes()
    rng = np.random.default_rng(0)
    ops = [
        L.Conv2D((8, 8, 8), 4, 1, relu=True,
                 weights=rng.normal(size=(1, 1, 8, 4)).astype(np.float32)),
        L.Conv2D((8, 8, 8), 4, 3, padding=1, relu=True,
                 weights=rng.normal(size=(3, 3, 8, 4)).astype(np.float32)),
        L.MaxPool2D((8, 8, 8), 1),
        L.MaxPool2D((8, 8, 8), 2),
        L.AvgPool2D((8, 8, 8), 2),
        L.LocalResponseNorm((8, 8, 8)),
        # radius 0: a diagonal band
        L.LocalResponseNorm((8, 8, 8), depth_radius=0),
        L.BottleneckBlock((8, 8, 8), 2, rng=rng),  # identity shortcut
        L.DenseBlock((8, 8, 8), 2, 4, rng=rng),
    ]
    for op in ops:
        out = op.call_batch(batch)
        assert not np.shares_memory(out, batch), op.name
        op(batch[0])
    assert batch.tobytes() == before
