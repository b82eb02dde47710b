"""DenseNet-mini: a DAG-shaped network as a chain of composite blocks
(paper fn. 1) — the dense block against references written out here,
its static profile against its real weights, and the chain model's
partial inference."""

import numpy as np
import pytest

from repro.cnn import layers as L
from repro.cnn.shapes import LayerSpec, profile_network
from repro.cnn.zoo.densenet import (
    GROWTH_RATE,
    MINI_INPUT_SHAPE,
    build_densenet_mini,
)
from repro.core.plans import ALL_PLANS, Op, compile_plan
from tests.test_cnn_layers import (
    EPS,
    assert_same_bits,
    make_input,
    oracle_conv,
)


@pytest.fixture(scope="module")
def densenet():
    return build_densenet_mini()


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(1).normal(
        size=(3,) + MINI_INPUT_SHAPE
    ).astype(np.float32)


def _layer(model, name):
    return model.layers[model.layer_index(name) - 1]


# ---------------------------------------------------------------------
# the block
# ---------------------------------------------------------------------
@pytest.mark.parametrize("sliced", [False, True])
def test_dense_block_equals_a_written_out_concat_loop(sliced):
    """Bit for bit the concat loop over fresh convs carrying the
    block's own weights, and slab by slab a direct-loop float64
    convolution of everything before the slab."""
    cin, layers, growth = 3, 3, 2
    block = L.DenseBlock((6, 5, cin), layers, growth,
                         rng=np.random.default_rng(5))
    batch = make_input(2, 6, 5, cin, sliced)
    got = block.call_batch(batch)

    expected = batch
    for conv in block.convs:
        fresh = L.Conv2D(conv.input_shape, growth, 3, padding=1,
                         weights=conv.weights, bias=conv.bias, relu=True)
        expected = np.concatenate(
            [expected, fresh.call_batch(expected)], axis=-1
        )
    assert_same_bits(got, expected)
    # one image is a stack of one
    assert_same_bits(block(batch[0]), block.call_batch(batch[:1])[0])

    assert_same_bits(got[..., :cin], np.ascontiguousarray(batch))
    for i, conv in enumerate(block.convs):
        width = cin + i * growth
        want, magnitude = oracle_conv(
            got[..., :width], conv.weights, conv.bias, 1, 1, True
        )
        slab = got[..., width:width + growth]
        assert (np.abs(slab - want) <= (9 * width + 1) * EPS * magnitude).all()


def test_dense_block_profile_matches_its_weights():
    """``param_count`` is the weights and biases the block really
    holds; ``flops`` the closed form 2 * 9 * g * H * W * sum(widths)."""
    h, w, cin, layers, growth = 8, 6, 5, 4, 3
    block = L.DenseBlock((h, w, cin), layers, growth)
    profile = profile_network(
        [LayerSpec("b", "dense_block", {"layers": layers, "growth": growth})],
        (h, w, cin),
    )[0]
    assert profile.output_shape == block.output_shape == (
        h, w, cin + layers * growth
    )
    assert profile.param_count == sum(
        conv.weights.size + conv.bias.size for conv in block.convs
    )
    widths = layers * cin + growth * layers * (layers - 1) // 2
    assert profile.flops == 2 * 9 * growth * h * w * widths


def test_dense_block_concat_widths(densenet):
    """Conv i of a block reads the block's input plus i x growth
    channels; the transition reads all of them."""
    block = _layer(densenet, "block1")
    cin = block.input_shape[2]
    assert [conv.input_shape[2] for conv in block.convs] == [
        cin, cin + GROWTH_RATE, cin + 2 * GROWTH_RATE
    ]
    assert block.output_shape[2] == cin + 3 * GROWTH_RATE
    assert _layer(densenet, "block1_out").input_shape == block.output_shape


# ---------------------------------------------------------------------
# the chain model
# ---------------------------------------------------------------------
def test_feature_nodes(densenet):
    """Feature layers sit on the transitions right after each block,
    never inside one."""
    assert densenet.feature_layers == ["block1_out", "block2_out", "head"]
    for block in ("block1", "block2"):
        assert densenet.layer_name(
            densenet.layer_index(block) + 1
        ) == f"{block}_out"


def test_forward_shapes(densenet, images):
    shapes = {
        layer: densenet.forward_batch(images, upto=layer).shape[1:]
        for layer in densenet.feature_layers
    }
    assert shapes == {
        "block1_out": (16, 16, 8), "block2_out": (8, 8, 8), "head": (8,)
    }


def test_staged_matches_direct(densenet, images):
    """Layer to layer through the stored tensors — what Staged does —
    is the direct pass, bit for bit."""
    stored, previous = images, 0
    for layer in densenet.feature_layers:
        stored = densenet.partial_forward_batch(stored, previous, layer)
        assert_same_bits(stored, densenet.forward_batch(images, upto=layer))
        previous = layer


def test_schedule_runs_each_op_once(densenet):
    """Staged's INFER steps tile the chain: every layer runs in exactly
    one of them. Lazy's each start over from the image."""
    def layers_run(plan):
        return [
            index
            for step in compile_plan(ALL_PLANS[plan], densenet.feature_layers)
            if step.op is Op.INFER
            for index in range(
                densenet.layer_index(step.from_layer)
                if step.from_layer else 0,
                densenet.layer_index(step.outputs[-1][0]),
            )
        ]

    every_layer = list(range(densenet.num_layers))
    assert layers_run("staged") == layers_run("eager") == every_layer
    assert layers_run("lazy").count(0) == len(densenet.feature_layers)


def test_deterministic_build(densenet):
    def weights(model):
        convs = [
            conv for name in ("block1", "block2")
            for conv in _layer(model, name).convs
        ]
        return [op.weights for op in convs + [
            _layer(model, name)
            for name in ("stem", "block1_out", "block2_out", "head")
        ]]

    for mine, same, other in zip(
        weights(densenet), weights(build_densenet_mini()),
        weights(build_densenet_mini(seed=1)),
    ):
        assert np.array_equal(mine, same)
        assert not np.array_equal(mine, other)


def test_partial_from_block1(densenet, images):
    """Resuming from a stored block1_out — a cross-session premat base
    — is the direct pass."""
    stored = densenet.forward_batch(images, upto="block1_out")
    assert_same_bits(
        densenet.partial_forward_batch(stored, "block1_out", "head"),
        densenet.forward_batch(images, upto="head"),
    )
