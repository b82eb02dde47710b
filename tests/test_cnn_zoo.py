"""Unit tests for the model zoo and roster statistics."""

import copy

import numpy as np
import pytest

from repro.cnn import MODEL_ROSTER, build_model, get_model_stats
from repro.cnn import layers as L
from repro.cnn.zoo.roster import GB
from repro.exceptions import InvalidLayerError
from repro.tensor.ops import TensorOp


def test_roster_has_the_three_paper_models():
    assert set(MODEL_ROSTER) == {"alexnet", "vgg16", "resnet50"}


def test_unknown_model_rejected():
    with pytest.raises(InvalidLayerError):
        get_model_stats("inception")
    with pytest.raises(InvalidLayerError):
        build_model("inception")


def test_invalid_profile_rejected():
    with pytest.raises(ValueError):
        build_model("alexnet", profile="huge")


@pytest.mark.parametrize("name,expected", [
    ("alexnet", ["conv5", "fc6", "fc7", "fc8"]),
    ("vgg16", ["fc6", "fc7", "fc8"]),
    ("resnet50", ["conv4_6", "conv5_1", "conv5_2", "conv5_3", "fc6"]),
])
def test_paper_feature_layer_sets(name, expected):
    assert get_model_stats(name).feature_layers == expected


def test_mini_and_full_share_layer_names():
    for name in MODEL_ROSTER:
        mini = build_model(name, profile="mini")
        stats = get_model_stats(name)
        assert mini.feature_layers == stats.feature_layers


def test_serialized_size_is_param_bytes():
    stats = get_model_stats("vgg16")
    assert stats.serialized_bytes == 4 * stats.total_params


def test_runtime_footprint_exceeds_serialized():
    """The paper: serialized formats underestimate in-memory size."""
    for name in MODEL_ROSTER:
        stats = get_model_stats(name)
        assert stats.runtime_mem_bytes > stats.serialized_bytes


def test_vgg_has_largest_runtime_footprint():
    mems = {n: get_model_stats(n).runtime_mem_bytes for n in MODEL_ROSTER}
    assert max(mems, key=mems.get) == "vgg16"


def test_gpu_footprints_fit_titan_x_at_low_parallelism():
    for name in MODEL_ROSTER:
        assert get_model_stats(name).gpu_mem_bytes < 12 * GB


def test_flops_between_consecutive_layers_positive():
    stats = get_model_stats("resnet50")
    layers = stats.feature_layers
    for lower, upper in zip(layers, layers[1:]):
        assert stats.flops_between(lower, upper) >= 0


def test_flops_between_rejects_reversed():
    stats = get_model_stats("alexnet")
    with pytest.raises(InvalidLayerError):
        stats.flops_between("fc8", "conv5")


def test_transfer_dim_pools_conv_layers():
    stats = get_model_stats("alexnet")
    conv5 = stats.layer_stats("conv5")
    assert conv5.output_shape == (13, 13, 256)
    assert conv5.transfer_dim == 2 * 2 * 256  # pooled to a 2x2 grid
    fc6 = stats.layer_stats("fc6")
    assert fc6.transfer_dim == 4096  # flat layers pass through


def test_materialized_bytes_unpooled():
    stats = get_model_stats("resnet50")
    assert stats.materialized_bytes("conv4_6") == 4 * 14 * 14 * 1024


def test_lazy_redundancy_example_from_paper():
    """Section 4.2.1: extracting fc7 independently of fc8 incurs ~99%
    redundant computation, because fc8's path is a superset."""
    stats = get_model_stats("alexnet")
    fc7 = stats.layer_stats("fc7").flops_from_input
    fc8 = stats.layer_stats("fc8").flops_from_input
    assert fc7 / fc8 > 0.99


def test_mini_models_execute_and_are_small():
    for name in MODEL_ROSTER:
        model = build_model(name, profile="mini")
        image = np.zeros(model.input_shape, dtype=np.float32)
        out = model.forward(image)
        assert out.ndim == 1


def test_profiles_attached_to_built_models():
    model = build_model("resnet50", profile="mini")
    assert len(model.profiles) == model.num_layers


def _parameter_arrays(op):
    """Every weight and bias array an op really holds, composite
    blocks' inner convs included."""
    found = [op.weights, op.bias] if hasattr(op, "weights") else []
    for value in vars(op).values():
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, TensorOp):
                found += _parameter_arrays(item)
    return found


@pytest.mark.parametrize("name, footprint", [
    ("alexnet", 115_608), ("vgg16", 283_608), ("resnet50", 355_800),
    ("densenet-mini", 117_600),
])
def test_one_description_of_an_executable_model(name, footprint):
    """``cnn.stats`` is the executable model's ``ModelStats`` — the
    class and constructor of the roster's, over the profiles of the
    network that runs — and it is what ``executable_model_stats``
    returns. Its footprints are three times the bytes of the weights
    the layers really hold."""
    from repro.cnn.zoo.densenet import build_densenet_mini
    from repro.costmodel.cnn_cost import executable_model_stats

    roster = MODEL_ROSTER.get(name)
    model = build_model(name) if roster else build_densenet_mini()
    stats = model.stats
    assert executable_model_stats(model) is stats
    assert type(stats) is type(get_model_stats("alexnet"))
    assert stats.name == model.name == name
    assert stats.profiles is model.profiles
    assert stats.feature_layers == model.feature_layers
    assert stats.input_shape == tuple(model.input_shape)
    assert stats.top_feature_layers(2) == model.top_feature_layers(2)
    assert stats.serialized_ratio == (
        roster.serialized_ratio if roster else 0.4
    )
    held = sum(
        array.nbytes for op in model.layers for array in _parameter_arrays(op)
    )
    assert stats.serialized_bytes == held
    assert stats.runtime_mem_bytes == stats.gpu_mem_bytes == 3 * held
    assert 3 * held == footprint
    for lower, upper in zip([None] + model.feature_layers,
                            model.feature_layers):
        assert stats.flops_between(lower, upper) == model.flops_between(
            lower, upper
        )


def _frozen(array):
    array = np.array(array, dtype=np.float32)
    array.flags.writeable = False
    return array


def _assert_never_writes_its_input(model):
    """Stored feature blocks reach the kernels as zero-copy views of a
    cached partition, so a kernel that finished its arithmetic in place
    on its *input* would corrupt the cache. A read-only array makes any
    such write raise; the bytes are compared as well."""
    rng = np.random.default_rng(3)
    images = _frozen(rng.normal(size=(3,) + model.input_shape))
    before = images.tobytes()
    top = model.feature_layers[-1]
    direct = model.forward_batch(images, upto=top)
    model.forward(images[0])
    for layer in model.feature_layers:
        stored = _frozen(model.forward_batch(images, upto=layer))
        stored_before = stored.tobytes()
        resumed = model.partial_forward_batch(stored, layer, top)
        assert np.array_equal(resumed, direct)
        model.partial_forward(stored[0], layer, top)
        assert stored.tobytes() == stored_before
    assert images.tobytes() == before


@pytest.mark.parametrize("name", sorted(MODEL_ROSTER))
def test_chain_inference_never_writes_its_input(name):
    _assert_never_writes_its_input(build_model(name, profile="mini"))


def test_dag_inference_never_writes_its_input():
    """A dense block grows its input by concatenation — into a new
    array, never the stored one."""
    from repro.cnn.zoo.densenet import build_densenet_mini

    _assert_never_writes_its_input(build_densenet_mini())


def _with_explicit_zero_biases(op):
    """A twin of ``op`` whose every conv — itself, or a composite
    block's inner ones — was built with an explicit zeros bias."""
    if isinstance(op, L.Conv2D):
        assert op._bias_row is None, f"{op.name}: zoo convs carry no bias"
        return L.Conv2D(
            op.input_shape, op.filters, op.kernel, stride=op.stride,
            padding=op.padding, weights=op.weights,
            bias=np.zeros(op.filters, dtype=np.float32), relu=op.relu,
            name=op.name,
        )
    twin = copy.copy(op)
    for key, value in vars(op).items():
        if isinstance(value, TensorOp):
            setattr(twin, key, _with_explicit_zero_biases(value))
        elif isinstance(value, list):
            setattr(twin, key, [_with_explicit_zero_biases(v) for v in value])
    return twin


@pytest.mark.parametrize("name", sorted(MODEL_ROSTER) + ["densenet-mini"])
def test_bias_free_convs_equal_explicit_zero_bias_and_never_tile(
        name, monkeypatch):
    """A conv built without a bias has no bias pass at run time — and
    on every zoo shape that is the same output as adding zeros. The
    zeros array stays, so every parameter count does too."""
    from repro.cnn.zoo.densenet import build_densenet_mini

    def no_tile(*args, **kwargs):
        raise AssertionError("np.tile called inside apply_batch")

    model = build_model(name) if name in MODEL_ROSTER else build_densenet_mini()
    rng = np.random.default_rng(5)
    checked = 0
    for op in model.layers:
        if not any(a.ndim == 4 for a in _parameter_arrays(op)):
            continue
        twin = _with_explicit_zero_biases(op)
        assert [a.shape for a in _parameter_arrays(twin)] == [
            a.shape for a in _parameter_arrays(op)
        ]
        if hasattr(op, "param_count"):
            assert twin.param_count() == op.param_count()
        batch = rng.normal(size=(3,) + op.input_shape).astype(np.float32)
        with monkeypatch.context() as patch:
            patch.setattr(np, "tile", no_tile)
            got, want = op.call_batch(batch), twin.call_batch(batch)
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got, want), op.name
        checked += 1
    assert checked
