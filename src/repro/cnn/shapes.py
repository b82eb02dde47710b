"""Static shape and FLOP inference for CNN layer specifications.

Architectures in the zoo are described as lists of :class:`LayerSpec`
values. This module computes, without allocating any weights, the
output shape, parameter count, and FLOP cost of every layer — the
numbers the Vista optimizer and the cost model need (layer sizes feed
Eq. 16's intermediate-table estimates; FLOPs feed the redundancy
analysis of Section 4.2.1).

FLOP conventions (multiply-add counted as 2 FLOPs):
  conv:  2 * Kh * Kw * Cin * Cout * Hout * Wout
  dense: 2 * n_in * n_out
  pool / relu / lrn / batchnorm: one pass over the output elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ShapeError


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one CNN layer.

    ``kind`` is one of: conv, maxpool, avgpool, global_avgpool, relu,
    lrn, dense, flatten, bottleneck, dense_block. ``params`` holds
    kind-specific settings.
    ``feature_layer`` marks layers exposed for feature transfer.
    """

    name: str
    kind: str
    params: dict = field(default_factory=dict)
    feature_layer: bool = False


def conv_output_hw(height, width, kernel, stride, padding):
    """Spatial output dims of a conv/pool with symmetric padding."""
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"kernel {kernel} stride {stride} padding {padding} collapses "
            f"spatial dims {height}x{width}"
        )
    return out_h, out_w


@dataclass(frozen=True)
class LayerProfile:
    """Statically inferred properties of one layer instance."""

    name: str
    kind: str
    input_shape: tuple
    output_shape: tuple
    param_count: int
    flops: int
    feature_layer: bool

    @property
    def output_size(self):
        size = 1
        for dim in self.output_shape:
            size *= dim
        return size


def _profile_one(spec, input_shape):
    """Return (output_shape, param_count, flops) for one spec."""
    kind = spec.kind
    p = spec.params
    if kind == "conv":
        h, w, cin = input_shape
        out_h, out_w = conv_output_hw(
            h, w, p["kernel"], p.get("stride", 1), p.get("padding", 0)
        )
        cout = p["filters"]
        params = p["kernel"] * p["kernel"] * cin * cout + cout
        flops = 2 * p["kernel"] * p["kernel"] * cin * cout * out_h * out_w
        return (out_h, out_w, cout), params, flops
    if kind in ("maxpool", "avgpool"):
        h, w, c = input_shape
        out_h, out_w = conv_output_hw(
            h, w, p["kernel"], p.get("stride", p["kernel"]), p.get("padding", 0)
        )
        return (out_h, out_w, c), 0, out_h * out_w * c
    if kind == "global_avgpool":
        h, w, c = input_shape
        return (1, 1, c), 0, h * w * c
    if kind in ("relu", "lrn"):
        size = 1
        for dim in input_shape:
            size *= dim
        # LRN touches a neighbourhood per element; approximate 5x.
        factor = 5 if kind == "lrn" else 1
        return tuple(input_shape), 0, factor * size
    if kind == "flatten":
        size = 1
        for dim in input_shape:
            size *= dim
        return (size,), 0, 0
    if kind == "dense":
        if len(input_shape) != 1:
            raise ShapeError(
                f"dense layer {spec.name} needs a flat input, got {input_shape}"
            )
        n_in = input_shape[0]
        n_out = p["units"]
        return (n_out,), n_in * n_out + n_out, 2 * n_in * n_out
    if kind == "bottleneck":
        return _profile_bottleneck(p, input_shape)
    if kind == "dense_block":
        # ``layers`` 3x3 convs; conv i reads the input plus i x growth
        # channels and appends ``growth`` more.
        h, w, cin = input_shape
        growth = p["growth"]
        cout = cin + p["layers"] * growth
        widths = range(cin, cout, growth)
        params = sum(9 * width * growth + growth for width in widths)
        flops = sum(2 * 9 * width * growth * h * w for width in widths)
        return (h, w, cout), params, flops
    raise ShapeError(f"unknown layer kind: {kind}")


def _profile_bottleneck(p, input_shape):
    """ResNet bottleneck block: 1x1 -> 3x3 -> 1x1 convs + shortcut.

    ``p`` has ``filters`` (the inner width; output is 4x that) and
    ``stride`` (applied in the 3x3 conv). A projection shortcut is used
    when the stride is not 1 or the channel count changes.
    """
    h, w, cin = input_shape
    inner = p["filters"]
    cout = 4 * inner
    stride = p.get("stride", 1)
    out_h, out_w = conv_output_hw(h, w, 3, stride, 1)
    params = 0
    flops = 0
    # 1x1 reduce (applied at stride 1 before the strided 3x3)
    params += cin * inner + inner
    flops += 2 * cin * inner * h * w
    # 3x3 (strided)
    params += 9 * inner * inner + inner
    flops += 2 * 9 * inner * inner * out_h * out_w
    # 1x1 expand
    params += inner * cout + cout
    flops += 2 * inner * cout * out_h * out_w
    if stride != 1 or cin != cout:
        params += cin * cout + cout
        flops += 2 * cin * cout * out_h * out_w
    # shortcut add + relu
    flops += 2 * out_h * out_w * cout
    return (out_h, out_w, cout), params, flops


def profile_network(specs, input_shape):
    """Infer shapes/params/FLOPs for a whole chain of LayerSpecs.

    Returns a list of :class:`LayerProfile`, one per spec, in order.
    """
    profiles = []
    shape = tuple(input_shape)
    for spec in specs:
        out_shape, params, flops = _profile_one(spec, shape)
        profiles.append(
            LayerProfile(
                name=spec.name,
                kind=spec.kind,
                input_shape=shape,
                output_shape=out_shape,
                param_count=params,
                flops=flops,
                feature_layer=spec.feature_layer,
            )
        )
        shape = out_shape
    return profiles


def total_params(profiles):
    return sum(p.param_count for p in profiles)


def total_flops(profiles):
    return sum(p.flops for p in profiles)
