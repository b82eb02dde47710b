"""Instantiate executable CNNs from LayerSpec chains.

The zoo architecture files describe networks declaratively; this module
turns those descriptions into weighted :class:`repro.cnn.layers`
TensorOps with deterministic "pretrained" weights.
"""

from __future__ import annotations

from repro.cnn import layers as L
from repro.cnn.network import CNN
from repro.cnn.shapes import profile_network, total_params
from repro.cnn.weights import he_normal, model_rng
from repro.cnn.zoo.roster import MODEL_ROSTER, ModelStats
from repro.exceptions import ShapeError


def _build_layer(spec, input_shape, rng):
    kind = spec.kind
    p = spec.params
    if kind == "conv":
        cin = input_shape[2]
        k = p["kernel"]
        filters = p["filters"]
        fan_in = k * k * cin
        weights = he_normal(rng, (k, k, cin, filters), fan_in)
        return L.Conv2D(
            input_shape, filters, k, stride=p.get("stride", 1),
            padding=p.get("padding", 0), weights=weights,
            relu=p.get("relu", True), name=spec.name,
        )
    if kind == "maxpool":
        return L.MaxPool2D(
            input_shape, p["kernel"], stride=p.get("stride", p["kernel"]),
            padding=p.get("padding", 0), name=spec.name,
        )
    if kind == "avgpool":
        return L.AvgPool2D(
            input_shape, p["kernel"], stride=p.get("stride", p["kernel"]),
            padding=p.get("padding", 0), name=spec.name,
        )
    if kind == "global_avgpool":
        return L.GlobalAvgPool(input_shape, name=spec.name)
    if kind == "relu":
        return L.ReLU(input_shape, name=spec.name)
    if kind == "lrn":
        return L.LocalResponseNorm(input_shape, name=spec.name)
    if kind == "flatten":
        return L.Flatten(input_shape, name=spec.name)
    if kind == "dense":
        n_in = input_shape[0]
        units = p["units"]
        weights = he_normal(rng, (n_in, units), n_in)
        return L.Dense(
            n_in, units, weights=weights, relu=p.get("relu", True),
            name=spec.name,
        )
    if kind == "bottleneck":
        return L.BottleneckBlock(
            input_shape, p["filters"], stride=p.get("stride", 1), rng=rng,
            name=spec.name,
        )
    if kind == "dense_block":
        return L.DenseBlock(
            input_shape, p["layers"], p["growth"], rng=rng, name=spec.name
        )
    raise ShapeError(f"unknown layer kind: {kind}")


def build_from_specs(name, specs, input_shape, feature_layers, seed=0):
    """Build an executable :class:`CNN` from a spec chain — the one
    place a ``CNN`` is constructed, so every executable model carries
    ``cnn.stats``: the :class:`ModelStats` of the network that actually
    runs, built from the profiles computed here. Footprints are three
    times the parameter bytes (serialized formats underestimate
    in-memory footprints — Section 4.1, issue (1)); feature data
    compresses like the roster architecture of the same name.
    """
    rng = model_rng(name, seed=seed)
    profiles = profile_network(specs, input_shape)
    ops = []
    shape = tuple(input_shape)
    for spec, profile in zip(specs, profiles):
        op = _build_layer(spec, shape, rng)
        if tuple(op.output_shape) != tuple(profile.output_shape):
            raise ShapeError(
                f"{name}/{spec.name}: built shape {op.output_shape} != "
                f"profiled shape {profile.output_shape}"
            )
        ops.append(op)
        shape = op.output_shape
    footprint = 3 * 4 * total_params(profiles)
    roster = MODEL_ROSTER.get(name)
    return CNN(ops, ModelStats(
        name, profiles, feature_layers, input_shape, footprint, footprint,
        roster.serialized_ratio if roster else 0.4,
    ))
