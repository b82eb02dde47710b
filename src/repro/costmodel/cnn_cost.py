"""Per-plan CNN inference FLOP accounting (Section 4.2.1).

The heart of the Lazy-vs-Staged story: Lazy re-runs full inference
from the raw image for every layer of L, so its total FLOPs are the
*sum* of each layer's path; Staged and Eager pay for the deepest
layer's path exactly once. With a pre-materialized base layer
(Appendix B) every path starts from that base instead of the image.
"""

from __future__ import annotations

from repro.core.plans import Materialization


def executable_model_stats(cnn):
    """The :class:`~repro.cnn.zoo.roster.ModelStats` of an *executable*
    CNN — what ``estimate_runtime`` / ``detect_crash`` need to price the
    mini-profile network that actually ran rather than the roster's
    paper-scale one. :func:`~repro.cnn.zoo.builder.build_from_specs`
    built it with the model; this only names where it lives."""
    return cnn.stats


def _path_flops(model_stats, layer, base_layer=None):
    flops = model_stats.layer_stats(layer).flops_from_input
    if base_layer is not None:
        flops -= model_stats.layer_stats(base_layer).flops_from_input
    return max(0, flops)


def plan_inference_flops(model_stats, layers, num_records,
                         materialization, base_layer=None):
    """Total inference FLOPs of a plan over ``num_records`` images."""
    layers = list(layers)
    if materialization is Materialization.LAZY:
        per_image = sum(
            _path_flops(model_stats, layer, base_layer) for layer in layers
        )
    else:  # EAGER and STAGED share one pass to the deepest layer
        per_image = _path_flops(model_stats, layers[-1], base_layer)
    return per_image * num_records


def per_layer_inference_flops(model_stats, layers, num_records,
                              materialization, base_layer=None):
    """FLOPs attributable to each layer's materialization step, in the
    staged order — the Table 3 per-layer breakdown."""
    layers = list(layers)
    breakdown = {}
    previous = base_layer
    for layer in layers:
        if materialization is Materialization.LAZY:
            per_image = _path_flops(model_stats, layer, base_layer)
        else:
            per_image = model_stats.flops_between(previous, layer)
            previous = layer
        breakdown[layer] = per_image * num_records
    return breakdown


def inference_seconds(flops, model_name, cluster, cpu, use_gpu=False):
    """Wall-clock of ``flops`` of inference on the cluster."""
    from repro.costmodel import params

    if use_gpu and cluster.has_gpu:
        throughput = cluster.gpu_flops * cluster.num_nodes
    else:
        throughput = params.node_flops(model_name, cpu) * cluster.num_nodes
    return flops / throughput
