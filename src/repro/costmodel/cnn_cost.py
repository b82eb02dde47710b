"""CNN inference cost: FLOPs to seconds on the modelled cluster.

Which FLOPs a plan spends — Lazy's per-layer paths from the raw image,
Staged's and Eager's one pass to the deepest layer, a pre-materialized
base layer's skipped prefix — is read off the compiled plan's
``INFER`` steps (:func:`repro.costmodel.runtime.walk_plan`).
"""

from __future__ import annotations

from repro.costmodel import params


def executable_model_stats(cnn):
    """The :class:`~repro.cnn.zoo.roster.ModelStats` of an *executable*
    CNN — what a :class:`~repro.core.config.Workload` needs to price the
    mini-profile network that actually ran rather than the roster's
    paper-scale one. :func:`~repro.cnn.zoo.builder.build_from_specs`
    built it with the model; this only names where it lives."""
    return cnn.stats


def inference_seconds(flops, model_name, cluster, cpu, use_gpu=False):
    """Wall-clock of ``flops`` of inference on the cluster."""
    if use_gpu and cluster.has_gpu:
        throughput = cluster.gpu_flops * cluster.num_nodes
    else:
        throughput = params.node_flops(model_name, cpu) * cluster.num_nodes
    return flops / throughput
