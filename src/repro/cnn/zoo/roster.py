"""The model roster: static per-model statistics used by the optimizer.

Section 3.3: "a roster of popular named deep CNNs with numbered
feature layers ... in which we store these statistics". For each
roster CNN the optimizer (Table 1) looks up the serialized size
``|f|_ser``, the runtime memory footprint ``|f|_mem``, the GPU
footprint ``|f|_mem_gpu``, and per-layer shapes/FLOPs.

Serialized sizes and FLOPs are computed exactly from the architecture
(params x 4 bytes, multiply-add = 2 FLOPs). Runtime footprints cannot
be derived statically — the paper itself notes serialized formats
*underestimate* in-memory footprints — so they are calibration
constants chosen to reproduce the paper's crash pattern: VGG16's
footprint forces its per-worker parallelism down to 4 cores on a 32 GB
node (Fig. 11A) and makes 5-7 thread Lazy plans crash (Fig. 6); on the
12 GB Titan X only VGG16 crashes at 5+ threads (Fig. 7A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cnn.shapes import profile_network, total_flops, total_params
from repro.cnn.zoo import alexnet, resnet50, vgg16
from repro.exceptions import InvalidLayerError
from repro.features.pooling import pooled_dim

GB = 1024 ** 3
MB = 1024 ** 2

# Calibrated runtime footprints (see module docstring).
_RUNTIME_MEM_GB = {"alexnet": 2.0, "vgg16": 5.5, "resnet50": 2.0}
_GPU_MEM_GB = {"alexnet": 1.0, "vgg16": 4.0, "resnet50": 1.6}

#: Compressed-size ratio of serialized feature data. Appendix A:
#: AlexNet features are only 13% non-zero and compress hardest; VGG16's
#: and ResNet50's are ~36% non-zero.
_SERIALIZED_RATIO = {"alexnet": 0.25, "vgg16": 0.45, "resnet50": 0.40}


@dataclass(frozen=True)
class FeatureLayerStats:
    """Static statistics of one transferable feature layer."""

    name: str
    index: int                 # 1-based layer index within the chain
    output_shape: tuple
    transfer_dim: int          # flat dim after grid pooling g_l
    flops_from_input: int      # FLOPs of f̂_l from the raw image


class ModelStats:
    """The one description of a CNN every reader of its shape uses:
    per-layer profiles, per-feature-layer statistics, and its
    footprints — calibrated constants for a roster (paper-scale)
    model, parameter-derived for the executable one
    :func:`~repro.cnn.zoo.builder.build_from_specs` attaches as
    ``cnn.stats``."""

    def __init__(self, name, profiles, feature_layers, input_shape,
                 runtime_mem_bytes, gpu_mem_bytes, serialized_ratio):
        self.name = name
        self.input_shape = tuple(input_shape)
        self.profiles = list(profiles)
        self.total_params = total_params(self.profiles)
        self.total_flops = total_flops(self.profiles)
        self.serialized_bytes = 4 * self.total_params
        self.runtime_mem_bytes = int(runtime_mem_bytes)
        self.gpu_mem_bytes = int(gpu_mem_bytes)
        self.serialized_ratio = serialized_ratio
        self.feature_layers = list(feature_layers)
        self._by_name = {}
        cumulative = 0
        for index, profile in enumerate(self.profiles, start=1):
            cumulative += profile.flops
            if profile.name in self.feature_layers:
                self._by_name[profile.name] = FeatureLayerStats(
                    name=profile.name,
                    index=index,
                    output_shape=profile.output_shape,
                    transfer_dim=pooled_dim(profile.output_shape),
                    flops_from_input=cumulative,
                )
        missing = [fl for fl in feature_layers if fl not in self._by_name]
        if missing:
            raise InvalidLayerError(f"{name}: feature layers not found: {missing}")

    def layer_stats(self, layer_name):
        try:
            return self._by_name[layer_name]
        except KeyError:
            raise InvalidLayerError(
                f"{self.name} has no feature layer {layer_name!r}"
            ) from None

    def top_feature_layers(self, count):
        """The ``count`` highest feature layers, lowest first."""
        if count < 1 or count > len(self.feature_layers):
            raise InvalidLayerError(
                f"{self.name} exposes {len(self.feature_layers)} feature "
                f"layers; requested {count}"
            )
        return self.feature_layers[-count:]

    def flops_between(self, lower, upper):
        """FLOPs of partial inference from feature layer ``lower`` (or
        the raw image when None) through feature layer ``upper``."""
        upper_flops = self.layer_stats(upper).flops_from_input
        lower_flops = self.layer_stats(lower).flops_from_input if lower else 0
        if upper_flops < lower_flops:
            raise InvalidLayerError(
                f"{self.name}: {upper} is below {lower} in the network"
            )
        return upper_flops - lower_flops

    def transfer_bytes(self, layer_name):
        """Bytes of the flat single-precision transfer vector g_l(.)."""
        return 4 * self.layer_stats(layer_name).transfer_dim

    def materialized_bytes(self, layer_name):
        """Bytes of the *unpooled* feature tensor as materialized on
        disk/in flight (what pre-materialization in Appendix B pays)."""
        return 4 * math.prod(self.layer_stats(layer_name).output_shape)

    def __repr__(self):
        return (
            f"<ModelStats {self.name}: {self.total_params / 1e6:.1f}M params, "
            f"{self.total_flops / 1e9:.2f} GFLOP/image, "
            f"feature_layers={self.feature_layers}>"
        )


MODEL_ROSTER = {
    arch.NAME: ModelStats(
        arch.NAME,
        profile_network(arch.full_specs(), arch.FULL_INPUT_SHAPE),
        arch.FEATURE_LAYERS, arch.FULL_INPUT_SHAPE,
        _RUNTIME_MEM_GB[arch.NAME] * GB, _GPU_MEM_GB[arch.NAME] * GB,
        _SERIALIZED_RATIO[arch.NAME],
    )
    for arch in (alexnet, vgg16, resnet50)
}


def get_model_stats(name):
    """Look up a roster model's statistics by name."""
    try:
        return MODEL_ROSTER[name]
    except KeyError:
        raise InvalidLayerError(
            f"unknown roster model {name!r}; roster has "
            f"{sorted(MODEL_ROSTER)}"
        ) from None
