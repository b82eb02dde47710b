"""Model zoo: AlexNet, VGG16, ResNet50 in full and mini profiles.

``build_model(name, profile)`` returns an executable
:class:`repro.cnn.network.CNN`, whose own statistics, ``cnn.stats``,
are what ``Vista`` plans a run with; ``get_model_stats(name)`` returns
the full-profile statistics of the real architecture that the
paper-scale planner and cost model views price. ``densenet`` holds a
mini DenseNet outside the roster (``build_densenet_mini``).
"""

from __future__ import annotations

from repro.cnn.zoo import alexnet, resnet50, vgg16
from repro.cnn.zoo.builder import build_from_specs
from repro.cnn.zoo.roster import (
    MODEL_ROSTER,
    FeatureLayerStats,
    ModelStats,
    get_model_stats,
)
from repro.exceptions import InvalidLayerError

_ARCHITECTURES = {
    alexnet.NAME: alexnet,
    vgg16.NAME: vgg16,
    resnet50.NAME: resnet50,
}


def build_model(name, profile="mini", seed=0):
    """Build an executable roster CNN.

    ``profile="full"`` gives the real architecture (slow in numpy;
    intended for spot checks), ``profile="mini"`` a scaled-down
    analogue with identical layer names used by tests, examples and
    mini-scale integration runs.
    """
    try:
        arch = _ARCHITECTURES[name]
    except KeyError:
        raise InvalidLayerError(
            f"unknown roster model {name!r}; roster has "
            f"{sorted(_ARCHITECTURES)}"
        ) from None
    if profile == "full":
        specs, input_shape = arch.full_specs(), arch.FULL_INPUT_SHAPE
    elif profile == "mini":
        specs, input_shape = arch.mini_specs(), arch.MINI_INPUT_SHAPE
    else:
        raise ValueError(f"profile must be 'full' or 'mini', got {profile!r}")
    return build_from_specs(
        name, specs, input_shape, arch.FEATURE_LAYERS, seed=seed
    )


__all__ = [
    "MODEL_ROSTER",
    "FeatureLayerStats",
    "ModelStats",
    "build_from_specs",
    "build_model",
    "get_model_stats",
]
