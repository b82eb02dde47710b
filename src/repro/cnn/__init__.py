"""From-scratch numpy CNN inference engine.

This package is the reproduction's substitute for TensorFlow: it
implements the layer TensorOps (convolution, pooling, non-linearity,
fully connected — Section 2 of the paper), chains them into ``CNN``
objects (Def. 3.4), and supports full and *partial* CNN inference
(Defs. 3.6, 3.7), which is the primitive Vista's Staged plan relies on.
``CNN`` is the only network class: a near-chain architecture (ResNet,
DenseNet) is a chain whose blocks are composite TensorOps (footnote 1).

The :mod:`repro.cnn.zoo` subpackage provides the paper's model roster
(AlexNet, VGG16, ResNet50) in two profiles: ``full`` (the real
architectures, used for the shape/FLOP/size metadata of the
paper-scale planner and cost model views) and ``mini`` (scaled-down
analogues with the same layer structure, fast enough to execute
end-to-end in tests) —
plus a mini DenseNet outside the roster. Every built model carries the
:class:`ModelStats` of the network that runs as ``cnn.stats``.
"""

from repro.cnn.network import CNN
from repro.cnn.zoo import (
    MODEL_ROSTER,
    ModelStats,
    build_model,
    get_model_stats,
)

__all__ = [
    "CNN",
    "MODEL_ROSTER",
    "ModelStats",
    "build_model",
    "get_model_stats",
]
