"""DenseNet-style network (mini profile only) as an ordinary chain.

The paper's footnote 1 folds near-chain CNNs such as DenseNet into its
chain formalization by treating a block as one operator. Each dense
block here is one composite ``dense_block`` TensorOp, followed by the
1x1 transition conv that compresses its channels; the feature layers
are the two transitions and the head, so every plan, backend and
instrument that runs the roster models runs this one too. It is not a
roster model: no paper-calibrated footprint exists for it.
"""

from __future__ import annotations

from repro.cnn.shapes import LayerSpec
from repro.cnn.zoo.builder import build_from_specs

NAME = "densenet-mini"
MINI_INPUT_SHAPE = (16, 16, 3)
FEATURE_LAYERS = ["block1_out", "block2_out", "head"]
GROWTH_RATE = 8


def mini_specs():
    """Stem, two three-conv dense blocks with transitions, pooled head.
    Wide enough that inference from the raw image is compute-dense
    (>= 371 FLOPs per output byte), so those stages cross a process
    boundary like the roster minis' do."""
    block = {"layers": 3, "growth": GROWTH_RATE}
    transition = {"filters": GROWTH_RATE, "kernel": 1}
    return [
        LayerSpec("stem", "conv", {"filters": 16, "kernel": 3, "padding": 1}),
        LayerSpec("block1", "dense_block", block),
        LayerSpec("block1_out", "conv", transition, feature_layer=True),
        LayerSpec("pool1", "maxpool", {"kernel": 2}),
        LayerSpec("block2", "dense_block", block),
        LayerSpec("block2_out", "conv", transition, feature_layer=True),
        LayerSpec("gap", "global_avgpool"),
        LayerSpec("flatten", "flatten"),
        LayerSpec("head", "dense", {"units": 8, "relu": False},
                  feature_layer=True),
    ]


def build_densenet_mini(seed=0):
    """The executable mini DenseNet, feature layers
    [block1_out, block2_out, head]."""
    return build_from_specs(
        NAME, mini_specs(), MINI_INPUT_SHAPE, FEATURE_LAYERS, seed=seed
    )
