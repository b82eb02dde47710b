"""Core synthetic multimodal data machinery.

Each record has a binary label, a structured feature vector whose
informative dimensions carry a noisy copy of the label, and an image
whose content carries a partially *independent* copy of the label
(matching the paper's premise that images add information the
structured features lack — Figure 8's lift).

Image synthesis embeds the label at two spatial scales:

- a coarse pattern (a bright diagonal band whose orientation flips
  with the label) that survives pooling and deep layers, and
- a fine oriented texture (vertical vs horizontal stripes) that HOG
  and low/mid layers pick up,

plus pixel noise. Any fixed conv+ReLU feature map — including our
seeded-random "pretrained" CNNs — preserves enough of both signals for
a linear model to exploit.
"""

from __future__ import annotations

import math
import mmap
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.dataflow.columnar import ColumnarBlock
from repro.tensor.tensorlist import TensorList


def synthesize_image(rng, label, shape=(32, 32, 3), signal_strength=1.0,
                     label_flip_prob=0.15):
    """Generate one image with label-dependent structure.

    With probability ``label_flip_prob`` the image encodes the wrong
    label, so image features are informative but not a perfect proxy —
    keeping downstream F1 lifts in the paper's few-point range rather
    than jumping to 100%.
    """
    image = np.empty(shape, dtype=np.float32)
    _draw_image(rng, label, _image_templates(shape, signal_strength),
                label_flip_prob, image)
    return image


def synthesize_structured(rng, label, num_features, informative=10,
                          signal_strength=0.9):
    """Structured feature vector: the first ``informative`` dimensions
    (all of them, in a narrower vector) carry a noisy label signal, the
    rest are standard normal noise."""
    features = np.empty(num_features, dtype=np.float32)
    shifts = _structured_shifts(num_features, informative, signal_strength)
    _draw_structured(rng, label, shifts, features)
    return features


def _image_templates(shape, signal_strength):
    """The noise-free image of each visual label (0, 1), float64
    ``(C, H, W)``: channel tone plus the weighted band and stripes."""
    height, width, channels = shape
    ys, xs = np.mgrid[0:height, 0:width]
    templates = []
    for visual_label in (0, 1):
        # Coarse: diagonal band, direction flips with the label.
        diag = (xs + ys) if visual_label else (xs - ys + width)
        band = np.exp(
            -np.square(diag - (height + width) / 2.0) / (2.0 * 16.0)
        )
        # Fine: orientation of a stripe texture flips with the label.
        stripes = np.sin(2.0 * np.pi * (xs if visual_label else ys) / 4.0)
        pattern = signal_strength * (0.8 * band + 0.25 * stripes)
        templates.append(np.stack([
            0.5 + 0.2 * visual_label - 0.1 * channel / max(1, channels - 1)
            + pattern
            for channel in range(channels)
        ]))
    return templates


def _draw_image(rng, label, templates, label_flip_prob, out):
    """Write one image into the float32 ``(H, W, C)`` array ``out``:
    one draw for the label flip, then the pixel noise of every channel
    in one ``(C, H, W)`` draw — the same values, in the same order, as
    one ``(H, W)`` draw per channel. The float64 sum is cast once,
    straight into ``out``."""
    visual_label = int(label)
    if rng.random() < label_flip_prob:
        visual_label = 1 - visual_label
    template = templates[visual_label]
    np.add(template, rng.normal(0.0, 0.35, size=template.shape),
           out=out.transpose(2, 0, 1), casting="unsafe")


def _structured_shifts(num_features, informative, signal_strength):
    """The float32 label shift of each label (0, 1) on the informative
    block, cut to the table's width."""
    direction = np.linspace(1.0, 0.3, informative)[:num_features]
    return [
        (signal_strength * direction * (2.0 * label - 1.0)).astype(np.float32)
        for label in (0, 1)
    ]


def _draw_structured(rng, label, shifts, out):
    """Write one structured vector into the float32 row ``out``."""
    shift = shifts[label]
    out[...] = rng.normal(0.0, 1.0, size=out.shape[0])
    out[:shift.shape[0]] += shift


class RowView(Sequence):
    """A block's rows as dicts, each built when it is read: nothing is
    kept beside the columns, and tensor cells are views into them."""

    def __init__(self, block):
        self._block = block

    def __len__(self):
        return self._block.num_rows

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._block.row(i)
                    for i in range(*index.indices(len(self)))]
        return self._block.row(index)


@dataclass
class MultimodalDataset:
    """A generated multimodal dataset: Tstr and Timg as two columnar
    blocks, the layout the engine reads them in.

    ``t_str``: ``id`` (int64), ``features`` (float32 ``(N, D)``),
    ``label`` (int64 0/1). ``t_img``: ``id`` and ``image`` — a float32
    ``(N, H, W, C)`` array (the decoded form of the paper's raw JPEG
    column), or an object column of TensorLists. Every array column is
    read-only. ``structured_rows`` / ``image_rows`` are row-dict views
    of the blocks.
    """

    name: str
    t_str: ColumnarBlock = field(repr=False)
    t_img: ColumnarBlock = field(repr=False)
    num_structured_features: int = 0
    image_shape: tuple = (32, 32, 3)

    def __post_init__(self):
        for block in (self.t_str, self.t_img):
            for name in block.column_names:
                if block.is_array(name):
                    block.column(name).flags.writeable = False

    def __len__(self):
        return self.t_str.num_rows

    @property
    def structured_rows(self):
        return RowView(self.t_str)

    @property
    def image_rows(self):
        return RowView(self.t_img)

    def image_bytes(self):
        """Bytes of one record's image cell (synthetic images share one
        shape): a row of the image tensor, or the first TensorList's
        members together."""
        cell = self.t_img.column("image")[0]
        return int(cell.nbytes() if isinstance(cell, TensorList)
                   else cell.nbytes)

    def labels(self):
        return self.t_str.column("label").astype(np.int64)

    def structured_matrix(self):
        return self.t_str.column("features").copy()

    def images(self):
        return list(self.t_img.column("image"))


def generate_dataset(name, num_records, num_structured_features,
                     image_shape=(32, 32, 3), informative=10,
                     structured_signal=0.9, image_signal=1.0,
                     image_label_flip=0.15, positive_fraction=0.5, seed=0,
                     images_per_record=1):
    """Generate a :class:`MultimodalDataset` with the given shape.

    ``images_per_record > 1`` stores a TensorList of images per record
    (the paper's "multiple images per example" future-work extension);
    with 1 the image column is a plain tensor. Records are written
    straight into preallocated columns. The noise-free image and the
    structured shift of each label are computed once per call; each
    record then makes only its random draws.
    """
    rng = np.random.default_rng(seed)
    ids = np.arange(num_records, dtype=np.int64)
    features = np.empty((num_records, num_structured_features), np.float32)
    labels = np.empty(num_records, dtype=np.int64)
    if images_per_record == 1:
        # A private anonymous mapping of its own, which the OS takes back
        # whole with the last view: a dropped dataset leaves no
        # image-sized hole in the malloc heap for later allocations to
        # split (EXPERIMENTS.md, "Zero-copy source tables").
        count = num_records * math.prod(image_shape)
        nbytes = np.dtype(np.float32).itemsize * count
        images = np.frombuffer(
            mmap.mmap(-1, max(1, nbytes), flags=mmap.MAP_PRIVATE),
            np.float32, count=count,
        ).reshape(num_records, *image_shape)
    else:
        images = [None] * num_records
    shifts = _structured_shifts(num_structured_features, informative,
                                structured_signal)
    templates = _image_templates(image_shape, image_signal)
    for record_id in range(num_records):
        label = int(rng.random() < positive_fraction)
        labels[record_id] = label
        _draw_structured(rng, label, shifts, features[record_id])
        if images_per_record == 1:
            _draw_image(rng, label, templates, image_label_flip,
                        images[record_id])
            continue
        record_images = [np.empty(image_shape, np.float32)
                         for _ in range(images_per_record)]
        for image in record_images:
            _draw_image(rng, label, templates, image_label_flip, image)
        images[record_id] = TensorList(record_images)
    return MultimodalDataset(
        name=name,
        t_str=ColumnarBlock(
            {"id": ids, "features": features, "label": labels}, num_records
        ),
        t_img=ColumnarBlock({"id": ids, "image": images}, num_records),
        num_structured_features=num_structured_features,
        image_shape=tuple(image_shape),
    )
