"""Semi-synthetic dataset scaling (Section 5.3).

The drill-down experiments "alter [Foods] semi-synthetically ...
vary the data scale by replicating records (say, '4X') or varying the
number of structured features (with random values)". These helpers do
exactly that on a :class:`MultimodalDataset`, column by column.
"""

from __future__ import annotations

import numpy as np

from repro.data.synthetic import MultimodalDataset
from repro.dataflow.columnar import ColumnarBlock


def _with_column(block, name, column):
    columns = {field: block.column(field) for field in block.column_names}
    columns[name] = column
    return ColumnarBlock(columns, block.num_rows)


def replicate_dataset(dataset, factor):
    """Replicate records ``factor`` times with fresh unique ids."""
    if factor < 1 or int(factor) != factor:
        raise ValueError(f"scale factor must be a positive integer, got {factor}")
    factor = int(factor)
    base = len(dataset)

    def tile(block):
        ids = block.column("id")
        return ColumnarBlock.concat([
            _with_column(block, "id", ids + copy * base)
            for copy in range(factor)
        ])

    return MultimodalDataset(
        name=f"{dataset.name}/{factor}X",
        t_str=tile(dataset.t_str),
        t_img=tile(dataset.t_img),
        num_structured_features=dataset.num_structured_features,
        image_shape=dataset.image_shape,
    )


def widen_structured_features(dataset, num_features, seed=0):
    """Pad (with random values) or truncate structured vectors to
    ``num_features`` dimensions."""
    features = dataset.t_str.column("features")
    rows, width = features.shape
    if num_features <= width:
        widened = features[:, :num_features]
    else:
        extra = np.random.default_rng(seed).normal(
            0.0, 1.0, size=(rows, num_features - width)
        ).astype(np.float32)
        widened = np.concatenate([features, extra], axis=1)
    return MultimodalDataset(
        name=f"{dataset.name}/{num_features}f",
        t_str=_with_column(dataset.t_str, "features", widened),
        t_img=dataset.t_img,
        num_structured_features=num_features,
        image_shape=dataset.image_shape,
    )
