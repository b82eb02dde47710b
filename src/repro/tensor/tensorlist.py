"""TensorList (Definition 3.2): an indexed list of tensors of
potentially different shapes.

Vista stores image tensors and materialized feature tensors in records
of the dataflow engine using this datatype, and the record-size
estimator (Appendix A) accounts for its layout.
"""

from __future__ import annotations

import numpy as np


class TensorList:
    """An immutable indexed list of numpy tensors.

    Supports indexing, iteration, concatenation of flattened contents,
    and byte-size accounting used by the storage manager.
    """

    __slots__ = ("_tensors",)

    def __init__(self, tensors):
        self._tensors = tuple(np.asarray(t) for t in tensors)

    def __len__(self):
        return len(self._tensors)

    def __getitem__(self, index):
        return self._tensors[index]

    def __iter__(self):
        return iter(self._tensors)

    def shapes(self):
        """Shapes of the member tensors, in order."""
        return [tuple(t.shape) for t in self._tensors]

    def nbytes(self):
        """Total payload bytes across all member tensors."""
        return int(sum(t.nbytes for t in self._tensors))

    def num_elements(self):
        """Total scalar elements across all member tensors."""
        return int(sum(t.size for t in self._tensors))

    def append(self, tensor):
        """Return a new TensorList with ``tensor`` appended."""
        return TensorList(self._tensors + (np.asarray(tensor),))

    def flatten_concat(self):
        """Flatten every member and concatenate into one vector.

        Used when the downstream model consumes all materialized
        feature layers of a record at once.
        """
        if not self._tensors:
            return np.empty(0, dtype=np.float32)
        return np.concatenate([np.ravel(t) for t in self._tensors])

    def __eq__(self, other):
        if not isinstance(other, TensorList):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(
            a.shape == b.shape and np.array_equal(a, b)
            for a, b in zip(self._tensors, other._tensors)
        )

    def __hash__(self):
        return hash(tuple(t.tobytes() for t in self._tensors))

    def __repr__(self):
        return f"TensorList(shapes={self.shapes()})"


def map_shape_groups(values, batch_fn):
    """Apply a batched kernel to an object column — ragged tensors and
    TensorList rows — once per exact-shape group.

    Every tensor, TensorList members included, joins one flat work
    list; each group of same-shape tensors (a lone one too, as a stack
    of one) goes to ``batch_fn(tensors) -> (n, ...)`` in one call.
    Returns one result per row in input order, a TensorList row's
    member results rewrapped as a TensorList. Padding to a common shape
    would change the outputs, so groups are by exact shape."""
    rows = [list(v) if isinstance(v, TensorList) else [v] for v in values]
    tensors = [np.asarray(tensor) for row in rows for tensor in row]
    groups = {}
    for index, tensor in enumerate(tensors):
        groups.setdefault(tensor.shape, []).append(index)
    outputs = [None] * len(tensors)
    for indices in groups.values():
        batch = batch_fn([tensors[index] for index in indices])
        for index, output in zip(indices, batch):
            outputs[index] = output
    results = iter(outputs)
    return [
        TensorList([next(results) for _ in row])
        if isinstance(value, TensorList) else next(results)
        for value, row in zip(values, rows)
    ]
