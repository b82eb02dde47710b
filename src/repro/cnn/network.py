"""The CNN abstraction (Definition 3.4) with partial inference.

A ``CNN`` is an indexed chain of TensorOps ``f = f_nl ∘ ... ∘ f_1``.
Layer indices here are 1-based to match the paper's notation; named
feature layers (the transfer candidates users pick) map onto those
indices.
"""

from __future__ import annotations

import time

import numpy as np

from repro.exceptions import InvalidLayerError
from repro.tensor.ops import TensorOp


class CNN(TensorOp):
    """An indexed chain of layer TensorOps.

    Parameters
    ----------
    layers:
        Ordered list of TensorOps; layer ``i`` (1-based) is
        ``layers[i-1]``.
    stats:
        The :class:`~repro.cnn.zoo.roster.ModelStats` of this very
        chain (one profile per layer): its name, e.g. ``"alexnet"``,
        the layers exposed for feature transfer (lowest first), and
        every static number a reader of the model's shape needs.
    """

    def __init__(self, layers, stats):
        if not layers:
            raise InvalidLayerError("a CNN needs at least one layer")
        super().__init__(
            layers[0].input_shape, layers[-1].output_shape, name=stats.name
        )
        self.layers = list(layers)
        self._index_by_name = {op.name: i + 1 for i, op in enumerate(self.layers)}
        if len(self._index_by_name) != len(self.layers):
            raise InvalidLayerError(f"duplicate layer names in {self.name}")
        self.stats = stats
        self.feature_layers = stats.feature_layers
        self.profiles = stats.profiles

    @property
    def num_layers(self):
        return len(self.layers)

    def layer_index(self, name):
        """1-based index of a named layer."""
        try:
            return self._index_by_name[name]
        except KeyError:
            raise InvalidLayerError(f"{self.name} has no layer {name!r}") from None

    def layer_name(self, index):
        self._check_index(index)
        return self.layers[index - 1].name

    def output_shape_of(self, layer):
        """Output shape of a layer given by name or 1-based index."""
        index = self._resolve(layer)
        return self.layers[index - 1].output_shape

    def top_feature_layers(self, count):
        """The ``count`` highest feature layers, lowest first — the
        paper's API takes |L| counted from the top-most layer."""
        return self.stats.top_feature_layers(count)

    def _resolve(self, layer):
        if isinstance(layer, str):
            return self.layer_index(layer)
        return int(layer)

    def _check_index(self, index):
        if not 1 <= index <= self.num_layers:
            raise InvalidLayerError(
                f"layer index {index} out of range 1..{self.num_layers}"
            )

    #: Per-operator timing hook: None (untraced, zero overhead beyond
    #: one attribute check per chain) or a recorder callable
    #: ``hook(name, seconds)`` like
    #: :meth:`repro.trace.Tracer.record_op`; the engine times each
    #: layer op itself and hands the hook the wall seconds, so a timed
    #: op costs two clock reads and one call — no context-manager
    #: protocol interleaving with the kernels.
    op_timer = None

    def _apply_chain(self, out, ops, batched):
        timer = self.op_timer
        if timer is None:
            if batched:
                for op in ops:
                    out = op.call_batch(out)
            else:
                for op in ops:
                    out = op(out)
            return out
        clock = time.perf_counter
        for op in ops:
            start = clock()
            out = op.call_batch(out) if batched else op(out)
            timer(op.name, clock() - start)
        return out

    def apply(self, tensor):
        return self.forward(tensor)

    def apply_batch(self, batch):
        return self.forward_batch(batch)

    def forward(self, tensor, upto=None):
        """Run inference through layer ``upto`` (name or index);
        the whole network if omitted. This is ``f̂_l`` (Def. 3.4)."""
        stop = self._resolve(upto) if upto is not None else self.num_layers
        self._check_index(stop)
        out = np.asarray(tensor, dtype=np.float32)
        return self._apply_chain(out, self.layers[:stop], batched=False)

    def forward_batch(self, batch, upto=None):
        """Batched inference over an (N, H, W, C) image stack through
        layer ``upto``; the whole network if omitted.

        Each layer runs its vectorized ``apply_batch`` kernel once per
        batch instead of once per image, amortizing kernel overheads.
        """
        stop = self._resolve(upto) if upto is not None else self.num_layers
        self._check_index(stop)
        out = np.asarray(batch, dtype=np.float32)
        return self._apply_chain(out, self.layers[:stop], batched=True)

    def partial_forward(self, tensor, start, upto):
        """Partial CNN inference ``f̂_{i→j}`` (Definition 3.7).

        ``tensor`` must be the *output* of layer ``start`` (so inference
        resumes at layer ``start + 1``) and runs through layer ``upto``.
        ``start=0`` means start from the raw image.
        """
        begin, stop = self._partial_range(start, upto)
        out = np.asarray(tensor, dtype=np.float32)
        return self._apply_chain(out, self.layers[begin:stop], batched=False)

    def partial_forward_batch(self, batch, start, upto):
        """Batched partial inference ``f̂_{i→j}`` over an (N, ...) stack
        of layer-``start`` outputs (``start=0``: raw images)."""
        begin, stop = self._partial_range(start, upto)
        out = np.asarray(batch, dtype=np.float32)
        return self._apply_chain(out, self.layers[begin:stop], batched=True)

    def _partial_range(self, start, upto):
        begin = self._resolve(start) if start else 0
        stop = self._resolve(upto)
        if begin:
            self._check_index(begin)
        self._check_index(stop)
        if stop < begin:
            raise InvalidLayerError(
                f"partial inference needs start <= upto, got {begin} > {stop}"
            )
        return begin, stop

    def flops_between(self, start, upto):
        """FLOPs of ``f̂_{start→upto}`` (any two layers, by name or
        index), from the per-layer profiles."""
        begin = self._resolve(start) if start else 0
        stop = self._resolve(upto)
        return sum(p.flops for p in self.profiles[begin:stop])

    def __repr__(self):
        return (
            f"<CNN {self.name}: {self.num_layers} layers, "
            f"feature_layers={self.feature_layers}>"
        )
