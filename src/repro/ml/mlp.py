"""Multi-layer perceptron classifier.

Used in the TFT+Beam comparison (Figure 7B): "a 3-layer MLP (each
hidden layer has 1024 units) for 10 iterations using distributed
TF/Horovod". Here it is a plain numpy MLP trained with full-batch
gradient descent; hidden widths default smaller so tests stay fast but
the paper's configuration is one constructor call away. Like
TensorFlow's it is float32 end to end, as the logistic regression is:
the executor's matrices are read in place.

Training is data-parallel over :func:`~repro.ml.lanes.training_lanes`
(the run's ``cpu`` inside the executor, 1 elsewhere), as Horovod's is
over workers: the rows split into that many contiguous shards, each
lane computes its shard's gradient, and the gradients are summed in
shard order into one full-batch update per iteration, with BLAS held at
one thread per lane (:func:`~repro.blas.one_blas_thread`). One lane is
the plain single-threaded loop. More lanes give the same update up to
float32 rounding (smaller BLAS calls, another summation order), and any
given lane count repeats bit for bit.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.blas import one_blas_thread
from repro.ml.lanes import training_lanes


class MLPClassifier:
    """Binary MLP with ReLU hidden layers and a logistic output."""

    def __init__(self, hidden_units=(64, 64), iterations=10,
                 learning_rate=0.05, random_state=0):
        self.hidden_units = tuple(hidden_units)
        self.iterations = iterations
        self.learning_rate = learning_rate
        self.random_state = random_state
        self._weights = None
        self._biases = None

    def fit(self, features, labels):
        features = np.asarray(features, dtype=np.float32)
        labels = np.asarray(labels, dtype=np.float32)
        rng = np.random.default_rng(self.random_state)
        sizes = [features.shape[1], *self.hidden_units, 1]
        self._weights = [
            rng.normal(0, np.sqrt(2.0 / fan), (fan, out)).astype(np.float32)
            for fan, out in zip(sizes, sizes[1:])
        ]
        self._biases = [np.zeros(out, dtype=np.float32) for out in sizes[1:]]
        n = len(labels)
        # a numpy float64 rate would promote every update to double
        learning_rate = np.float32(self.learning_rate)
        count = max(1, min(training_lanes(), n))
        bounds = [n * lane // count for lane in range(count + 1)]
        shards = [(features[lo:hi], labels[lo:hi])
                  for lo, hi in zip(bounds, bounds[1:])]
        # Shard 0 runs on the calling thread, the rest on the pool;
        # leaving the block joins every lane, returned or raised.
        with ThreadPoolExecutor(max(count - 1, 1)) as pool, \
                one_blas_thread(count):
            for _ in range(self.iterations):
                pending = [pool.submit(self._gradients, x, y, n)
                           for x, y in shards[1:]]
                grads = self._gradients(*shards[0], n)
                for future in pending:
                    for (grad_w, grad_b), (part_w, part_b) in zip(
                        grads, future.result()
                    ):
                        grad_w += part_w
                        grad_b += part_b
                for weights, bias, (grad_w, grad_b) in zip(
                    self._weights, self._biases, grads
                ):
                    weights -= learning_rate * grad_w
                    bias -= learning_rate * grad_b
        return self

    def _gradients(self, features, labels, n):
        """``[(grad_w, grad_b)]`` per layer over one shard of the rows,
        each scaled by the full batch's ``n`` so the shards' sum is the
        full-batch gradient."""
        activations, pre = self._forward(features)
        delta = ((activations[-1][:, 0] - labels) / n)[:, None]
        grads = []
        for layer in reversed(range(len(self._weights))):
            grads.append((activations[layer].T @ delta, delta.sum(axis=0)))
            if layer > 0:
                delta = (delta @ self._weights[layer].T) * (
                    pre[layer - 1] > 0
                )
        return grads[::-1]

    def _forward(self, features):
        activations = [features]
        pre_activations = []
        out = features
        last = len(self._weights) - 1
        for layer, (weights, bias) in enumerate(
            zip(self._weights, self._biases)
        ):
            z = out @ weights + bias
            if layer < last:
                pre_activations.append(z)
                out = np.maximum(z, 0.0)
            else:
                out = 1.0 / (1.0 + np.exp(-np.clip(z, -30, 30)))
            activations.append(out)
        return activations, pre_activations

    def predict_proba(self, features):
        if self._weights is None:
            raise RuntimeError("model is not fitted; call fit() first")
        features = np.asarray(features, dtype=np.float32)
        activations, _ = self._forward(features)
        return activations[-1][:, 0]

    def predict(self, features):
        return (self.predict_proba(features) >= 0.5).astype(np.int64)
