"""Multi-layer perceptron classifier.

Used in the TFT+Beam comparison (Figure 7B): "a 3-layer MLP (each
hidden layer has 1024 units) for 10 iterations using distributed
TF/Horovod". Here it is a plain numpy MLP trained with full-batch
gradient descent; hidden widths default smaller so tests stay fast but
the paper's configuration is one constructor call away. Like
TensorFlow's it is float32 end to end: the executor's matrices are
read in place (the logistic regression is double, as MLlib's is).
"""

from __future__ import annotations

import numpy as np


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
        for _ in range(self.iterations):
            activations, pre = self._forward(features)
            probs = activations[-1][:, 0]
            delta = ((probs - labels) / n)[:, None]
            for layer in reversed(range(len(self._weights))):
                grad_w = activations[layer].T @ delta
                grad_b = delta.sum(axis=0)
                if layer > 0:
                    delta = (delta @ self._weights[layer].T) * (
                        pre[layer - 1] > 0
                    )
                self._weights[layer] -= learning_rate * grad_w
                self._biases[layer] -= learning_rate * grad_b
        return self

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
