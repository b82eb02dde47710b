"""Binary logistic regression with elastic-net regularization.

The paper's downstream model M: "logistic regression with elastic net
regularization with alpha = 0.5 and a regularization value of 0.01"
trained "for 10 iterations" (Section 5.1, Figure 8). Training is
full-batch gradient descent with an L1 proximal step, the iteration
structure MLlib uses, so the cost model's "first iteration dominates"
accounting (Appendix C) carries over. It computes in float32 end to
end, the precision of the feature matrices the executor hands it: the
two GEMVs per iteration are memory-bound, and a float64 copy would
double their bytes.
"""

from __future__ import annotations

import numpy as np


def _sigmoid(z):
    """``1 / (1 + e^-z)`` for ``z >= 0`` and ``e^z / (1 + e^z)`` below,
    so no ``exp`` overflows. Both sides share ``e = exp(-|z|)``, taken
    as ``exp(min(z, -z))`` so that a NaN keeps its sign, and
    ``np.where`` picks one side per element."""
    e = np.exp(np.minimum(z, -z))
    denom = 1.0 + e
    return np.where(z >= 0, 1.0 / denom, e / denom)


class LogisticRegression:
    """Elastic-net logistic regression via proximal gradient descent.

    Parameters
    ----------
    reg_param:
        Overall regularization strength (the paper's 0.01).
    elastic_net_param:
        Mix between L1 (1.0) and L2 (0.0); the paper's alpha = 0.5.
    iterations:
        Gradient steps; the paper runs 10.
    learning_rate:
        Step size for gradient descent.
    """

    def __init__(self, reg_param=0.01, elastic_net_param=0.5, iterations=10,
                 learning_rate=1.0):
        self.reg_param = reg_param
        self.elastic_net_param = elastic_net_param
        self.iterations = iterations
        self.learning_rate = learning_rate
        self.weights = None
        self.bias = 0.0

    def fit(self, features, labels):
        """Train on (n, d) features and (n,) binary {0, 1} labels."""
        features = np.asarray(features, dtype=np.float32)
        labels = np.asarray(labels, dtype=np.float32)
        n, d = features.shape
        self.weights = np.zeros(d, dtype=np.float32)
        self.bias = np.float32(0.0)
        l1 = self.reg_param * self.elastic_net_param
        l2 = self.reg_param * (1.0 - self.elastic_net_param)
        # Normalize the step by a Lipschitz-style bound so training is
        # stable across feature scales without per-dataset tuning.
        lipschitz = 0.25 * (np.square(features).sum(axis=1).mean() + 1.0) + l2
        # a numpy float64 scalar would promote every update to double
        step = np.float32(self.learning_rate / max(lipschitz, 1e-12))
        for _ in range(self.iterations):
            margins = features @ self.weights + self.bias
            residual = _sigmoid(margins) - labels
            grad_w = features.T @ residual / n + l2 * self.weights
            grad_b = residual.mean()
            self.weights -= step * grad_w
            self.bias -= step * grad_b
            # Proximal (soft-threshold) step for the L1 part.
            threshold = step * l1
            self.weights = np.sign(self.weights) * np.maximum(
                np.abs(self.weights) - threshold, 0.0
            )
        return self

    def decision_function(self, features):
        self._check_fitted()
        return np.asarray(features, dtype=np.float32) @ self.weights + self.bias

    def predict_proba(self, features):
        return _sigmoid(self.decision_function(features))

    def predict(self, features):
        return (self.decision_function(features) >= 0.0).astype(np.int64)

    def _check_fitted(self):
        if self.weights is None:
            raise RuntimeError("model is not fitted; call fit() first")
