"""Unit tests for the downstream ML models."""

import numpy as np
import pytest

from repro.ml import (
    DecisionTreeClassifier,
    LogisticRegression,
    MLPClassifier,
    accuracy_score,
)


def _separable(n=200, d=5, seed=0, noise=0.3):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    features = rng.normal(0, 1, size=(n, d))
    features[:, 0] += 2.0 * (2 * labels - 1)
    features[:, 1] += noise * rng.normal(size=n)
    return features, labels


class TestLogisticRegression:
    def test_learns_separable_data(self):
        features, labels = _separable()
        model = LogisticRegression(iterations=50).fit(features, labels)
        assert accuracy_score(labels, model.predict(features)) > 0.9

    def test_paper_configuration_ten_iterations(self):
        features, labels = _separable()
        model = LogisticRegression().fit(features, labels)
        assert model.iterations == 10
        assert accuracy_score(labels, model.predict(features)) > 0.8

    def test_l1_part_induces_sparsity(self):
        features, labels = _separable(d=40)
        dense = LogisticRegression(
            reg_param=0.0, iterations=50
        ).fit(features, labels)
        sparse = LogisticRegression(
            reg_param=0.5, elastic_net_param=1.0, iterations=50
        ).fit(features, labels)
        assert (np.abs(sparse.weights) < 1e-9).sum() \
            > (np.abs(dense.weights) < 1e-9).sum()

    def test_predict_proba_in_unit_interval(self):
        features, labels = _separable()
        model = LogisticRegression().fit(features, labels)
        probs = model.predict_proba(features)
        assert probs.min() >= 0.0 and probs.max() <= 1.0

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            LogisticRegression().predict(np.zeros((2, 2)))

    def test_deterministic(self):
        features, labels = _separable()
        w1 = LogisticRegression().fit(features, labels).weights
        w2 = LogisticRegression().fit(features, labels).weights
        np.testing.assert_array_equal(w1, w2)

    def test_extreme_margins_do_not_overflow(self):
        features = np.array([[1000.0], [-1000.0]])
        labels = np.array([1, 0])
        model = LogisticRegression(iterations=5).fit(features, labels)
        probs = model.predict_proba(features)
        assert np.isfinite(probs).all()


class TestDecisionTree:
    def test_learns_separable_data(self):
        features, labels = _separable()
        model = DecisionTreeClassifier(max_depth=3).fit(features, labels)
        assert accuracy_score(labels, model.predict(features)) > 0.9

    def test_learns_axis_aligned_xor_with_depth(self):
        rng = np.random.default_rng(0)
        features = rng.uniform(-1, 1, size=(300, 2))
        labels = ((features[:, 0] > 0) ^ (features[:, 1] > 0)).astype(int)
        model = DecisionTreeClassifier(max_depth=4).fit(features, labels)
        assert accuracy_score(labels, model.predict(features)) > 0.9

    def test_depth_limits_respected(self):
        features, labels = _separable()
        stump = DecisionTreeClassifier(max_depth=0).fit(features, labels)
        assert stump._root.is_leaf

    def test_pure_node_stops_splitting(self):
        features = np.ones((20, 2))
        labels = np.ones(20, dtype=int)
        model = DecisionTreeClassifier().fit(features, labels)
        assert model._root.is_leaf
        assert model.predict(features[:2]).tolist() == [1, 1]

    def test_max_features_subsampling_runs(self):
        features, labels = _separable(d=30)
        model = DecisionTreeClassifier(max_features=5).fit(features, labels)
        assert accuracy_score(labels, model.predict(features)) > 0.5

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict_proba(np.zeros((2, 2)))


class TestMLP:
    def test_learns_separable_data(self):
        features, labels = _separable()
        model = MLPClassifier(
            hidden_units=(16, 16), iterations=300, learning_rate=0.5
        ).fit(features, labels)
        assert accuracy_score(labels, model.predict(features)) > 0.9

    def test_three_layer_architecture(self):
        features, labels = _separable(n=50)
        model = MLPClassifier(hidden_units=(8, 8)).fit(features, labels)
        assert len(model._weights) == 3

    def test_deterministic_given_seed(self):
        features, labels = _separable(n=50)
        p1 = MLPClassifier(random_state=3).fit(
            features, labels
        ).predict_proba(features)
        p2 = MLPClassifier(random_state=3).fit(
            features, labels
        ).predict_proba(features)
        np.testing.assert_array_equal(p1, p2)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MLPClassifier().predict(np.zeros((2, 2)))

    def test_float32_end_to_end(self):
        """TensorFlow's MLP is single precision (only MLlib's logistic
        regression is double): weights, biases and probabilities stay
        float32 — even under a numpy float64 learning rate, which
        would promote every update."""
        features, labels = _separable(n=50)
        model = MLPClassifier(
            hidden_units=(8, 8), learning_rate=np.float64(0.05)
        ).fit(features.astype(np.float32), labels)
        assert {w.dtype for w in model._weights + model._biases} == {
            np.dtype(np.float32)
        }
        assert model.predict_proba(features).dtype == np.float32
        assert model.predict(features).dtype == np.int64

    def test_fit_reads_a_float32_matrix_in_place(self, monkeypatch):
        """The executor's train matrices are float32 and C-contiguous:
        the first activation of every forward pass is that memory, not
        a converted copy."""
        features, labels = _separable(n=50)
        features = np.ascontiguousarray(features, dtype=np.float32)
        first_activations = []
        forward = MLPClassifier._forward

        def spy(self, matrix):
            activations, pre = forward(self, matrix)
            first_activations.append(activations[0])
            return activations, pre

        monkeypatch.setattr(MLPClassifier, "_forward", spy)
        model = MLPClassifier(iterations=3).fit(features, labels)
        model.predict_proba(features)
        assert len(first_activations) == 4
        assert all(np.shares_memory(a, features) for a in first_activations)

    def test_float64_input_still_accepted(self):
        features, labels = _separable(n=50)
        assert features.dtype == np.float64
        as_double = MLPClassifier(random_state=1).fit(features, labels)
        as_single = MLPClassifier(random_state=1).fit(
            features.astype(np.float32), labels
        )
        np.testing.assert_array_equal(
            as_double.predict_proba(features),
            as_single.predict_proba(features.astype(np.float32)),
        )
