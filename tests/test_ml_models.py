"""Unit tests for the downstream ML models."""

import sys
import threading

import numpy as np
import pytest

from repro.ml.logistic import _sigmoid
from repro.ml import (
    DecisionTreeClassifier,
    LogisticRegression,
    MLPClassifier,
    accuracy_score,
    f1_score,
    lanes,
    training_lanes,
)


def _separable(n=200, d=5, seed=0, noise=0.3):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    features = rng.normal(0, 1, size=(n, d))
    features[:, 0] += 2.0 * (2 * labels - 1)
    features[:, 1] += noise * rng.normal(size=n)
    return features, labels


def retired_sigmoid(z):
    """The masked sigmoid ``_sigmoid`` replaced: boolean gathers of
    each sign's margins, scattered back."""
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_keeps_the_masked_forms_bits(dtype):
    edges = np.array(
        [0.0, -0.0, 100.0, -100.0, np.inf, -np.inf, np.nan, -np.nan,
         1e-30, -1e-30, 88.7, -88.7, 103.9, -103.9, 745.0, -745.0],
        dtype=dtype,
    )
    # the float32 cast drops a NaN's sign; set it on the bits
    edges[7] = np.copysign(edges[7], -1.0)
    draws = np.random.default_rng(0).normal(0.0, 30.0, 4096).astype(dtype)
    for z in (edges, draws, draws[::3], edges[:0]):
        got = _sigmoid(z)
        assert got.dtype == z.dtype
        assert got.tobytes() == retired_sigmoid(z).tobytes()


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

    def test_float32_end_to_end(self):
        """The executor's matrices are float32, and so is the model:
        weights, bias, margins and probabilities — even for float64
        input and a numpy float64 learning rate."""
        features, labels = _separable()
        assert features.dtype == np.float64
        model = LogisticRegression(
            learning_rate=np.float64(1.0)
        ).fit(features, labels)
        assert model.weights.dtype == np.float32
        assert np.asarray(model.bias).dtype == np.float32
        assert model.decision_function(features).dtype == np.float32
        assert model.predict_proba(features).dtype == np.float32
        assert model.predict(features).dtype == np.int64


def _oracle_fit(features, labels, reg_param=0.01, elastic_net_param=0.5,
                iterations=10, learning_rate=1.0):
    """The float64 formulation of ``LogisticRegression.fit`` the model
    computed in before it went float32, kept as its reference."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    n, d = features.shape
    weights, bias = np.zeros(d), 0.0
    l1 = reg_param * elastic_net_param
    l2 = reg_param * (1.0 - elastic_net_param)
    lipschitz = 0.25 * (np.square(features).sum(axis=1).mean() + 1.0) + l2
    step = learning_rate / max(lipschitz, 1e-12)
    for _ in range(iterations):
        residual = 1.0 / (1.0 + np.exp(-(features @ weights + bias))) - labels
        weights = weights - step * (features.T @ residual / n + l2 * weights)
        bias -= step * residual.mean()
        weights = np.sign(weights) * np.maximum(
            np.abs(weights) - step * l1, 0.0
        )
    return weights, bias


@pytest.fixture(scope="module")
def transfer_matrices():
    """The train matrices Vista hands its downstream model: 3 mini
    models x 4 dataset seeds x every feature layer (12 in all)."""
    from repro.cnn import build_model, get_model_stats
    from repro.core.config import VistaConfig
    from repro.core.executor import FeatureTransferExecutor
    from repro.core.plans import STAGED
    from repro.data import foods_dataset
    from repro.dataflow.context import local_context

    config = VistaConfig(
        cpu=2, num_partitions=4, mem_storage_bytes=0, mem_user_bytes=0,
        mem_dl_bytes=0, join="broadcast", persistence="deserialized",
    )
    matrices = []
    for name in ("alexnet", "vgg16", "resnet50"):
        cnn = build_model(name, profile="mini")
        layers = get_model_stats(name).feature_layers
        for seed in range(4):
            executor = FeatureTransferExecutor(
                local_context(num_nodes=1, cores_per_node=2, cpu=2), cnn,
                foods_dataset(num_records=48, seed=seed), layers, config,
                downstream_fn=lambda f, l: matrices.append((f, l)),
            )
            executor.run(STAGED)
    return matrices


def test_float32_fit_matches_the_float64_oracle(transfer_matrices):
    """Same predictions and F1 as the float64 formulation on every
    matrix, with weights within float32 rounding of the oracle's."""
    assert len(transfer_matrices) == 48
    for features, labels in transfer_matrices:
        assert features.dtype == np.float32
        model = LogisticRegression().fit(features, labels)
        weights, bias = _oracle_fit(features, labels)
        want = (features.astype(np.float64) @ weights + bias >= 0.0)
        np.testing.assert_array_equal(model.predict(features), want)
        assert f1_score(labels, model.predict(features)) \
            == f1_score(labels, want.astype(np.int64))
        scale = np.abs(weights).max()
        assert np.abs(model.weights - weights).max() <= 1e-5 * scale
        assert abs(model.bias - bias) <= 1e-5 * max(abs(bias), scale)


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
        """TensorFlow's MLP is single precision: weights, biases and
        probabilities stay float32 — even under a numpy float64
        learning rate, which would promote every update."""
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


# ---------------------------------------------------------------------
# training lanes: the MLP's data-parallel fit
# ---------------------------------------------------------------------
def _oracle_mlp(features, labels, hidden_units=(64, 64), iterations=10,
                learning_rate=0.05, random_state=0):
    """The single-threaded loop ``MLPClassifier.fit`` ran before it
    trained on lanes — each layer updated right after its gradient —
    kept as its reference."""
    features = np.asarray(features, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.float32)
    model = MLPClassifier(hidden_units, iterations, learning_rate,
                          random_state)
    rng = np.random.default_rng(random_state)
    sizes = [features.shape[1], *hidden_units, 1]
    model._weights = [
        rng.normal(0, np.sqrt(2.0 / fan), (fan, out)).astype(np.float32)
        for fan, out in zip(sizes, sizes[1:])
    ]
    model._biases = [np.zeros(out, dtype=np.float32) for out in sizes[1:]]
    n = len(labels)
    rate = np.float32(learning_rate)
    for _ in range(iterations):
        activations, pre = model._forward(features)
        delta = ((activations[-1][:, 0] - labels) / n)[:, None]
        for layer in reversed(range(len(model._weights))):
            grad_w = activations[layer].T @ delta
            grad_b = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ model._weights[layer].T) * (
                    pre[layer - 1] > 0
                )
            model._weights[layer] -= rate * grad_w
            model._biases[layer] -= rate * grad_b
    return model


def _params(model):
    return model._weights + model._biases


def _fit_on(count, features, labels, **kwargs):
    with lanes(count):
        return MLPClassifier(**kwargs).fit(features, labels)


def _assert_near_oracle(model, oracle, features, labels):
    """Within float32 rounding of the oracle, with the same F1."""
    for got, want in zip(_params(model), _params(oracle)):
        scale = max(np.abs(want).max(), 1e-3)
        assert np.abs(got - want).max() <= 2e-5 * scale
    assert f1_score(labels, model.predict(features)) \
        == f1_score(labels, oracle.predict(features))


class TestTrainingLanes:
    def test_lanes_set_and_reset(self):
        with lanes(3):
            assert training_lanes() == 3
            with lanes(2):
                assert training_lanes() == 2
            assert training_lanes() == 3
        assert training_lanes() == 1

    @pytest.mark.parametrize("n, d", [(50, 5), (7, 5), (1, 5), (256, 600)])
    def test_one_lane_is_the_single_threaded_loop_bitwise(self, n, d):
        features, labels = _separable(n=n, d=d)
        oracle = _oracle_mlp(features, labels)
        for model in (MLPClassifier().fit(features, labels),
                      _fit_on(1, features, labels)):
            for got, want in zip(_params(model), _params(oracle)):
                np.testing.assert_array_equal(got, want)

    def test_more_lanes_than_cores_under_fast_thread_switching(self):
        """Lanes only read the weights, and the driver writes them once
        every lane has returned: eight lanes switched every microsecond
        give the bits of an undisturbed eight-lane fit, so no update
        raced a lane's read."""
        features, labels = _separable(n=400, d=12)
        calm = _fit_on(8, features, labels)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            busy = _fit_on(8, features, labels)
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(_params(busy), _params(calm)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2])
    def test_fewer_rows_than_lanes(self, n):
        """A lane per row at most: no shard is empty, and the fit is
        the oracle's up to rounding."""
        features, labels = _separable(n=n)
        shard_rows = []
        gradients = MLPClassifier._gradients

        def spy(self, shard, shard_labels, total):
            shard_rows.append(len(shard))
            return gradients(self, shard, shard_labels, total)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MLPClassifier, "_gradients", spy)
            model = _fit_on(3, features, labels, iterations=2)
        assert sorted(shard_rows) == [1] * (2 * n)
        _assert_near_oracle(model, _oracle_mlp(features, labels,
                                               iterations=2),
                            features.astype(np.float32), labels)

    @pytest.mark.parametrize("lane", ["driver", "pool"])
    def test_a_shard_that_raises_mid_fit_still_joins_the_lane_pool(
        self, lane, monkeypatch
    ):
        """Regression: one shard's gradient raises on the third
        iteration — on the calling thread or on a pool lane — while the
        other lanes are still computing; the error reaches the caller
        and no lane thread outlives the fit."""
        threads_before = set(threading.enumerate())
        gradients = MLPClassifier._gradients
        calls = []

        def failing(self, *args):
            on_driver = threading.current_thread() is threading.main_thread()
            if on_driver == (lane == "driver"):
                calls.append(1)
                if len(calls) == 3:
                    raise FloatingPointError(f"shard on the {lane} failed")
            return gradients(self, *args)

        monkeypatch.setattr(MLPClassifier, "_gradients", failing)
        features, labels = _separable(n=90)
        with pytest.raises(FloatingPointError, match=lane):
            _fit_on(3, features, labels)
        assert set(threading.enumerate()) == threads_before


@pytest.mark.parametrize("count", [2, 3])
def test_lanes_on_transfer_matrices(transfer_matrices, count):
    """On every train matrix the executor hands M: each lane count
    repeats bit for bit, stays within float32 rounding of the
    single-threaded oracle, and gives the same F1."""
    for features, labels in transfer_matrices:
        first = _fit_on(count, features, labels)
        again = _fit_on(count, features, labels)
        for got, want in zip(_params(first), _params(again)):
            np.testing.assert_array_equal(got, want)
        _assert_near_oracle(first, _oracle_mlp(features, labels), features,
                            labels)


class TestExecutorLanes:
    """The executor hands M the run's ``cpu`` as its lanes, only for
    the downstream call, and records it on the span."""

    @staticmethod
    def _run(cpu, downstream_fn, **kwargs):
        from repro.cnn import build_model
        from repro.core.config import VistaConfig
        from repro.core.executor import FeatureTransferExecutor
        from repro.core.plans import STAGED
        from repro.data import foods_dataset
        from repro.dataflow.context import local_context

        config = VistaConfig(
            cpu=cpu, num_partitions=4, mem_storage_bytes=0,
            mem_user_bytes=0, mem_dl_bytes=0, join="broadcast",
            persistence="deserialized",
        )
        executor = FeatureTransferExecutor(
            local_context(num_nodes=1, cores_per_node=2, cpu=cpu),
            build_model("alexnet", profile="mini"),
            foods_dataset(num_records=24, seed=0), ["fc7", "fc8"], config,
            downstream_fn=downstream_fn, **kwargs,
        )
        return executor.run(STAGED)

    @pytest.mark.parametrize("cpu", [1, 2])
    def test_the_mlp_trains_on_the_runs_cpu(self, cpu, monkeypatch):
        seen = []
        shard_rows = []
        gradients = MLPClassifier._gradients

        def spy(self, shard, shard_labels, total):
            shard_rows.append(len(shard))
            return gradients(self, shard, shard_labels, total)

        def fit(features, labels):
            seen.append(training_lanes())
            return {"model": MLPClassifier(iterations=1).fit(features,
                                                             labels)}

        monkeypatch.setattr(MLPClassifier, "_gradients", spy)
        self._run(cpu, fit)
        assert seen == [cpu, cpu]
        # One iteration per layer: the 24 rows in `cpu` shards, twice.
        assert sorted(shard_rows) == sorted([24 // cpu] * cpu * 2)
        assert training_lanes() == 1

    def test_a_raising_downstream_fn_leaves_one_lane(self):
        def fail(features, labels):
            assert training_lanes() == 2
            raise RuntimeError("downstream failed")

        with pytest.raises(RuntimeError, match="downstream failed"):
            self._run(2, fail)
        assert training_lanes() == 1

    def test_the_downstream_span_and_its_ledger_event_carry_lanes(self):
        from repro.observe.ledger import RunLedger
        from repro.trace import Tracer

        tracer, ledger = Tracer(), RunLedger()
        self._run(2, lambda f, l: {}, tracer=tracer, ledger=ledger)
        spans = [span for span in tracer.export()
                 if span["name"].startswith("downstream:")]
        assert [span["attrs"] for span in spans] == [{"lanes": 2}] * 2
        starts = [event for event in ledger.of("span_start")
                  if event["name"].startswith("downstream:")]
        assert [event["attrs"] for event in starts] == [{"lanes": 2}] * 2
