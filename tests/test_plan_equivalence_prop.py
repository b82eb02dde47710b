"""Property-based cross-plan equivalence (Section 5.2).

The paper's core correctness claim is that all logical plans are
*semantically interchangeable*: "All approaches ... yield identical
downstream models." This suite hammers that invariant over a matrix of
randomized-but-seeded mini workloads — model, layer count, dataset
size/seed, partition count, cpu, join operator, and persistence format
are all drawn from a per-seed ``random.Random`` — and asserts that
every logical plan produces

- **bit-identical** per-layer feature matrices (``np.array_equal``,
  not allclose: partitioning and staging change batch composition but
  every kernel is per-record deterministic, so there is no legitimate
  source of drift), and
- identical downstream training accuracy (the deterministic logistic
  regression sees identical inputs, so F1 must match exactly).

The seed list is fixed so CI runs an exact, reproducible matrix; add
seeds to widen coverage.
"""

import os
import random
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from repro.cnn import build_model
from repro.core.config import VistaConfig
from repro.core.executor import FeatureTransferExecutor, default_downstream
from repro.core.plans import ALL_PLANS
from repro.data import foods_dataset
from repro.dataflow.context import local_context
from repro.features.pooling import pool_feature_tensor
from repro.observe.ledger import RunLedger

#: Fixed seed matrix (>= 20 configs, per the tier-2 CI contract).
SEEDS = list(range(24))

# CI shards the matrix with PLAN_EQUIV_SHARD="<shard>/<of>" (e.g.
# "1/3" keeps seeds where seed % 3 == 1) so a failing seed names its
# shard; unset runs everything.
_SHARD = os.environ.get("PLAN_EQUIV_SHARD")
if _SHARD:
    _shard, _of = (int(part) for part in _SHARD.split("/"))
    SEEDS = [seed for seed in SEEDS if seed % _of == _shard]

#: Mini-profile zoo subset; vgg16 mini is covered by the integration
#: suite and adds the most runtime, so the property matrix rotates
#: between the cheapest and the deepest-structured model.
MODELS = ["alexnet", "resnet50"]

_MODEL_CACHE = {}


def _model(name):
    if name not in _MODEL_CACHE:
        _MODEL_CACHE[name] = build_model(name, profile="mini")
    return _MODEL_CACHE[name]


def workload_from_seed(seed):
    """Draw one mini workload configuration from a seeded RNG."""
    rng = random.Random(seed)
    model_name = rng.choice(MODELS)
    model = _model(model_name)
    num_layers = rng.choice([1, 2, 3])
    layers = model.feature_layers[-num_layers:]
    dataset = foods_dataset(
        num_records=rng.choice([10, 14, 18, 22]),
        seed=rng.randrange(1000),
    )
    config = VistaConfig(
        cpu=rng.choice([1, 2, 3]),
        num_partitions=rng.choice([2, 3, 4, 8]),
        mem_storage_bytes=10**9,
        mem_user_bytes=10**9,
        mem_dl_bytes=10**9,
        join=rng.choice(["shuffle", "broadcast"]),
        persistence=rng.choice(["deserialized", "serialized"]),
    )
    return model_name, model, layers, dataset, config


def _downstream(features, labels):
    outcome = default_downstream(features, labels)
    return {
        "matrix": features.copy(),
        "f1_train": outcome["f1_train"],
    }


def _run_plan(model, dataset, layers, config, plan, downstream_fn=None,
              checkpoint_store=None, exec_backend=None, ledger=None):
    ctx = local_context(num_nodes=2, cores_per_node=4, cpu=config.cpu,
                        exec_backend=exec_backend)
    executor = FeatureTransferExecutor(
        ctx, model, dataset, list(layers), config,
        downstream_fn=downstream_fn or _downstream,
        checkpoint_store=checkpoint_store, ledger=ledger,
    )
    try:
        return executor.run(plan)
    finally:
        ctx.exec_backend.close()


@pytest.mark.parametrize("seed", SEEDS)
def test_all_plans_equivalent(seed):
    model_name, model, layers, dataset, config = workload_from_seed(seed)
    reference = _run_plan(model, dataset, layers, config,
                          ALL_PLANS["staged"])
    for name, plan in ALL_PLANS.items():
        if name == "staged":
            continue
        result = _run_plan(model, dataset, layers, config, plan)
        assert sorted(result.layer_results) == sorted(
            reference.layer_results
        ), f"seed {seed} ({model_name}): {name} trained different layers"
        for layer in reference.layer_results:
            ref = reference.layer_results[layer].downstream
            got = result.layer_results[layer].downstream
            assert np.array_equal(got["matrix"], ref["matrix"]), (
                f"seed {seed} ({model_name}, {config.join}/"
                f"{config.persistence}, np={config.num_partitions}): "
                f"plan {name} diverged bitwise on layer {layer}; "
                f"max abs diff "
                f"{np.max(np.abs(got['matrix'] - ref['matrix']))}"
            )
            assert got["f1_train"] == ref["f1_train"], (
                f"seed {seed}: plan {name} downstream accuracy diverged "
                f"on {layer}: {got['f1_train']} != {ref['f1_train']}"
            )


def _serialized_bytes_per_row(matrix):
    """The VCB1 wire cost of the feature matrix, per row — a
    deterministic gauge (``test_columnar.py`` pins the wire format byte
    for byte); if the backends ever disagreed on feature bytes, dtype,
    or layout, this diverges even where values compare equal."""
    from repro.dataflow.columnar import ColumnarBlock

    block = ColumnarBlock.from_rows(
        [{"features": row} for row in matrix]
    )
    return len(block.to_buffer()) / block.num_rows


@contextmanager
def _forward_threads(model):
    """The threads ``model.partial_forward_batch`` runs on inside the
    block."""
    seen = set()
    forward = model.partial_forward_batch

    def spy(*args):
        seen.add(threading.get_ident())
        return forward(*args)

    model.partial_forward_batch = spy
    try:
        yield seen
    finally:
        del model.partial_forward_batch


@pytest.mark.parametrize("seed", SEEDS)
def test_backends_bit_identical(seed):
    """Tentpole invariant: a backend is purely a *physical* change.
    For every seeded workload, every logical plan's feature matrices,
    downstream F1, and serialized bytes per row are byte-identical
    between the in-process serial engine, the thread lanes and the
    forked-OS-process backend (results shipped over pipes). Stage
    placement keeps most stages in the driver, so every process run
    must also show a task served by another pid, and every thread run
    whose waves hold two tasks a forward pass on another thread: the
    matrix can never silently compare serial with serial."""
    model_name, model, layers, dataset, config = workload_from_seed(seed)
    for name, plan in ALL_PLANS.items():
        serial = _run_plan(model, dataset, layers, config, plan,
                           exec_backend="serial")
        for backend in ("threads", "process"):
            ledger = RunLedger()
            with _forward_threads(model) as threads:
                other = _run_plan(model, dataset, layers, config, plan,
                                  exec_backend=backend, ledger=ledger)
            if backend == "process":
                served_by = {event["pid"] for event in ledger.of("task_fork")}
                assert served_by and os.getpid() not in served_by, (
                    f"seed {seed} ({model_name}): {name} dispatched nothing"
                )
            elif config.cpu > 1 and config.num_partitions > 2:
                assert threads - {threading.get_ident()}, (
                    f"seed {seed} ({model_name}): {name} ran no lane"
                )
            assert sorted(other.layer_results) == sorted(
                serial.layer_results
            ), f"seed {seed} ({model_name}): {name} trained different layers"
            for layer in serial.layer_results:
                ref = serial.layer_results[layer].downstream
                got = other.layer_results[layer].downstream
                assert np.array_equal(got["matrix"], ref["matrix"]), (
                    f"seed {seed} ({model_name}, {config.join}/"
                    f"{config.persistence}, np={config.num_partitions}, "
                    f"cpu={config.cpu}): plan {name} diverged bitwise "
                    f"between serial and {backend} on layer {layer}"
                )
                assert got["matrix"].dtype == ref["matrix"].dtype
                assert got["f1_train"] == ref["f1_train"], (
                    f"seed {seed}: plan {name} downstream accuracy "
                    f"diverged between serial and {backend} on {layer}"
                )
                assert (
                    _serialized_bytes_per_row(got["matrix"])
                    == _serialized_bytes_per_row(ref["matrix"])
                ), (
                    f"seed {seed}: plan {name} wire-format bytes per row "
                    f"diverged between serial and {backend} on {layer}"
                )


def _single_image_oracle(model, dataset, layer):
    """Engine-independent reference for one layer's train matrix: each
    image alone through ``CNN.forward``, pooled, behind its structured
    features — no tables, partitions, blocks, joins, or batching."""
    structured = {
        row["id"]: row["features"] for row in dataset.structured_rows
    }
    return np.stack([
        np.concatenate([
            structured[row["id"]],
            pool_feature_tensor(model.forward(row["image"], upto=layer)),
        ])
        for row in sorted(dataset.image_rows, key=lambda row: row["id"])
    ])


def _oracle_bound(expected):
    """Elementwise tolerance against the single-image oracle: rtol
    1e-4, atol 1e-5 of the row's scale."""
    scale = np.maximum(1.0, np.abs(expected).max(axis=1, keepdims=True))
    return 1e-5 * scale + 1e-4 * np.abs(expected)


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_all_plans_match_single_image_oracle(seed):
    """Every logical plan's train matrices equal the single-image
    oracle row for row. The batched kernels sum float32 in another
    order than the per-image path, so the comparison carries the
    tolerance ``benchmarks/e2e/iteration.py::single_image_failure``
    uses (rtol 1e-4, atol 1e-5 of the row's scale)."""
    _, model, layers, dataset, config = workload_from_seed(seed)
    oracle = {
        layer: _single_image_oracle(model, dataset, layer)
        for layer in layers
    }
    for name, plan in ALL_PLANS.items():
        result = _run_plan(model, dataset, layers, config, plan)
        assert sorted(result.layer_results) == sorted(layers)
        for layer in layers:
            got = result.layer_results[layer].downstream["matrix"]
            expected = oracle[layer]
            assert got.shape == expected.shape, (seed, name, layer)
            assert np.all(
                np.abs(got - expected) <= _oracle_bound(expected)
            ), (
                f"seed {seed}: plan {name} differs from the "
                f"single-image oracle on layer {layer}; max abs diff "
                f"{np.max(np.abs(got - expected))}"
            )


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_plans_equivalent_under_tracing(seed):
    """Tracing must be purely observational: a traced run's features
    are bit-identical to the untraced run's."""
    from repro.trace import Tracer

    _, model, layers, dataset, config = workload_from_seed(seed)
    plain = _run_plan(model, dataset, layers, config, ALL_PLANS["staged"])

    ctx = local_context(num_nodes=2, cores_per_node=4, cpu=config.cpu)
    executor = FeatureTransferExecutor(
        ctx, model, dataset, list(layers), config,
        downstream_fn=_downstream, tracer=Tracer(),
    )
    traced = executor.run(ALL_PLANS["staged"])
    assert traced.trace is not None
    for layer in plain.layer_results:
        assert np.array_equal(
            traced.layer_results[layer].downstream["matrix"],
            plain.layer_results[layer].downstream["matrix"],
        ), f"seed {seed}: tracing perturbed features on {layer}"


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_resume_from_checkpoints_is_bit_identical(seed, tmp_path):
    """Satellite: the cross-plan invariant extends to recovery — for
    every logical plan, a run that crashes after its materialization
    stages and is resumed from the checkpoint store produces feature
    matrices bit-identical to an uninterrupted run."""
    from repro.exceptions import WorkloadCrash
    from repro.recovery import CheckpointStore

    _, model, layers, dataset, config = workload_from_seed(seed)
    for name, plan in ALL_PLANS.items():
        plain = _run_plan(model, dataset, layers, config, plan)

        calls = {"n": 0}

        def crashing_downstream(features, labels):
            # The crash lands after the checkpointed materialization
            # stages committed, which is the deterministic analogue of
            # losing the cluster at the last wave.
            if calls["n"] == 0:
                calls["n"] += 1
                raise WorkloadCrash("injected crash before downstream")
            return _downstream(features, labels)

        root = str(tmp_path / f"ckpt-{name.replace('/', '-')}")
        store = CheckpointStore(root)
        with pytest.raises(WorkloadCrash):
            _run_plan(model, dataset, layers, config, plan,
                      downstream_fn=crashing_downstream,
                      checkpoint_store=store)
        assert store.checkpoint_partitions_total > 0, (
            f"seed {seed}: plan {name} checkpointed nothing before the "
            "crash"
        )

        resumed_store = CheckpointStore(root)
        resumed = _run_plan(model, dataset, layers, config, plan,
                            checkpoint_store=resumed_store)
        assert resumed_store.restore_total > 0, (
            f"seed {seed}: plan {name} resumed without restoring any "
            "checkpoint"
        )
        for layer in plain.layer_results:
            ref = plain.layer_results[layer].downstream
            got = resumed.layer_results[layer].downstream
            assert np.array_equal(got["matrix"], ref["matrix"]), (
                f"seed {seed}: plan {name} resume diverged bitwise on "
                f"layer {layer}"
            )
            assert got["f1_train"] == ref["f1_train"]
