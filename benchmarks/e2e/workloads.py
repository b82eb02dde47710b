"""The six workloads: what each sets up and what one iteration runs.

Every iteration goes through the public API only (``Vista.run`` or
``FeatureTransferExecutor.run``) and receives nothing but the generated
tables; ``--seed`` reaches the dataset generators and nothing else.

The four ``staged_*`` twins share one dataset and one ``RESOURCES``, so
Algorithm 1 picks the same configuration for all of them and each twin
differs from ``staged_alexnet`` in exactly one attached component.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.cnn.zoo import build_model, get_model_stats
from repro.core.api import Vista
from repro.core.config import Resources, VistaConfig
from repro.core.executor import FeatureTransferExecutor, default_downstream
from repro.core.plans import ALL_PLANS
from repro.data import foods_dataset
from repro.data.synthetic import generate_dataset
from repro.dataflow.context import ClusterContext
from repro.features.store import FeatureStore, dataset_fingerprint
from repro.memory.model import GB
from repro.memory.spark import spark_budget_from_regions
from repro.metrics import MetricsRegistry
from repro.ml.metrics import f1_score
from repro.ml.mlp import MLPClassifier
from repro.observe.ledger import RunLedger
from repro.recovery import CheckpointStore
from repro.trace import Tracer

RESOURCES = Resources(
    num_nodes=1, system_memory_bytes=32 * GB, cores_per_node=3
)

#: Fixed order of the sweep; every iteration runs each plan once.
SWEEP_PLANS = ("staged", "staged-bj", "eager", "eager-reordered",
               "lazy", "lazy-reordered")

QUICK_RECORDS = 64
LEDGER_FILE = "run.jsonl"


@dataclass(frozen=True)
class Workload:
    name: str
    records: int
    model: str
    num_layers: int
    #: ``body(state, run, down)`` is the timed iteration; it calls
    #: ``run(label, plan_name, fn)`` once per program run.
    body: object
    make_dataset: object
    #: Extra set-up after the dataset and model exist (store priming).
    prime: object = None
    fit: object = default_downstream
    #: A twin must reproduce ``staged_alexnet``'s feature matrices.
    twin: bool = False
    premat_layer: str = None


@dataclass
class State:
    """What one set-up produced; iterations only read it."""

    workload: Workload
    dataset: object
    cnn: object
    layers: list
    tmp: str
    timings: dict
    #: A fresh directory per iteration, made and removed off the clock.
    iter_dir: str = None
    extras: dict = field(default_factory=dict)


def _foods(records, seed):
    return foods_dataset(num_records=records, seed=seed)


def _wide(records, seed):
    return generate_dataset("wide", records, 512, seed=seed)


def setup(workload, records, seed, tmp):
    """Generate the tables, build the model, prime the stores."""
    os.makedirs(tmp)
    start = perf_counter()
    dataset = workload.make_dataset(records, seed)
    timings = {"data.generate_s": perf_counter() - start}
    # Same weights as the model Vista.run builds (model_seed 0); the
    # output check runs single images through this copy.
    cnn = build_model(workload.model, profile="mini", seed=0)
    layers = get_model_stats(workload.model).top_feature_layers(
        workload.num_layers
    )
    state = State(workload, dataset, cnn, layers, tmp, timings)
    if workload.prime is not None:
        workload.prime(state)
    return state


def new_vista(state, down, **kwargs):
    """A fresh Vista per run, so Algorithm 1 runs inside the clock."""
    workload = state.workload
    return Vista(
        workload.model, workload.num_layers, state.dataset, RESOURCES,
        downstream_fn=down, **kwargs,
    )


def _plan_sweep(state, run, down):
    for name in SWEEP_PLANS:
        run(name, name,
            lambda: new_vista(state, down).run(plan=ALL_PLANS[name]))


def _staged(state, run, down):
    run("staged", "staged", lambda: new_vista(state, down).run())


def _staged_process(state, run, down):
    run("staged", "staged",
        lambda: new_vista(state, down, exec_backend="process").run())


def _staged_durable(state, run, down):
    root = os.path.join(state.iter_dir, "checkpoints")
    for label in ("cold", "resume"):
        run(label, "staged", lambda: new_vista(state, down).run(
            checkpoint_store=CheckpointStore(root)
        ))


def _staged_ledgered(state, run, down):
    def body():
        tracer = Tracer(name="staged_ledgered")
        metrics = MetricsRegistry()
        ledger = RunLedger(os.path.join(state.iter_dir, LEDGER_FILE))
        result = new_vista(state, down).run(
            tracer=tracer, metrics=metrics, ledger=ledger
        )
        ledger.emit("run_end", status="ok")
        ledger.close()
        tracer.export()
        metrics.export()
        return result

    run("staged", "staged", body)


def _prime_premat(state):
    """Store the base layer's features, as an earlier session would
    have, and fix the configuration that makes the Eager table spill:
    Storage Memory scales with the records (4 MB at 8192)."""
    records = len(state.dataset)
    layer = state.workload.premat_layer
    images = np.stack(state.dataset.images())
    rows = []
    for begin in range(0, records, 256):
        tensors = state.cnn.forward_batch(
            images[begin:begin + 256], upto=layer
        )
        rows.extend(
            {"id": row["id"], "tensor": tensor}
            for row, tensor in zip(
                state.dataset.image_rows[begin:begin + 256], tensors
            )
        )
    store = FeatureStore(os.path.join(state.tmp, "features"))
    start = perf_counter()
    stored = store.put(
        state.cnn.name, layer, dataset_fingerprint(state.dataset), rows,
    )
    state.timings["features.store.put_s"] = perf_counter() - start
    state.timings["features.store.stored_bytes"] = stored
    config = VistaConfig(
        cpu=2, num_partitions=16, mem_storage_bytes=512 * records,
        mem_user_bytes=2 * GB, mem_dl_bytes=4 * GB, join="shuffle",
        persistence="serialized",
    )
    spill_dir = os.path.join(state.tmp, "spill")
    os.makedirs(spill_dir)
    state.extras.update(
        store=store, config=config, spill_dir=spill_dir,
        budget=spark_budget_from_regions(
            RESOURCES.system_memory_bytes,
            user_bytes=config.mem_user_bytes,
            core_bytes=int(2.4 * GB),
            storage_bytes=config.mem_storage_bytes,
        ),
    )


def _eager_spill_premat(state, run, down):
    extras = state.extras

    def body():
        context = ClusterContext(
            extras["budget"], num_nodes=RESOURCES.num_nodes,
            cores_per_node=RESOURCES.cores_per_node,
            cpu=extras["config"].cpu,
        )
        for worker in context.workers:
            worker.storage.spill_dir = extras["spill_dir"]
        executor = FeatureTransferExecutor(
            context, state.cnn, state.dataset, state.layers,
            extras["config"], downstream_fn=down,
            feature_store=extras["store"],
        )
        return executor.run(
            ALL_PLANS["eager"], premat_layer=state.workload.premat_layer
        )

    run("eager", "eager", body)


def _fit_mlp(features, labels):
    model = MLPClassifier().fit(features, labels)
    return {
        "model": model,
        "f1_train": f1_score(labels, model.predict(features)),
    }


WORKLOADS = {
    workload.name: workload for workload in (
        Workload("plan_sweep_resnet50", 128, "resnet50", 5, _plan_sweep,
                 _foods),
        Workload("staged_alexnet", 2048, "alexnet", 4, _staged, _foods),
        Workload("staged_process", 2048, "alexnet", 4, _staged_process,
                 _foods, twin=True),
        Workload("staged_durable", 2048, "alexnet", 4, _staged_durable,
                 _foods, twin=True),
        Workload("staged_ledgered", 2048, "alexnet", 4, _staged_ledgered,
                 _foods, twin=True),
        Workload("eager_spill_premat", 2048, "alexnet", 3,
                 _eager_spill_premat, _wide, prime=_prime_premat,
                 fit=_fit_mlp, premat_layer="conv5"),
    )
}

#: The plain serial run the twins are read against.
BASELINE = WORKLOADS["staged_alexnet"]
