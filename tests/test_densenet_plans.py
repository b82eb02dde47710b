"""DenseNet-mini inside the plan x backend matrix.

DenseNet runs as a chain of composite blocks (paper fn. 1), so the one
plan interpreter owes it what it owes the roster models: every logical
plan on both backends yields Staged's per-layer feature matrices bit
for bit and the same downstream F1, the peak predictor prices the run,
the metered inference FLOPs show Lazy's redundancy and Staged/Eager's
single pass, and the process leg really leaves the driver. The 24-seed
matrix (``test_plan_equivalence_prop.py``) draws its model from a fixed
list, so this file is a matrix of its own over fixed configurations.
"""

import os

import numpy as np
import pytest

from repro.cnn.zoo.densenet import MINI_INPUT_SHAPE, build_densenet_mini
from repro.core.config import VistaConfig
from repro.core.plans import ALL_PLANS
from repro.costmodel.params import PEAK_PREDICTION_BAND
from repro.data import foods_dataset
from repro.explain.peaks import peak_ratios, predict_workload_peaks
from repro.observe.ledger import RunLedger
from tests.test_plan_equivalence_prop import _run_plan

#: (records, dataset seed, cpu, num_partitions, join, persistence):
#: both joins x both persistence formats, ragged and even partitions.
CONFIGS = [
    (22, 11, 1, 3, "shuffle", "deserialized"),
    (14, 12, 3, 8, "broadcast", "serialized"),
    (10, 13, 2, 4, "shuffle", "serialized"),
    (18, 14, 2, 5, "broadcast", "deserialized"),
]

MODEL = build_densenet_mini()
LAYERS = MODEL.feature_layers


def _workload(records, seed, cpu, num_partitions, join, persistence):
    dataset = foods_dataset(
        num_records=records, image_shape=MINI_INPUT_SHAPE, seed=seed
    )
    config = VistaConfig(
        cpu=cpu, num_partitions=num_partitions, mem_storage_bytes=10**9,
        mem_user_bytes=10**9, mem_dl_bytes=10**9, join=join,
        persistence=persistence,
    )
    return dataset, config


def _expected_flops(plan_name, records):
    """Lazy re-runs every layer's whole prefix from the image; Staged
    and Eager run the deepest prefix once (Section 4.2.1)."""
    prefixes = [MODEL.flops_between(0, layer) for layer in LAYERS]
    per_image = sum(prefixes) if plan_name.startswith("lazy") else prefixes[-1]
    return per_image * records


@pytest.mark.parametrize(
    "workload", CONFIGS, ids=lambda workload: "-".join(map(str, workload))
)
def test_densenet_all_plans_both_backends(workload):
    dataset, config = _workload(*workload)
    reference = _run_plan(MODEL, dataset, LAYERS, config, ALL_PLANS["staged"],
                          exec_backend="serial")
    assert sorted(reference.layer_results) == sorted(LAYERS)
    for name, plan in ALL_PLANS.items():
        predicted = predict_workload_peaks(
            MODEL, dataset, LAYERS, config, plan, num_nodes=2
        )
        for backend in ("serial", "process"):
            where = f"{workload}: {name} on {backend}"
            ledger = RunLedger()
            result = _run_plan(MODEL, dataset, LAYERS, config, plan,
                               exec_backend=backend, ledger=ledger)
            served_by = {event["pid"] for event in ledger.of("task_fork")}
            if backend == "process":
                assert served_by and os.getpid() not in served_by, where
            else:
                assert not served_by, where
            assert sorted(result.layer_results) == sorted(LAYERS), where
            for layer in LAYERS:
                ref = reference.layer_results[layer].downstream
                got = result.layer_results[layer].downstream
                assert np.array_equal(got["matrix"], ref["matrix"]), (
                    f"{where}: diverged bitwise from Staged on {layer}"
                )
                assert got["f1_train"] == ref["f1_train"], (where, layer)
            assert result.metrics["inference_flops"] == _expected_flops(
                name, len(dataset)
            ), where
            ratios = peak_ratios(
                predicted, result.metrics["region_peak_bytes"]
            )
            storage = ratios.pop("storage")
            if config.join == "broadcast":  # no build side charged to Core
                assert ratios.pop("core") is None, where
            assert set(ratios.values()) == {1.0}, (where, ratios)
            if name.startswith("lazy"):     # Lazy caches nothing
                assert storage is None, where
            elif config.persistence == "deserialized":
                assert storage == 1.0, where
            else:
                # Priced deserialized: an upper bound on the blob, which
                # is smaller by the zeros ReLU left in the transitions.
                low, high = PEAK_PREDICTION_BAND
                assert low <= storage <= high, (where, storage)
