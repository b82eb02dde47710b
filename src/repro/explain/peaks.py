"""Per-region memory-peak prediction for an executable run.

The prediction is the memory half of the cost model's plan walk
(:func:`repro.costmodel.runtime.walk_plan`): the one pass over the
:func:`~repro.core.plans.compile_plan` step list that prices a plan
also replays the engine's exact charges for it — columnar row sizes,
round-robin and hash partition counts, ``index % num_nodes`` placement
and ``cpu``-wide waves. Predictions are exact or over by construction,
and predicted/observed ratios land in
:data:`repro.costmodel.params.PEAK_PREDICTION_BAND` except serialized
Storage, which is over by the zeros its sparse columns drop.
"""

from __future__ import annotations

from repro.costmodel.runtime import walk_plan


def predict_workload_peaks(workload, config, plan, num_nodes):
    """Predict the per-worker peak of each region when ``plan`` runs
    ``workload`` under ``config`` on ``num_nodes`` workers; returns
    ``{"user", "core", "dl", "storage", "driver"}`` in bytes, keyed like
    the executor's ``region_peak_bytes``."""
    return walk_plan(workload, plan, (config, num_nodes)).region_peaks


def peak_ratios(predicted, observed):
    """Per-region predicted/observed ratios. Regions the run never
    touched (observed 0) are reported as ``None`` — nothing to
    calibrate against."""
    ratios = {}
    for region, prediction in predicted.items():
        measured = observed.get(region) or 0
        ratios[region] = (
            round(prediction / measured, 4) if measured > 0 else None
        )
    return ratios
