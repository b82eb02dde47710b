"""Eq. 16 size estimates validated against traced actual bytes.

The paper's Figure 15 validates Eq. 16 against actual intermediate
table sizes: estimates are deliberately *safe upper bounds*. At mini
scale the roster's 227x227 statistics are meaningless, so the executor
records estimates recomputed from the executable CNN's real layer
shapes (:func:`repro.core.sizing.estimate_sizes` over ``cnn.stats``)
next to the measured bytes of each joined per-layer train table in the trace's
``sizing`` attribute.

Documented tolerance: ``1.0 <= estimated / measured <= alpha`` with
``alpha = 2.0`` (the JVM-blowup fudge factor). The measured side is
the *exact* columnar buffer bytes (no per-record slot overhead at
all), so the estimate must bound the measurement from above without
exceeding the full alpha blowup. Observed ratios across the roster
sit in [1.15, 1.69].
"""

import pytest

from repro.cnn import build_model
from repro.core.config import DatasetStats, VistaConfig, Workload
from repro.core.executor import FeatureTransferExecutor
from repro.core.plans import STAGED
from repro.core.sizing import estimate_sizes
from repro.data import foods_dataset
from repro.dataflow.context import local_context
from repro.trace import Tracer

#: The documented tolerance band for estimate / measured.
RATIO_LOWER = 1.0
RATIO_UPPER = 2.0  # alpha


def _traced_sizing(model_name, num_layers, records):
    model = build_model(model_name, profile="mini")
    layers = model.feature_layers[-num_layers:]
    dataset = foods_dataset(num_records=records)
    config = VistaConfig(
        cpu=2, num_partitions=4, mem_storage_bytes=10**9,
        mem_user_bytes=10**9, mem_dl_bytes=10**9, join="shuffle",
        persistence="deserialized",
    )
    ctx = local_context(num_nodes=2, cores_per_node=4, cpu=2)
    executor = FeatureTransferExecutor(
        ctx, model, dataset, list(layers), config,
        downstream_fn=lambda f, l: {"ok": True}, tracer=Tracer(),
    )
    result = executor.run(STAGED)
    spans = result.trace.export()
    workload = next(s for s in spans if s["name"] == "workload")
    return workload["attrs"]["sizing"], spans


def _sizing_table(sizing):
    """Readable estimate-vs-actual table for assertion messages."""
    lines = [
        f"{'layer':12s} {'estimated':>12s} {'measured':>12s} {'ratio':>7s}"
    ]
    for layer, entry in sizing.items():
        est = entry["estimated_bytes"]
        meas = entry["measured_bytes"]
        ratio = est / meas if meas else float("inf")
        lines.append(f"{layer:12s} {est:>12d} {meas:>12d} {ratio:>7.3f}")
    return "\n".join(lines)


@pytest.mark.parametrize("model_name,num_layers,records", [
    ("alexnet", 2, 24),
    ("alexnet", 3, 48),
    ("vgg16", 2, 24),
    ("resnet50", 3, 24),
])
def test_estimates_within_documented_tolerance(model_name, num_layers,
                                               records):
    sizing, _ = _traced_sizing(model_name, num_layers, records)
    assert sizing, "trace recorded no sizing comparison"
    table = _sizing_table(sizing)
    for layer, entry in sizing.items():
        est = entry["estimated_bytes"]
        meas = entry["measured_bytes"]
        assert meas and meas > 0, (
            f"no measured bytes for {layer}\n{table}"
        )
        ratio = est / meas
        assert RATIO_LOWER <= ratio <= RATIO_UPPER, (
            f"Eq. 16 estimate for {model_name}/{layer} outside the "
            f"documented [{RATIO_LOWER}, {RATIO_UPPER}] band "
            f"(ratio {ratio:.3f}):\n{table}"
        )


def test_measured_bytes_match_traced_train_counters():
    """The sizing table's measured side is exactly what the train
    spans saw flow in — the comparison is trace-derived, not a
    parallel bookkeeping path."""
    sizing, spans = _traced_sizing("alexnet", 2, 24)
    for layer, entry in sizing.items():
        span = next(s for s in spans if s["name"] == f"train:{layer}")
        assert span["counters"]["bytes_in"] == entry["measured_bytes"]


def test_measured_bytes_are_exact_columnar_sizes():
    """Columnar partitions make the measured side deterministic: the
    traced train-table bytes equal the closed-form columnar size
    n x (16 + 4 x (n_str + |flat|)) bit-exactly."""
    from repro.core.sizing import columnar_intermediate_bytes
    from repro.data import foods_dataset

    records = 24
    model = build_model("alexnet", profile="mini")
    dataset = foods_dataset(num_records=records)
    stats = DatasetStats(
        num_records=records,
        num_structured_features=dataset.num_structured_features,
        avg_image_bytes=int(dataset.image_rows[0]["image"].nbytes),
    )
    sizing, _ = _traced_sizing("alexnet", 2, records)
    for layer, entry in sizing.items():
        assert entry["measured_bytes"] == columnar_intermediate_bytes(
            Workload(model.stats, [layer], stats), layer
        )


def test_estimate_formula_matches_eq16():
    """estimate_sizes over ``cnn.stats`` is Eq. 16 verbatim over the
    executable CNN's shapes: alpha * n * (8 + 8 + 4*|flat|) + |Tstr|."""
    model = build_model("alexnet", profile="mini")
    stats = DatasetStats(
        num_records=100, num_structured_features=130,
        avg_image_bytes=32 * 32 * 3 * 4,
    )
    estimates = estimate_sizes(
        Workload(model.stats, ["fc7", "fc8"], stats)
    ).intermediate_table_bytes
    for layer in ("fc7", "fc8"):
        flat = 1
        for dim in model.output_shape_of(layer):
            flat *= dim
        expected = int(
            2.0 * 100 * (8 + 8 + 4 * flat) + stats.structured_table_bytes()
        )
        assert estimates[layer] == expected


def test_estimates_scale_linearly_with_records():
    small, _ = _traced_sizing("alexnet", 2, 20)
    large, _ = _traced_sizing("alexnet", 2, 60)
    for layer in small:
        est_s = small[layer]["estimated_bytes"]
        est_l = large[layer]["estimated_bytes"]
        meas_s = small[layer]["measured_bytes"]
        meas_l = large[layer]["measured_bytes"]
        assert est_l == pytest.approx(3 * est_s, rel=0.01)
        assert meas_l == pytest.approx(3 * meas_s, rel=0.05)
