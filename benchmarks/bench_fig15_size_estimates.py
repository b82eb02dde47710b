"""Figure 15 (Appendix A): estimated vs actual size of the largest
intermediate table, All-at-Time (Eager) vs Staged, for the three CNNs.

Two parts:
  1. Paper scale — Eq. 16 estimates for Foods/1X, Eager vs Staged.
  2. Mini scale — the SAME estimator arithmetic validated against
     *actual* tables materialized on the real dataflow engine, in both
     deserialized and serialized formats.

Shape invariants:
  - the estimate upper-bounds the actual deserialized size (the
    paper's 'accurate ... with a reasonable safety margin');
  - serialized is smaller than deserialized;
  - AlexNet features compress hardest (most zeros — Appendix A);
  - Eager's largest table >= Staged's for every CNN.
"""

import numpy as np
import pytest

from harness import paper_workload, print_table
from repro.cnn import build_model
from repro.core.config import DatasetStats
from repro.core.sizing import eager_table_bytes
from repro.dataflow.partition import Partition
from repro.dataflow.record import estimate_rows_bytes
from repro.memory.model import GB


@pytest.fixture(scope="module")
def paper_estimates():
    out = {}
    for model in ("alexnet", "vgg16", "resnet50"):
        workload = paper_workload(model)
        out[model] = {
            "staged": workload.sizes.s_single,
            "eager": eager_table_bytes(workload),
        }
    return out


def _materialize_rows(model_name, num_records=64):
    """Actually build one stage table's rows on the mini engine."""
    from repro.data import foods_dataset

    cnn = build_model(model_name, profile="mini")
    dataset = foods_dataset(num_records=num_records)
    layer = cnn.feature_layers[0]  # the largest (lowest) layer
    rows = []
    for srow, irow in zip(dataset.structured_rows, dataset.image_rows):
        rows.append({
            "id": srow["id"],
            "features": srow["features"],
            "label": srow["label"],
            "tensor": cnn.forward(irow["image"], upto=layer),
        })
    return rows


@pytest.fixture(scope="module")
def mini_actuals():
    out = {}
    for model in ("alexnet", "vgg16", "resnet50"):
        rows = _materialize_rows(model)
        partition = Partition.from_rows(0, rows)
        deserialized = estimate_rows_bytes(rows)
        serialized = len(partition.serialized_blob())
        # The same Eq. 16 arithmetic, at mini dims with alpha = 2.
        cnn = build_model(model, profile="mini")
        dim = int(np.prod(
            cnn.output_shape_of(cnn.feature_layers[0])
        ))
        ds = DatasetStats(len(rows), 130, 32 * 32 * 3 * 4)
        estimate = int(
            2.0 * len(rows) * (8 + 8 + 4 * dim)
            + ds.structured_table_bytes()
        )
        out[model] = {
            "estimate": estimate,
            "deserialized": deserialized,
            "serialized": serialized,
        }
    return out


def test_fig15_tables(paper_estimates, mini_actuals, benchmark):
    benchmark(lambda: _materialize_rows("alexnet", 16))
    rows = [
        [model,
         f"{est['eager'] / GB:.2f}",
         f"{est['staged'] / GB:.2f}"]
        for model, est in paper_estimates.items()
    ]
    print_table(
        "Figure 15 — estimated largest intermediate (GB), Foods/1X",
        ["CNN", "AaT (Eager)", "Staged"], rows,
    )
    rows = [
        [model, a["estimate"], a["deserialized"], a["serialized"]]
        for model, a in mini_actuals.items()
    ]
    print_table(
        "Figure 15 (mini-scale validation) — bytes",
        ["CNN", "Eq.16 estimate", "actual deser.", "actual ser."], rows,
    )


def test_estimate_upper_bounds_actual(mini_actuals):
    for model, a in mini_actuals.items():
        assert a["estimate"] >= a["deserialized"], model


def test_estimate_margin_is_reasonable(mini_actuals):
    """Safe but not absurd: within ~4x of the actual."""
    for model, a in mini_actuals.items():
        assert a["estimate"] < 4 * a["deserialized"], model


def test_serialized_smaller_than_deserialized(mini_actuals):
    for model, a in mini_actuals.items():
        assert a["serialized"] < a["deserialized"], model


def test_eager_at_least_staged(paper_estimates):
    for model, est in paper_estimates.items():
        assert est["eager"] >= est["staged"], model


def test_resnet_has_largest_intermediates(paper_estimates):
    staged = {m: est["staged"] for m, est in paper_estimates.items()}
    assert max(staged, key=staged.get) == "resnet50"


def test_paper_scale_magnitudes(paper_estimates):
    """Figure 15 shows ResNet50/1X intermediates in the tens of GB and
    VGG16's under 1 GB (fc layers only)."""
    assert paper_estimates["resnet50"]["staged"] > 20 * GB
    assert paper_estimates["vgg16"]["staged"] < 3 * GB
