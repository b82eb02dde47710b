"""Shared helpers for the benchmark suite.

Every bench regenerates one of the paper's tables/figures: it prints
the same rows/series the paper reports (so EXPERIMENTS.md can compare
shapes) and asserts the qualitative invariants — who wins, which cells
crash, where crossovers fall.
"""

from __future__ import annotations

from repro.cnn import get_model_stats
from repro.core.config import DatasetStats, Workload

#: The paper's workload grid: CNN -> number of layers explored.
PAPER_LAYER_COUNTS = {"alexnet": 4, "vgg16": 3, "resnet50": 5}

#: Paper-scale dataset statistics (Section 5's Foods and Amazon).
FOODS = DatasetStats(
    num_records=20_000, num_structured_features=130, avg_image_bytes=14 * 1024
)
AMAZON = DatasetStats(
    num_records=200_000, num_structured_features=200,
    avg_image_bytes=15 * 1024,
)


def paper_workload(model_name, dataset_stats=None, num_layers=None):
    """The :class:`Workload` of a paper workload: the roster CNN's top
    ``num_layers`` (default: the paper's count) over ``dataset_stats``
    (default: Foods)."""
    stats = get_model_stats(model_name)
    layers = stats.top_feature_layers(
        num_layers or PAPER_LAYER_COUNTS[model_name]
    )
    return Workload(stats, layers, dataset_stats or FOODS)


def scale_dataset_stats(base, factor=1, num_structured_features=None):
    """Semi-synthetic scaling of DatasetStats (Section 5.3's '4X' and
    structured-feature sweeps)."""
    return DatasetStats(
        num_records=base.num_records * factor,
        num_structured_features=(
            num_structured_features
            if num_structured_features is not None
            else base.num_structured_features
        ),
        avg_image_bytes=base.avg_image_bytes,
    )


def print_table(title, headers, rows):
    """Render one paper-style table to stdout."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ] if rows else [len(str(h)) for h in headers]
    print(f"\n### {title}")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def fmt_minutes(report):
    """Figure-6 style cell: minutes or X on crash."""
    return report.cell()
