"""Shared helpers for the benchmark suite.

Every bench regenerates one of the paper's tables/figures: it prints
the same rows/series the paper reports (so EXPERIMENTS.md can compare
shapes) and asserts the qualitative invariants — who wins, which cells
crash, where crossovers fall.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from repro.cnn import get_model_stats
from repro.core.config import DatasetStats
# Metric-series lookups, mirroring find_span/span_seconds for the
# trace/v2 metrics block: benches resolve a committed envelope's
# series and read its peak/total back out.
from repro.metrics import find_series, series_peak  # noqa: F401

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


def paper_workload(model_name):
    """(ModelStats, layer list) for a paper workload."""
    stats = get_model_stats(model_name)
    return stats, stats.top_feature_layers(PAPER_LAYER_COUNTS[model_name])


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


class Timing:
    """Mutable wall-clock result filled in when a time_block exits."""

    def __init__(self, label=None):
        self.label = label
        self.seconds = None

    def __repr__(self):
        if self.seconds is None:
            return f"<Timing {self.label}: running>"
        return f"<Timing {self.label}: {self.seconds:.4f}s>"


@contextmanager
def time_block(label=None, sink=None):
    """Time a block of code; yields a :class:`Timing` whose ``seconds``
    is set when the block exits.

    With ``sink`` (a dict), the elapsed seconds are also recorded under
    ``label`` so benches can accumulate wall-clock numbers alongside
    their paper-shape assertions.
    """
    timing = Timing(label)
    start = time.perf_counter()
    try:
        yield timing
    finally:
        timing.seconds = time.perf_counter() - start
        if sink is not None:
            sink[label] = timing.seconds


def write_results(path, payload):
    """Write one bench's JSON result file (sorted keys, trailing
    newline) so successive runs diff cleanly."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


#: Version tag of the shared trace-derived BENCH_*.json layout.
#: ``trace/v2`` extends v1 with a ``metrics`` block — the time-series
#: export of a :class:`~repro.metrics.MetricsRegistry` — next to the
#: span tree.
TRACE_SCHEMA = "trace/v2"


def trace_payload(bench, results, trace=None, metrics=None, **params):
    """The shared BENCH_*.json layout: every bench commits the same
    envelope — a schema tag, the bench name, its parameters, the
    result rows, the span tree the rows were derived from, and the
    metrics block — so downstream tooling reads one format.

    ``trace`` is a :class:`~repro.trace.Tracer`, a Span, or an already
    exported dict (None for benches run with tracing off). ``metrics``
    is a :class:`~repro.metrics.MetricsRegistry`, an already exported
    metrics dict (e.g. from ``merge_exports``), or None.
    """
    if trace is not None and hasattr(trace, "export"):
        trace = trace.export()
    elif trace is not None and hasattr(trace, "to_dict"):
        trace = trace.to_dict()
    if metrics is not None and hasattr(metrics, "export"):
        metrics = metrics.export()
    return {
        "schema": TRACE_SCHEMA,
        "bench": bench,
        "params": dict(params),
        "results": results,
        "trace": trace,
        "metrics": metrics,
    }


#: Committed ``trace/v2`` envelopes tracked at the repo root — the
#: perf/calibration records successive PRs gate against.
COMMITTED_BENCHES = {
    "kernels": "BENCH_kernels.json",
    "recovery": "BENCH_recovery.json",
    "calibration": "BENCH_calibration.json",
    "parallel": "BENCH_parallel.json",
    "observe": "BENCH_observe.json",
}


def committed_bench_path(bench):
    """Absolute path of a committed BENCH_*.json envelope."""
    import os

    return os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        COMMITTED_BENCHES[bench],
    )


def load_envelope(path, bench=None):
    """Load a BENCH_*.json envelope, validating its schema tag (and,
    when given, that it records the expected bench)."""
    with open(path) as fh:
        payload = json.load(fh)
    schema = payload.get("schema")
    if schema != TRACE_SCHEMA:
        raise ValueError(
            f"{path}: schema {schema!r}, expected {TRACE_SCHEMA!r}"
        )
    if bench is not None and payload.get("bench") != bench:
        raise ValueError(
            f"{path}: bench {payload.get('bench')!r}, expected {bench!r}"
        )
    return payload


def find_span(trace_root, name):
    """First node matching ``name`` (prefix match) in an exported
    trace dict; raises KeyError if absent."""
    stack = [trace_root]
    while stack:
        node = stack.pop(0)
        if node["name"] == name or node["name"].startswith(name):
            return node
        stack.extend(node.get("children", ()))
    raise KeyError(f"no span matching {name!r} in trace")


def span_seconds(trace_root, name):
    """Wall seconds of the first span matching ``name`` (prefix match)
    in an exported trace dict — how benches read their timings back
    out of the trace instead of keeping a parallel stopwatch."""
    return find_span(trace_root, name)["wall_s"]
