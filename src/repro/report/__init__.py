"""Plain-text reporting: ASCII bar and line charts for the benchmark
suite's figure reproductions, the flame-style trace renderer, and the
metrics-driven run report (waterlines, crash attribution)."""

from repro.report.ascii import bar_chart, line_chart
from repro.report.explain_ascii import render_explain
from repro.report.history_ascii import (
    render_history_diff,
    render_history_list,
    render_history_show,
    render_trend,
)
from repro.report.run_report import (
    SCENARIOS,
    attribute_crash,
    metrics_block,
    predicted_vs_observed,
    render_crash_report,
    render_report,
    render_waterline,
    render_waterlines,
)
from repro.report.trace_ascii import render_trace

__all__ = [
    "SCENARIOS",
    "attribute_crash",
    "bar_chart",
    "line_chart",
    "metrics_block",
    "predicted_vs_observed",
    "render_crash_report",
    "render_explain",
    "render_history_diff",
    "render_history_list",
    "render_history_show",
    "render_report",
    "render_trace",
    "render_trend",
    "render_waterline",
    "render_waterlines",
]
