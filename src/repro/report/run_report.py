"""Run reports: memory waterlines and crash attribution.

Consumes the ``metrics/v1`` block produced by
:class:`~repro.metrics.MetricsRegistry` (live, or the JSON export
``repro run --metrics-json`` writes) and renders two things:

- **Waterlines** — per-region, per-worker occupancy timelines as ASCII
  charts with the Algorithm 1 budget (= crash threshold) and the
  optimizer's predicted peak drawn in, so one glance shows how close a
  run sailed to each Section 4.1 cliff.
- **Crash attribution** — when a run crashed, the ``crash_total``
  counters plus the offending region's last gauge sample name the
  Section 4.1 scenario, the worker, and the over-budget occupancy.

Whether a run regressed is not judged here: speed is
``benchmarks/e2e/run.py --compare`` (``BENCHMARK.json``), run health is
``repro report --slo`` (:mod:`repro.observe.slo`).
"""

from __future__ import annotations

import json

from repro.metrics import find_series, series_peak
from repro.report.ascii import _human_bytes

#: Section 4.1 crash scenarios, keyed by the exception class name the
#: memory model (or the Ignite-style storage manager) raises.
SCENARIOS = {
    "DLExecutionMemoryExceeded": {
        "scenario": "(1) DL Execution Memory blowup",
        "region": "dl",
        "detail": "cpu model replicas exceeded the memory left outside "
                  "the PD heap; the OS kills the application",
    },
    "UserMemoryExceeded": {
        "scenario": "(2) insufficient User Memory",
        "region": "user",
        "detail": "UDF threads' serialized CNN + feature TensorLists + "
                  "downstream model overflowed User Memory",
    },
    "TransientTaskOOM": {
        "scenario": "(2) insufficient User Memory (transient task OOM)",
        "region": "user",
        "detail": "one task's footprint spiked past User Memory; "
                  "retryable in place via lineage",
    },
    "ExecutionMemoryExceeded": {
        "scenario": "(3) oversized partition in Execution Memory",
        "region": "core",
        "detail": "a join build/probe partition did not fit Core "
                  "Execution Memory",
    },
    "DriverMemoryExceeded": {
        "scenario": "(4) driver ran out of memory",
        "region": "driver",
        "detail": "broadcast/collect materialized more bytes at the "
                  "driver than its heap holds",
    },
    "StorageMemoryExceeded": {
        "scenario": "Ignite-style in-memory Storage overflow",
        "region": "storage",
        "detail": "static memory-only Storage could not hold the cached "
                  "intermediates and cannot spill",
    },
}


def metrics_block(source):
    """The ``metrics/v1`` dict of a registry, a metrics export, or
    the JSON file ``repro run --metrics-json`` wrote; None for
    anything else."""
    if isinstance(source, str):
        with open(source) as handle:
            source = json.load(handle)
    if hasattr(source, "export"):
        source = source.export()
    if isinstance(source, dict) and "series" in source:
        return source
    return None


# ----------------------------------------------------------------------
# waterlines
# ----------------------------------------------------------------------
def _resample(samples, ticks, width):
    """Level per column: bucket samples by tick, keep each bucket's
    max, carry the level forward through empty buckets (a gauge holds
    its value between samples)."""
    levels = [None] * width
    span = max(1, ticks)
    for _, tick, value in samples:
        column = min(width - 1, int((tick - 1) * width / span))
        if levels[column] is None or value > levels[column]:
            levels[column] = value
    current = 0
    out = []
    for level in levels:
        if level is not None:
            current = level
        out.append(current)
    return out


def render_waterline(series, capacity=None, predicted=None, ticks=None,
                     width=60, height=8, title=None):
    """One ASCII occupancy chart: ``#`` columns for the level, ``===``
    row at the budget (crash threshold), ``---`` row at the optimizer's
    predicted peak."""
    samples = series.get("samples") or []
    peak = series_peak(series) or 0
    top = max(
        peak, capacity or 0, predicted or 0,
        1,
    )
    ticks = ticks or max((s[1] for s in samples), default=1)
    levels = _resample(samples, ticks, width)
    budget_row = (
        height - 1 - int((capacity / top) * (height - 1))
        if capacity else None
    )
    predicted_row = (
        height - 1 - int((predicted / top) * (height - 1))
        if predicted else None
    )
    lines = []
    name = title or series.get("name", "?")
    labels = series.get("labels", {})
    label_text = " ".join(f"{k}={v}" for k, v in sorted(labels.items()))
    lines.append(
        f"{name} [{label_text}] peak={_human_bytes(peak)}"
        + (f" budget={_human_bytes(capacity)}" if capacity else "")
        + (f" predicted={_human_bytes(predicted)}" if predicted else "")
    )
    for row in range(height):
        row_level = top * (height - 1 - row) / (height - 1)
        cells = []
        for level in levels:
            if level >= row_level and level > 0:
                cells.append("#")
            elif row == budget_row:
                cells.append("=")
            elif row == predicted_row:
                cells.append("-")
            else:
                cells.append(" ")
        marker = ""
        if row == budget_row:
            marker = " <= budget/crash"
        elif row == predicted_row:
            marker = " <- predicted"
        axis = _human_bytes(row_level).rjust(8)
        lines.append(f"{axis} |{''.join(cells)}|{marker}")
    lines.append(" " * 9 + "+" + "-" * width + f"+ ticks 1..{ticks}")
    return "\n".join(lines)


def _capacity_for(block, worker, region):
    found = find_series(block, "mem_capacity_bytes", worker=worker,
                        region=region)
    return series_peak(found[0]) if found else None


def _predicted_for(block, region):
    found = find_series(block, "predicted_peak_bytes", region=region)
    return series_peak(found[0]) if found else None


def render_waterlines(source, width=60, height=8, include_storage=True):
    """All non-flat occupancy waterlines in a metrics block, grouped
    per region per worker."""
    block = metrics_block(source)
    if not block:
        return "(no metrics recorded)"
    ticks = block.get("ticks", 1)
    charts = []
    for series in find_series(block, "mem_used_bytes"):
        if not (series_peak(series) or 0):
            continue  # an all-zero region tells nothing
        labels = series.get("labels", {})
        charts.append(render_waterline(
            series,
            capacity=_capacity_for(block, labels.get("worker"),
                                   labels.get("region")),
            predicted=_predicted_for(block, labels.get("region")),
            ticks=ticks, width=width, height=height,
        ))
    if include_storage:
        for series in find_series(block, "storage_cached_bytes"):
            if not (series_peak(series) or 0):
                continue
            labels = series.get("labels", {})
            charts.append(render_waterline(
                series,
                capacity=_capacity_for(block, labels.get("worker"),
                                       "storage"),
                predicted=_predicted_for(block, "storage"),
                ticks=ticks, width=width, height=height,
            ))
    if not charts:
        return "(all occupancy series flat at zero)"
    return "\n\n".join(charts)


# ----------------------------------------------------------------------
# crash attribution
# ----------------------------------------------------------------------
def attribute_crash(source):
    """Attribute a crashed run to its Section 4.1 scenario.

    Finds the ``crash_total`` counter that fired, maps its exception
    label to the scenario, and pulls the offending region's last-
    sampled occupancy and budget from the same block. Returns ``None``
    for a crash-free run.
    """
    block = metrics_block(source)
    if not block:
        return None
    fired = [
        s for s in find_series(block, "crash_total")
        if (s.get("total") or 0) > 0
    ]
    if not fired:
        return None
    crash = max(fired, key=lambda s: s.get("total") or 0)
    labels = crash.get("labels", {})
    exception = labels.get("exception", "?")
    worker = labels.get("worker")
    info = SCENARIOS.get(exception, {
        "scenario": "unknown crash scenario",
        "region": labels.get("region"),
        "detail": "",
    })
    region = info["region"] or labels.get("region")
    gauge_name = (
        "storage_cached_bytes" if region == "storage"
        else "mem_used_bytes"
    )
    gauge_labels = {"worker": worker}
    if gauge_name == "mem_used_bytes":
        gauge_labels["region"] = region
    found = find_series(block, gauge_name, **gauge_labels)
    last = None
    if found and found[0].get("samples"):
        last = found[0]["samples"][-1][2]
    elif found:
        last = found[0].get("last")
    return {
        "exception": exception,
        "scenario": info["scenario"],
        "detail": info.get("detail", ""),
        "region": region,
        "worker": worker,
        "crashes": crash.get("total", 0),
        "last_occupancy_bytes": last,
        # The crashing charge is sampled before the exception unwinds,
        # but cleanup then releases bytes — so the *peak* watermark,
        # not the final sample, is the crash-time occupancy.
        "peak_occupancy_bytes": (
            series_peak(found[0]) if found else None
        ),
        "budget_bytes": _capacity_for(block, worker, region),
        "series": found[0] if found else None,
    }


def render_crash_report(source, width=60, height=8):
    """Human-readable crash attribution with the offending region's
    waterline, or a clean bill of health."""
    attribution = attribute_crash(source)
    if attribution is None:
        return "no crashes recorded"
    lines = [
        f"CRASH: {attribution['exception']} on "
        f"{attribution['worker'] or '?'} — Section 4.1 scenario "
        f"{attribution['scenario']}",
        f"  {attribution['detail']}",
    ]
    peak = attribution["peak_occupancy_bytes"]
    budget = attribution["budget_bytes"]
    if peak is not None and budget:
        verdict = "OVER" if peak > budget else "under"
        lines.append(
            f"  crash-time {attribution['region']} occupancy "
            f"{_human_bytes(peak)} vs budget {_human_bytes(budget)} "
            f"({verdict} budget, x{peak / budget:.2f})"
        )
    if attribution["series"] is not None:
        block = metrics_block(source)
        lines.append("")
        lines.append(render_waterline(
            attribution["series"], capacity=budget,
            predicted=_predicted_for(block, attribution["region"]),
            ticks=block.get("ticks", 1), width=width, height=height,
        ))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# predicted vs observed
# ----------------------------------------------------------------------
def predicted_vs_observed(source):
    """Optimizer prediction vs observed peak per region, as rows of
    ``(region, predicted, observed, ratio)``."""
    block = metrics_block(source)
    if not block:
        return []
    rows = []
    for series in find_series(block, "predicted_peak_bytes"):
        region = series.get("labels", {}).get("region")
        predicted = series_peak(series)
        if region == "storage":
            observed = max(
                (series_peak(s) or 0
                 for s in find_series(block, "storage_cached_bytes")),
                default=0,
            )
        else:
            observed = max(
                (series_peak(s) or 0
                 for s in find_series(block, "mem_used_bytes",
                                      region=region)),
                default=0,
            )
        ratio = (observed / predicted) if predicted else None
        rows.append((region, predicted, observed, ratio))
    return rows


def render_report(source, width=60, height=8):
    """The full run report: header, predicted-vs-observed table,
    waterlines, storage counters, crash attribution."""
    block = metrics_block(source)
    if not block:
        return "(no metrics recorded)"
    lines = [
        f"### run report — {block.get('schema', '?')}, "
        f"{block.get('ticks', 0)} ticks, "
        f"{len(block.get('series', []))} series",
    ]
    rows = predicted_vs_observed(block)
    if rows:
        lines.append("")
        lines.append("predicted vs observed peak per region:")
        for region, predicted, observed, ratio in rows:
            ratio_text = f" (obs/pred x{ratio:.3f})" if ratio else ""
            lines.append(
                f"  {region:8s} predicted={_human_bytes(predicted)} "
                f"observed={_human_bytes(observed)}{ratio_text}"
            )
    totals = {}
    for name in ("storage_hits_total", "storage_misses_total",
                 "storage_evictions_total", "storage_spill_bytes_total",
                 "tasks_total", "task_retries_total", "degrades_total",
                 "blacklists_total", "shuffle_bytes_total",
                 "broadcast_bytes_total"):
        total = sum(s.get("total") or 0 for s in find_series(block, name))
        if total:
            totals[name] = total
    if totals:
        lines.append("")
        lines.append("counters:")
        for name, total in sorted(totals.items()):
            value = (
                _human_bytes(total) if "bytes" in name else str(total)
            )
            lines.append(f"  {name} = {value}")
    lines.append("")
    lines.append(render_waterlines(block, width=width, height=height))
    lines.append("")
    lines.append(render_crash_report(block, width=width, height=height))
    return "\n".join(lines)
