"""ASCII rendering for the run-history warehouse: the ``repro history
list|show|diff|trend`` views.

``render_history_diff`` is a flamegraph-style *diff*: rows keep the
target run's span start order and tree indentation, the bar visualizes
each span's self-time delta (``+`` growth right of the axis, ``-``
shrink left), and new/vanished spans are tagged inline. The trend view
draws one sparkline timeline per (trend rule, element) series with the
runs its verdict flagged marked ``!``. The verdicts themselves come
from :func:`repro.observe.slo.evaluate_slo` and print as
:func:`repro.observe.slo.render_slo`'s block below these views.
"""

from __future__ import annotations

import statistics

from repro.observe.slo import (
    MIN_TREND_RUNS,
    trend_key,
    trend_series,
    verdict_counts,
)
from repro.report.ascii import _human_bytes

_SPARK = " .:-=+*#%@"


def _fmt_seconds(value):
    if value is None:
        return "       —"
    return f"{value:>8.3f}"


def _short_meta(record):
    meta = record.get("meta") or {}
    bits = []
    for key in ("model", "dataset", "records", "bench"):
        if meta.get(key) is not None:
            bits.append(f"{key}={meta[key]}")
    return " ".join(bits) or "?"


def render_history_list(records, title="run history"):
    """One line per ingested run, ingest order."""
    lines = [f"### {title} — {len(records)} run(s)"]
    if not records:
        lines.append("  (empty store — ingest a ledger "
                     "with `repro history ingest`)")
        return "\n".join(lines)
    lines.append(
        f"  {'#':>3s} {'run_id':<16s} {'kind':<8s} {'status':<10s} "
        f"{'wall_s':>8s} {'sim_s':>8s} {'rec':>4s}  workload"
    )
    for position, record in enumerate(records):
        recovery = (record.get("recovery") or {}).get("total", 0)
        lines.append(
            f"  {position:>3d} {record.get('run_id', '?'):<16s} "
            f"{record.get('kind', '?'):<8s} "
            f"{str(record.get('status', '?')):<10.10s} "
            f"{record.get('wall_s', 0.0):>8.3f} "
            f"{record.get('sim_s', 0.0):>8.3f} "
            f"{recovery:>4d}  {_short_meta(record)}"
        )
    return "\n".join(lines)


def render_history_show(record, verdicts=None, width=40):
    """Full single-run view: identity, knobs, stages, memory,
    calibration, recovery, and the counts of the SLO ``verdicts``
    judged on it (no line without)."""
    lines = [
        f"### run {record.get('run_id', '?')} "
        f"[{record.get('kind', '?')}] — status "
        f"{record.get('status', '?')}, "
        f"{record.get('wall_s', 0.0):.3f}s wall, "
        f"{record.get('sim_s', 0.0):.3f}s sim",
        f"  source      {record.get('source', '?')}",
        f"  fingerprint {record.get('fingerprint', '?')}  "
        f"({_short_meta(record)})",
    ]
    env = (record.get("meta") or {}).get("env") or {}
    if env:
        lines.append(
            f"  env         python {env.get('python', '?')} "
            f"{env.get('platform', '?')}/{env.get('machine', '?')} "
            f"cpus={env.get('cpu_count', '?')} "
            f"dirty={env.get('repo_dirty')}"
        )
    knobs = record.get("knobs") or {}
    if knobs:
        lines.append("  knobs       " + " ".join(
            f"{key}={knobs[key]}" for key in sorted(knobs)
        ))
    stages = record.get("stages") or {}
    if stages:
        total = sum(
            stage.get("wall_s", 0.0) or 0.0 for stage in stages.values()
        ) or 1.0
        lines.append(f"  {'stage':<20s} {'wall_s':>8s} {'self_s':>8s} "
                     f"{'sim_s':>8s}  status")
        for key in sorted(stages,
                          key=lambda k: -(stages[k].get("wall_s") or 0)):
            stage = stages[key]
            fill = int(round(
                width * (stage.get("wall_s", 0.0) or 0.0) / total
            ))
            lines.append(
                f"  {key:<20.20s} {_fmt_seconds(stage.get('wall_s'))} "
                f"{_fmt_seconds(stage.get('self_s'))} "
                f"{_fmt_seconds(stage.get('sim_s'))}  "
                f"{stage.get('status', '?'):<6.6s} "
                f"|{'#' * fill:<{width}s}|"
            )
    memory = record.get("memory") or {}
    for key in sorted(memory):
        region = memory[key]
        over = " OVER BUDGET" if region.get("over_budget") else ""
        peak = _human_bytes(region.get("peak_bytes"))
        budget = _human_bytes(region.get("budget_bytes"))
        lines.append(
            f"  mem {key:<16.16s} peak {peak:>9s}"
            f" / budget {budget:>9s}{over}"
        )
    calibration = record.get("calibration")
    if calibration:
        buckets = ", ".join(
            f"{bucket} x{ratio:.3g}"
            for bucket, ratio in (calibration.get("buckets") or {}).items()
        )
        lines.append(
            f"  calibration x{calibration.get('overall', 1.0):.3g} overall"
            + (f" ({buckets})" if buckets else "")
        )
    recovery = {k: v for k, v in (record.get("recovery") or {}).items()
                if k != "total"}
    if recovery:
        lines.append("  recovery    " + " ".join(
            f"{key}={recovery[key]}" for key in sorted(recovery)
        ))
    if verdicts is not None:
        counts = verdict_counts(verdicts)
        failing = sorted(v.rule.name for v in verdicts if v.ok is False)
        lines.append(
            f"  slo         {counts['breach']} breach, "
            f"{counts['warn']} warn, {counts['pass']} pass, "
            f"{counts['skip']} skip"
            + (f" — failing: {', '.join(failing)}" if failing else "")
        )
    problems = record.get("parse_problems") or []
    for problem in problems:
        lines.append(f"  parse problem: {problem}")
    return "\n".join(lines)


def _delta_bar(delta, scale, width):
    """A signed bar around a central axis: ``-`` fills leftward for
    shrink, ``+`` rightward for growth."""
    half = width // 2
    if scale <= 0:
        fill = 0
    else:
        fill = int(round(half * min(1.0, abs(delta) / scale)))
        if fill == 0 and abs(delta) > 1e-9:
            fill = 1
    left = "-" * fill if delta < 0 else ""
    right = "+" * fill if delta > 0 else ""
    return f"{left:>{half}s}|{right:<{half}s}"


def render_history_diff(diff, width=24):
    """The span-aligned flamegraph diff, target-run span order."""
    lines = [
        f"### history diff {diff.get('base_id', '?')} -> "
        f"{diff.get('target_id', '?')} — "
        f"{diff.get('matched', 0)} matched, {diff.get('new', 0)} new, "
        f"{diff.get('vanished', 0)} vanished"
    ]
    status = diff.get("status") or {}
    if status.get("base") != status.get("target"):
        lines.append(
            f"  status      {status.get('base')} -> {status.get('target')}"
        )
    if not diff.get("fingerprint_match", True):
        lines.append("  fingerprint DRIFT — runs are not the same "
                     "workload/environment:")
        for key, change in sorted((diff.get("meta_changes") or {}).items()):
            lines.append(
                f"    meta {key}: {change['base']!r} -> "
                f"{change['target']!r}"
            )
    for key, change in sorted((diff.get("knob_changes") or {}).items()):
        lines.append(
            f"  knob {key}: {change['base']!r} -> {change['target']!r}"
        )
    rows = diff.get("spans") or []
    scale = max(
        (abs(row["d_self_s"]) for row in rows
         if row.get("d_self_s") is not None), default=0.0,
    )
    lines.append(
        f"  {'span':<34s} {'base':>8s} {'target':>8s} {'d_self':>8s} "
        f"{'shrink':>{width // 2}s}|{'grow':<{width // 2}s}"
    )
    for row in rows:
        indent = "  " * (row.get("target") or row.get("base")
                         or {"depth": 0}).get("depth", 0)
        name = row["path"].rsplit("/", 1)[-1]
        label = f"{indent}{name}"
        base_cell = row.get("base") or {}
        target_cell = row.get("target") or {}
        if row["align"] == "matched":
            delta = row["d_self_s"] or 0.0
            bar = _delta_bar(delta, scale, width)
            lines.append(
                f"  {label:<34.34s} "
                f"{_fmt_seconds(base_cell.get('self_s'))} "
                f"{_fmt_seconds(target_cell.get('self_s'))} "
                f"{delta:>+8.3f} {bar}"
            )
        elif row["align"] == "new":
            lines.append(
                f"  {label:<34.34s} {'—':>8s} "
                f"{_fmt_seconds(target_cell.get('self_s'))} "
                f"{'':>8s} {'NEW SPAN':<{width + 1}s}"
            )
        else:
            lines.append(
                f"  {label:<34.34s} "
                f"{_fmt_seconds(base_cell.get('self_s'))} {'—':>8s} "
                f"{'':>8s} {'VANISHED':<{width + 1}s}"
            )
    for entry in (diff.get("metric_deltas") or [])[:8]:
        lines.append(
            f"  metric {entry['metric']}: {entry['base']} -> "
            f"{entry['target']}"
        )
    for key, change in sorted((diff.get("memory_deltas") or {}).items()):
        lines.append(
            f"  mem {key}: peak {_human_bytes(change['base_peak_bytes'])} "
            f"-> {_human_bytes(change['target_peak_bytes'])}"
            + (" (newly over budget)"
               if change.get("target_over_budget")
               and not change.get("base_over_budget") else "")
        )
    for key, change in sorted(
        (diff.get("recovery_deltas") or {}).items()
    ):
        lines.append(
            f"  recovery {key}: {change['base']} -> {change['target']}"
        )
    return "\n".join(lines)


def _sparkline(values):
    low = min(values)
    high = max(values)
    if high <= low:
        return "-" * len(values)
    chars = []
    for value in values:
        position = (value - low) / (high - low)
        chars.append(_SPARK[min(len(_SPARK) - 1,
                                int(position * (len(_SPARK) - 1)))])
    return "".join(chars)


def render_trend(records, verdicts, title="history trend"):
    """One sparkline timeline per (trend rule, element) series over
    ``records``, with the points each ``trend`` verdict flagged marked
    ``!``; series too short to judge are listed as skipped."""
    trend = [v for v in verdicts if v.rule.against == "trend"]
    flags = sum(len(v.details) for v in trend if v.ok is False)
    lines = [f"### {title} — {len(records)} run(s), {flags} flag(s)"]
    for verdict in trend:
        rule = verdict.rule
        for element, points in sorted(
            trend_series(records, rule.metric).items()
        ):
            label = element or rule.metric
            if len(points) < MIN_TREND_RUNS:
                lines.append(
                    f"  [skip  ] {rule.name}: {label} — {len(points)} "
                    f"run(s) < min_runs {MIN_TREND_RUNS}"
                )
                continue
            values = [value for _, value in points]
            marks = "".join(
                "!" if trend_key(label, run_id) in verdict.details
                else "." for run_id, _ in points
            )
            lines.append(
                f"  [{len(values):>4d}pt] {rule.name}: {label} "
                f"median {statistics.median(values):.6g} "
                f"[{_sparkline(values)}] [{marks}]"
            )
    return "\n".join(lines)
