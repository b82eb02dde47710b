"""Span-aligned profile diffs between two ``runsum/v1`` records.

``repro history diff A B`` answers "what changed between these two
runs" the way a flamegraph diff would: spans are *aligned by path*
(ancestor names joined with ``/``, ``@N`` suffixes disambiguating
repeated siblings — see :func:`repro.trace.tracer.spans_from_events`,
the one pairing of span events) and each aligned pair reports its
wall/self/sim-second deltas; spans present on only one side surface as
``new``/``vanished`` rows. On top of the span table the diff reports
plan-knob changes, workload/environment fingerprint drift,
metric-series peak deltas, per-region memory peak deltas, and
recovery-count deltas.

The diff reports; it does not judge. ``repro history diff`` judges the
pair with :func:`repro.observe.slo.evaluate_slo` — B as the target, A
as the baseline — so its exit code comes from the same ruleset as
``repro report --slo``.
"""

from __future__ import annotations

def _span_cell(span):
    return {
        "wall_s": span["wall_s"],
        "self_s": span["self_s"],
        "sim_s": span["sim_s"],
        "status": span["status"],
        "depth": span["depth"],
        "start_seq": span["start_seq"],
    }


def _delta_map(base, target):
    deltas = {}
    for key in sorted(set(base) | set(target)):
        old = base.get(key)
        new = target.get(key)
        if old == new:
            continue
        deltas[key] = {"base": old, "target": new}
    return deltas


def diff_runs(base, target):
    """Diff two ``runsum/v1`` records; returns a JSON-safe report.

    ``base`` is the reference (older) run, ``target`` the candidate.
    """
    base_spans = {span["path"]: span for span in base.get("spans", ())}
    target_spans = {span["path"]: span
                    for span in target.get("spans", ())}
    order = []
    seen = set()
    for span in sorted(target.get("spans", ()),
                       key=lambda s: s["start_seq"]):
        order.append(span["path"])
        seen.add(span["path"])
    for span in sorted(base.get("spans", ()),
                       key=lambda s: s["start_seq"]):
        if span["path"] not in seen:
            order.append(span["path"])
    rows = []
    for path in order:
        old = base_spans.get(path)
        new = target_spans.get(path)
        if old is not None and new is not None:
            row = {
                "path": path,
                "align": "matched",
                "base": _span_cell(old),
                "target": _span_cell(new),
                "d_wall_s": round(new["wall_s"] - old["wall_s"], 9),
                "d_self_s": round(new["self_s"] - old["self_s"], 9),
                "d_sim_s": round(new["sim_s"] - old["sim_s"], 9),
            }
        else:
            row = {
                "path": path,
                "align": "new" if new is not None else "vanished",
                "base": _span_cell(old) if old is not None else None,
                "target": _span_cell(new) if new is not None else None,
                "d_wall_s": None,
                "d_self_s": None,
                "d_sim_s": None,
            }
        rows.append(row)
    base_recovery = dict(base.get("recovery") or {})
    target_recovery = dict(target.get("recovery") or {})
    recovery_deltas = {}
    for key in sorted(set(base_recovery) | set(target_recovery)):
        old_count = int(base_recovery.get(key) or 0)
        new_count = int(target_recovery.get(key) or 0)
        if old_count == new_count:
            continue
        recovery_deltas[key] = {"base": old_count, "target": new_count}
    metric_deltas = []
    base_metrics = base.get("metrics") or {}
    target_metrics = target.get("metrics") or {}
    for key in sorted(set(base_metrics) | set(target_metrics)):
        old_peak = base_metrics.get(key)
        new_peak = target_metrics.get(key)
        if old_peak == new_peak:
            continue
        try:
            delta = float(new_peak or 0.0) - float(old_peak or 0.0)
        except (TypeError, ValueError):
            delta = None
        metric_deltas.append({
            "metric": key, "base": old_peak, "target": new_peak,
            "delta": delta,
        })
    metric_deltas.sort(
        key=lambda entry: -abs(entry["delta"] or 0.0)
    )
    memory_deltas = {}
    base_memory = base.get("memory") or {}
    target_memory = target.get("memory") or {}
    for key in sorted(set(base_memory) | set(target_memory)):
        old_region = base_memory.get(key) or {}
        new_region = target_memory.get(key) or {}
        old_peak = old_region.get("peak_bytes")
        new_peak = new_region.get("peak_bytes")
        if old_peak == new_peak and (
            old_region.get("over_budget") == new_region.get("over_budget")
        ):
            continue
        memory_deltas[key] = {
            "base_peak_bytes": old_peak,
            "target_peak_bytes": new_peak,
            "base_over_budget": old_region.get("over_budget"),
            "target_over_budget": new_region.get("over_budget"),
        }
    return {
        "base_id": base.get("run_id"),
        "target_id": target.get("run_id"),
        "base_source": base.get("source"),
        "target_source": target.get("source"),
        "fingerprint_match": (
            base.get("fingerprint") == target.get("fingerprint")
        ),
        "meta_changes": _delta_map(base.get("meta") or {},
                                   target.get("meta") or {}),
        "knob_changes": _delta_map(base.get("knobs") or {},
                                   target.get("knobs") or {}),
        "status": {"base": base.get("status"),
                   "target": target.get("status")},
        "spans": rows,
        "matched": sum(1 for r in rows if r["align"] == "matched"),
        "new": sum(1 for r in rows if r["align"] == "new"),
        "vanished": sum(1 for r in rows if r["align"] == "vanished"),
        "metric_deltas": metric_deltas,
        "memory_deltas": memory_deltas,
        "recovery_deltas": recovery_deltas,
    }
