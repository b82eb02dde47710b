"""Flame-style ASCII rendering of Vista trace span trees.

:func:`render_trace` turns a :class:`~repro.trace.Span` (or its
``to_dict()`` export, so saved JSON traces render identically) into an
indented tree where each line carries a time bar positioned by the
span's wall offset and scaled by its duration relative to the root —
a terminal flame graph. Counters are printed human-formatted (bytes in
KB/MB, per-operator times in ms); events and nested attribute tables
(the executor's Eq. 16 estimate-vs-measured ``sizing`` comparison, the
optimizer's ``chosen`` configuration) appear as indented detail lines.
"""

from __future__ import annotations

from repro.report.ascii import _human_bytes


def _human_duration(seconds):
    if seconds is None:
        return "?"
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds * 1e6:.0f}us"


def _fmt_value(key, value):
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, (int, float)) and "bytes" in key:
        return _human_bytes(value)
    if isinstance(value, float):
        if key.startswith("op_s:") or key.endswith("_s"):
            return _human_duration(value)
        return f"{value:.4g}"
    return str(value)


def _fmt_counters(counters):
    parts = []
    for key in sorted(counters):
        if key.startswith("op_s:"):
            continue  # summarized separately
        parts.append(f"{key}={_fmt_value(key, counters[key])}")
    return " ".join(parts)


def _scalar_attrs(attrs):
    parts = []
    for key, value in attrs.items():
        if isinstance(value, dict):
            continue
        parts.append(f"{key}={_fmt_value(key, value)}")
    return " ".join(parts)


def _sizing_lines(sizing, indent):
    """Eq. 16 estimate vs. measured bytes, one line per layer."""
    lines = []
    for layer, entry in sizing.items():
        est = entry.get("estimated_bytes")
        meas = entry.get("measured_bytes")
        ratio = ""
        if est and meas:
            ratio = f" (est/meas x{est / meas:.2f})"
        meas_text = _human_bytes(meas) if meas is not None else "?"
        lines.append(
            f"{indent}~ sizing {layer}: est={_human_bytes(est)} "
            f"meas={meas_text}{ratio}"
        )
    return lines


def _dict_attr_lines(name, value, indent):
    if name == "sizing":
        return _sizing_lines(value, indent)
    body = " ".join(
        f"{key}={_fmt_value(key, val)}" for key, val in value.items()
    )
    return [f"{indent}~ {name}: {body}"]


def _flatten(node, depth=0):
    yield node, depth
    for child in node.get("children", ()):
        yield from _flatten(child, depth + 1)


def render_trace(trace, width=30, show_events=True):
    """Render a span tree as a flame-style ASCII summary.

    ``trace`` is a :class:`~repro.trace.Span`, a :class:`~repro.trace.
    Tracer` (its root is rendered), or an exported ``to_dict`` tree.
    ``width`` is the time-bar width in characters.
    """
    if hasattr(trace, "export"):          # a Tracer
        root = trace.export()
    elif hasattr(trace, "to_dict"):       # a Span
        root = trace.to_dict()
    else:                                  # an exported dict
        root = trace
    if root is None:
        return "(no trace recorded)"

    nodes = list(_flatten(root))
    total = root.get("wall_s") or 0.0
    if total <= 0:
        total = max(
            (n.get("wall_offset_s", 0.0) + (n.get("wall_s") or 0.0)
             for n, _ in nodes),
            default=0.0,
        ) or 1.0
    label_width = max(len("  " * d + n["name"]) for n, d in nodes)

    lines = [
        f"### trace: {root['name']} — total {_human_duration(total)}",
    ]
    for node, depth in nodes:
        indent = "  " * depth
        label = f"{indent}{node['name']}"
        wall = node.get("wall_s") or 0.0
        offset = node.get("wall_offset_s", 0.0)
        pad = min(width - 1, int(width * offset / total))
        fill = max(1, int(round(width * wall / total)))
        fill = min(fill, width - pad)
        bar = " " * pad + "#" * fill
        status = node.get("status", "ok")
        flag = "" if status == "ok" else f" !{status}"
        details = " ".join(
            part for part in (
                _scalar_attrs(node.get("attrs", {})),
                _fmt_counters(node.get("counters", {})),
            ) if part
        )
        lines.append(
            f"{label.ljust(label_width)} {_human_duration(wall):>8} "
            f"|{bar.ljust(width)}|{flag}"
            + (f" {details}" if details else "")
        )
        detail_indent = "  " * (depth + 1)
        for key, value in node.get("attrs", {}).items():
            if isinstance(value, dict):
                lines.extend(_dict_attr_lines(key, value, detail_indent))
        if show_events:
            for event in node.get("events", ()):
                fields = " ".join(
                    f"{k}={_fmt_value(k, v)}"
                    for k, v in event.items()
                    if k not in ("event", "sim_time_s")
                )
                lines.append(
                    f"{detail_indent}* {event.get('event', '?')} "
                    f"@sim={event.get('sim_time_s', 0.0):.3f}s"
                    + (f" {fields}" if fields else "")
                )

    op_lines = _op_summary(nodes)
    if op_lines:
        lines.append("")
        lines.append("per-operator CNN time:")
        lines.extend(op_lines)
    return "\n".join(lines)


def _op_summary(nodes):
    """Aggregate ``op_s:<name>`` counters across the tree into one
    ranked per-operator table."""
    totals = {}
    for node, _ in nodes:
        for key, value in node.get("counters", {}).items():
            if key.startswith("op_s:"):
                op = key[len("op_s:"):]
                totals[op] = totals.get(op, 0.0) + value
    if not totals:
        return []
    peak = max(totals.values()) or 1.0
    name_width = max(len(op) for op in totals)
    lines = []
    for op, seconds in sorted(
            totals.items(), key=lambda kv: kv[1], reverse=True):
        bar = "#" * max(1, int(round(20 * seconds / peak)))
        lines.append(
            f"  {op.ljust(name_width)} {_human_duration(seconds):>8} {bar}"
        )
    return lines
