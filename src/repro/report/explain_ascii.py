"""ASCII rendering of EXPLAIN ledgers and what-if reports.

Turns an :class:`~repro.explain.ExplainResult` into the terminal
output of ``repro explain``: the workload header, the Eq. 16 sizing
block, one table row per Algorithm 1 candidate (with its verdict),
rejection details, per-region budget bars for the winner, and — when a
what-if was attached — the pinned configuration's verdict, predicted
peaks, and predicted runtime breakdown.
"""

from __future__ import annotations

BAR_WIDTH = 44


def _human(value):
    value = float(value)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(value) < 1024.0 or unit == "TB":
            if unit == "B":
                return f"{int(value)}B"
            return f"{value:.2f}{unit}"
        value /= 1024.0


def _verdict(candidate):
    if candidate.chosen:
        return "CHOSEN"
    if candidate.feasible:
        return "feasible"
    return f"rejected: {candidate.rejection['code']}"


def _candidate_table(candidates):
    headers = (
        "cpu", "np", "user", "dl", "core", "storage", "join", "pers",
        "verdict",
    )
    rows = []
    for c in candidates:
        rows.append((
            str(c.cpu),
            str(c.num_partitions),
            _human(c.mem_user_bytes),
            _human(c.mem_dl_bytes),
            _human(c.mem_core_bytes),
            _human(c.mem_storage_bytes),
            c.join or "-",
            c.persistence or "-",
            _verdict(c),
        ))
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return lines


def _budget_bars(candidate):
    """Per-region bars of the winner's worker-memory split: how Eq. 12
    apportions ``mem_worker + DL + OS`` across the regions."""
    regions = [
        ("os", candidate.mem_os_reserved_bytes),
        ("dl", candidate.mem_dl_bytes),
        ("user", candidate.mem_user_bytes),
        ("core", candidate.mem_core_bytes),
        ("storage", max(0, candidate.mem_storage_bytes)),
    ]
    total = max(1, candidate.mem_system_bytes)
    lines = [
        f"worker memory split (system = {_human(total)}):",
    ]
    for name, nbytes in regions:
        frac = nbytes / total
        filled = max(1, round(frac * BAR_WIDTH)) if nbytes > 0 else 0
        bar = "#" * filled + "." * (BAR_WIDTH - filled)
        lines.append(
            f"  {name:7s} |{bar}| {_human(nbytes):>9s} ({frac:5.1%})"
        )
    return lines


def _what_if_lines(report):
    lines = [
        "what-if:",
        "  pins: " + (
            ", ".join(f"{k}={v}" for k, v in sorted(report.pins.items()))
            or "(none)"
        ),
        f"  plan: {report.plan}",
        f"  config: {report.config.describe()}",
        f"  verdict: {report.verdict}",
    ]
    for note in report.notes:
        lines.append(f"    note: {note}")
    lines.append("  predicted per-region peaks (per worker):")
    for region, nbytes in report.predicted_peak_bytes.items():
        lines.append(f"    {region:8s} {_human(nbytes)}")
    runtime = report.runtime
    crash = f" (crash: {runtime.crash})" if runtime.crash else ""
    lines.append(
        f"  predicted runtime: {runtime.seconds:.1f}s{crash}"
    )
    for stage, seconds in runtime.breakdown.items():
        if seconds:
            lines.append(f"    {stage:10s} {seconds:10.1f}s")
    return lines


def render_explain(result):
    """Render an :class:`~repro.explain.ExplainResult` as text."""
    lines = [
        f"### EXPLAIN — {result.model} x {len(result.layers)} layers "
        f"({', '.join(result.layers)}), {result.num_records} records, "
        f"{result.num_nodes} nodes, backend={result.backend}",
        "",
        "sizing (Eq. 16):",
        f"  |Tstr| = {_human(result.sizing.structured_table_bytes)}   "
        f"|Timg| = {_human(result.sizing.image_table_bytes)}",
    ]
    for layer, nbytes in result.sizing.intermediate_table_bytes.items():
        lines.append(f"  |T_{layer}| = {_human(nbytes)}")
    lines.append(
        f"  s_single = {_human(result.sizing.s_single)}   "
        f"s_double = {_human(result.sizing.s_double)}"
    )
    lines.append("")
    lines.append(
        f"Algorithm 1 candidate ledger ({len(result.candidates)} "
        f"cpu candidates, highest first):"
    )
    lines.extend(_candidate_table(result.candidates))
    rejected = result.rejected()
    if rejected:
        lines.append("")
        lines.append("rejections:")
        for candidate in rejected:
            lines.append(
                f"  cpu={candidate.cpu}: "
                f"[{candidate.rejection['code']}] "
                f"{candidate.rejection['detail']}"
            )
    lines.append("")
    if result.chosen is not None:
        lines.append(
            f"winner: cpu={result.chosen.cpu} "
            f"np={result.chosen.num_partitions} "
            f"join={result.chosen.join} "
            f"persistence={result.chosen.persistence}"
        )
        lines.extend(_budget_bars(result.chosen))
    else:
        from repro.explain.ledger import NO_FEASIBLE_MESSAGE

        lines.append(f"NO FEASIBLE PLAN: {NO_FEASIBLE_MESSAGE}")
    if result.what_if is not None:
        lines.append("")
        lines.extend(_what_if_lines(result.what_if))
    return "\n".join(lines)
