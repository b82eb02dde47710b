"""The recorded-run reader and the run-history warehouse.

Every run recorded with ``--ledger`` leaves a complete record — an
``obs/v1`` ledger — and :func:`summarize_ledger` is the one replay of
it: the event stream becomes one compact ``runsum/v1`` record
(workload identity and environment fingerprint, chosen plan knobs,
per-stage wall/sim/self seconds, per-region memory peaks vs budgets,
online-calibration ratios, recovery counts, metric-series peaks, event
counts per kind, parse/schema problem counts, SLO verdict counts).
Every offline view reads that record — ``repro report --slo``
(:mod:`repro.observe.slo` resolves rule metrics against it), ``repro
top``'s summary, and ``repro history``, which appends records to an
on-disk :class:`HistoryStore` so drift questions become queries over a
timeline instead of a pair of ad-hoc files.

Store layout and durability
---------------------------
``<store>/runs/<run_id>.json`` holds one record per run, written with
the same tmp + fsync + ``os.replace`` discipline as the checkpoint
store (:func:`repro.atomic_io.atomic_write_bytes`), so a torn
write can never masquerade as a record. ``<store>/index.jsonl`` is the
append-only ingest order — one JSON line per run, appended with a
single ``O_APPEND`` write and read by the same one-torn-tail-tolerant
:func:`repro.observe.ledger.parse_ledger`. The record file
is written *before* the index line, and listing self-heals by scanning
``runs/`` for records a crash left unindexed, so the index can lag but
never lie.

``run_id`` is the SHA-256 of the *source file bytes* (first 16 hex
chars), which makes ingest idempotent by construction: re-ingesting
the same ledger returns the existing record without touching disk.

Change-point detection
----------------------
:func:`evaluate_trend` flags drift with a robust z-score over the
last-K window of each metric series: ``z = (v - median) / scale`` with
``scale = max(1.4826·MAD, 0.05·|median|, 1e-9)``. Median/MAD instead
of mean/stddev so one outlier run cannot mask itself by inflating the
spread; the 5%-of-median floor keeps near-constant series (wall
seconds that jitter by microseconds) from flagging noise. Rules live
in ``slo/default.yaml`` under the ``history:`` scope, reusing the SLO
file format and its metric grammar — a trend metric is resolved
against the record by the same :func:`repro.observe.slo.resolve_path`
(e.g. ``stages.*.sim_s``, ``recovery.total``,
``memory.*.peak_bytes``).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass

from repro.atomic_io import atomic_write_bytes, reclaim_tmp_files
from repro.metrics import METRICS_SCHEMA
from repro.observe.ledger import (
    LEDGER_SCHEMA,
    parse_ledger,
    validate_events,
)
from repro.observe.progress import replay_progress
from repro.observe.slo import evaluate_slo, load_ruleset, resolve_path

#: Version tag carried by every summary record.
RUNSUM_SCHEMA = "runsum/v1"

#: The observability schema versions a run was recorded under — part
#: of the environment fingerprint, so a summary produced by an older
#: ledger format never silently compares as the same environment.
SCHEMA_VERSIONS = {
    "ledger": LEDGER_SCHEMA,
    "metrics": METRICS_SCHEMA,
    "summary": RUNSUM_SCHEMA,
}

#: Envelope fields stripped from ledger events when lifting their
#: payload into a summary block.
_ENVELOPE_FIELDS = ("schema", "seq", "wall_s", "sim_time_s", "kind")


# ----------------------------------------------------------------------
# environment fingerprint
# ----------------------------------------------------------------------
def _repo_dirty():
    """True/False when the working tree's cleanliness is knowable,
    None when it is not (no git, not a repo, git times out)."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return bool(proc.stdout.strip())


def environment_meta():
    """The stable environment fingerprint block recorded in
    ``run_meta``: enough to tell two machines (or two checkouts)
    apart without recording anything volatile like hostnames or
    timestamps."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "repo_dirty": _repo_dirty(),
        "schemas": dict(SCHEMA_VERSIONS),
    }


def run_fingerprint(meta):
    """Stable 16-hex-char digest of a ``run_meta`` payload (workload
    identity + environment). Canonical JSON, so dict insertion order
    cannot change the fingerprint."""
    payload = json.dumps(meta, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# span reconstruction from the flat ledger stream
# ----------------------------------------------------------------------
def spans_from_events(events):
    """Rebuild the span tree a ledger's flat ``span_start``/``span_end``
    stream recorded, as a list of span dicts in start order — the one
    start/end pairing (the run summary and the Perfetto export both
    read it).

    Each span carries a ``path`` — ancestor names joined with ``/``,
    with an ``@N`` occurrence suffix for repeated siblings (the second
    ``join`` under ``workload`` is ``workload/join@2``) — which is the
    alignment key :func:`repro.observe.diff.diff_runs` joins on.
    ``self_s`` is wall seconds minus the direct children's wall
    seconds, clamped at zero. ``start_wall_s``/``end_wall_s`` are the
    ledger offsets of the events that opened and closed it, ``attrs``
    what it was opened with. A span closed by an outer span's end, or
    left open at the end of the stream (a torn ledger), closes with
    status ``"torn"`` at the wall offset the ledger had reached.
    """
    spans = []
    stack = []
    root_counts = {}
    last_wall = 0.0
    last_sim = 0.0
    start_seq = 0

    def close(frame, end_wall, wall_s, sim_s, status):
        span = {
            "path": frame["path"],
            "name": frame["name"],
            "depth": frame["depth"],
            "start_seq": frame["start_seq"],
            "wall_s": round(max(0.0, wall_s), 9),
            "sim_s": round(max(0.0, sim_s), 9),
            "self_s": round(max(0.0, wall_s - frame["children_s"]), 9),
            "status": status,
            "start_wall_s": frame["wall_start"],
            "end_wall_s": end_wall,
            "attrs": frame["attrs"],
        }
        spans.append(span)
        if stack:
            stack[-1]["children_s"] += span["wall_s"]
        return span

    for event in events:
        wall = float(event.get("wall_s") or 0.0)
        sim = float(event.get("sim_time_s") or 0.0)
        last_wall = max(last_wall, wall)
        last_sim = max(last_sim, sim)
        kind = event.get("kind")
        if kind == "span_start":
            name = str(event.get("name") or "span")
            counts = stack[-1]["counts"] if stack else root_counts
            seen = counts.get(name, 0)
            counts[name] = seen + 1
            label = name if seen == 0 else f"{name}@{seen + 1}"
            path = f"{stack[-1]['path']}/{label}" if stack else label
            start_seq += 1
            stack.append({
                "name": name, "path": path, "depth": len(stack),
                "start_seq": start_seq, "wall_start": wall,
                "sim_start": sim, "children_s": 0.0, "counts": {},
                "attrs": event.get("attrs") or {},
            })
        elif kind == "span_end":
            name = str(event.get("name") or "span")
            if not any(frame["name"] == name for frame in stack):
                continue
            while stack:
                frame = stack.pop()
                matched = frame["name"] == name
                if matched and event.get("span_s") is not None:
                    wall_s = float(event["span_s"])
                else:
                    wall_s = wall - frame["wall_start"]
                status = (str(event.get("status") or "ok")
                          if matched else "torn")
                close(frame, wall, wall_s, sim - frame["sim_start"],
                      status)
                if matched:
                    break
    while stack:
        frame = stack.pop()
        close(frame, last_wall, last_wall - frame["wall_start"],
              last_sim - frame["sim_start"], "torn")
    spans.sort(key=lambda span: span["start_seq"])
    return spans


# ----------------------------------------------------------------------
# summarization: one runsum/v1 record per run
# ----------------------------------------------------------------------
def _payload(event):
    return {key: value for key, value in event.items()
            if key not in _ENVELOPE_FIELDS}


def _stages_from_spans(spans):
    """Per-stage seconds from the span list: depth-0 spans plus the
    direct children of ``workload`` (keyed without the ``workload/``
    prefix)."""
    stages = {}
    for span in spans:
        if span["depth"] == 0:
            key = span["path"]
        elif span["depth"] == 1 and span["path"].startswith("workload/"):
            key = span["path"][len("workload/"):]
        else:
            continue
        stages[key] = {
            "wall_s": span["wall_s"],
            "sim_s": span["sim_s"],
            "self_s": span["self_s"],
            "status": span["status"],
        }
    return stages


def metric_key(name, labels):
    """``name{k=v,…}`` — the flat key of one metric series (record
    ``metrics`` block, Perfetto counter track)."""
    if not labels:
        return str(name)
    inner = ",".join(
        f"{key}={labels[key]}" for key in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def _region_key(labels):
    parts = [str(labels[key]) for key in ("worker", "region")
             if key in labels]
    return "/".join(parts) if parts else "all"


def _memory_from_events(events):
    peaks = {}
    budgets = {}
    for event in events:
        if event.get("kind") != "metric":
            continue
        name = event.get("metric")
        if name not in ("mem_used_bytes", "mem_capacity_bytes"):
            continue
        labels = event.get("labels") or {}
        key = _region_key(labels)
        try:
            value = float(event.get("value") or 0.0)
        except (TypeError, ValueError):
            continue
        if name == "mem_used_bytes":
            peaks[key] = max(peaks.get(key, 0.0), value)
        else:
            budgets[key] = value
    memory = {}
    for key in sorted(set(peaks) | set(budgets)):
        peak = peaks.get(key)
        budget = budgets.get(key)
        memory[key] = {
            "peak_bytes": peak,
            "budget_bytes": budget,
            "over_budget": bool(
                peak is not None and budget and peak > budget
            ),
        }
    return memory


def _metric_peaks_from_events(events):
    peaks = {}
    for event in events:
        if event.get("kind") != "metric":
            continue
        key = metric_key(event.get("metric"),
                          event.get("labels") or {})
        try:
            value = float(event.get("value") or 0.0)
        except (TypeError, ValueError):
            continue
        peaks[key] = max(peaks.get(key, value), value)
    return peaks


def _calibration_from_events(events):
    """The online calibration ratios (overall and per stage kind) the
    ledger's progress replay ends on; None when the run carried no
    ``stage_plan``."""
    state = replay_progress(events)
    if state is None:
        return None
    return {
        "overall": round(state.calibration_ratio(), 9),
        "buckets": {
            bucket: round(ratio, 9)
            for bucket, ratio in sorted(state.bucket_ratios().items())
        },
        "stages_done": state.stages_done(),
        "stages_planned": len(state.plan),
    }


def _slo_block(verdicts):
    counts = {"breach": 0, "warn": 0, "pass": 0, "skip": 0}
    failing = []
    for verdict in verdicts:
        counts[verdict.status] = counts.get(verdict.status, 0) + 1
        if verdict.ok is False:
            failing.append(verdict.rule.name)
    return {**counts, "failing": sorted(failing)}


#: What ``runsum/v1`` stores of each :func:`spans_from_events` span.
_SPAN_FIELDS = ("path", "name", "depth", "start_seq", "wall_s", "sim_s",
                "self_s", "status")


def summarize_ledger(events, problems=(), source="", slo_rules=None):
    """Summarize a parsed ``obs/v1`` event stream into a ``runsum/v1``
    record — the one replay of a ledger every offline reader (``repro
    report --slo``, ``history``, ``top``) reads. A ledger without
    ``run_end`` (SIGKILLed driver, torn file) is summarized with status
    ``"torn"`` — never rejected: the whole point of the warehouse is
    that killed runs still join the timeline. ``slo_rules`` are
    evaluated over the finished record and their verdict counts stored
    on it."""
    spans = spans_from_events(events)
    first = {}
    kinds = {}
    recovery = {}
    for event in events:
        kind = str(event.get("kind") or "?")
        kinds[kind] = kinds.get(kind, 0) + 1
        first.setdefault(kind, event)
        if kind == "recovery":
            what = str(event.get("event") or "?")
            recovery[what] = recovery.get(what, 0) + 1
    meta = _payload(first.get("run_meta", {}))
    fingerprint = meta.pop("fingerprint", None) or run_fingerprint(meta)
    end = first.get("run_end")
    record = {
        "schema": RUNSUM_SCHEMA,
        "kind": "ledger",
        "source": str(source),
        "status": (str(end.get("status") or "ok") if end else "torn"),
        "meta": meta,
        "fingerprint": fingerprint,
        "knobs": _payload(first.get("optimizer_decision", {})),
        "stages": _stages_from_spans(spans),
        "spans": [{key: span[key] for key in _SPAN_FIELDS}
                  for span in spans],
        "calibration": _calibration_from_events(events),
        "memory": _memory_from_events(events),
        "metrics": _metric_peaks_from_events(events),
        "recovery": {**recovery, "total": sum(recovery.values())},
        "events": len(events),
        "events_by_kind": kinds,
        "parse_problems": list(problems),
        "problems": {"parse": len(problems),
                     "schema": len(validate_events(events))},
        "wall_s": round(max(
            (float(e.get("wall_s") or 0.0) for e in events), default=0.0
        ), 9),
        "sim_s": round(max(
            (float(e.get("sim_time_s") or 0.0) for e in events),
            default=0.0,
        ), 9),
    }
    record["slo"] = (
        _slo_block(evaluate_slo(slo_rules, record)) if slo_rules else None
    )
    return record


def summarize_path(path, slo_rules=None):
    """Summarize an ``obs/v1`` ledger file into a ``runsum/v1`` record
    plus the raw bytes it was parsed from (for content addressing: one
    read, so the record always describes the bytes the run id hashes).
    A file no ledger event parses from is not a run: ``ValueError``,
    never a record."""
    with open(path, "rb") as handle:
        raw = handle.read()
    events, problems = parse_ledger(raw)
    if not any(e.get("schema") == LEDGER_SCHEMA for e in events):
        raise ValueError(
            "not an obs/v1 ledger: no event parsed; record a run with "
            "`--ledger`"
        )
    record = summarize_ledger(events, problems, source=path,
                              slo_rules=slo_rules)
    return record, raw


# ----------------------------------------------------------------------
# the on-disk store
# ----------------------------------------------------------------------
class HistoryStore:
    """Append-only warehouse of ``runsum/v1`` records.

    Parameters
    ----------
    root:
        Store directory (created on first use). Records live under
        ``<root>/runs/``, ingest order in ``<root>/index.jsonl``.
    """

    INDEX_NAME = "index.jsonl"

    def __init__(self, root):
        self.root = os.fspath(root)
        self.runs_dir = os.path.join(self.root, "runs")
        self.index_path = os.path.join(self.root, self.INDEX_NAME)

    # ------------------------------------------------------------------
    def _ensure_dirs(self):
        os.makedirs(self.runs_dir, exist_ok=True)
        reclaim_tmp_files(self.runs_dir)

    def _record_path(self, run_id):
        return os.path.join(self.runs_dir, f"{run_id}.json")

    def _read_index(self):
        """Index entries in ingest order. A torn tail or a damaged
        line is skipped, not fatal: the record files are the truth and
        :meth:`run_ids` heals from them."""
        if not os.path.exists(self.index_path):
            return []
        with open(self.index_path, "rb") as handle:
            entries, _ = parse_ledger(handle.read())
        return entries

    def _append_index(self, entry):
        payload = json.dumps(
            entry, separators=(",", ":"), default=str
        ).encode("utf-8") + b"\n"
        fd = os.open(self.index_path,
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, payload)
            os.fsync(fd)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    def ingest(self, path, slo_rules=None):
        """Ingest one source file; returns ``(record, created)``.

        ``run_id`` is content-addressed, so ingesting the same file
        twice is idempotent: the second call returns the stored record
        with ``created=False`` and writes nothing."""
        record, raw = summarize_path(path, slo_rules=slo_rules)
        self._ensure_dirs()
        run_id = hashlib.sha256(raw).hexdigest()[:16]
        record_path = self._record_path(run_id)
        if os.path.exists(record_path):
            return self.load(run_id), False
        known = self.run_ids()
        record["run_id"] = run_id
        record["ingested_seq"] = len(known) + 1
        atomic_write_bytes(record_path, json.dumps(
            record, indent=2, sort_keys=True, default=str
        ).encode("utf-8"))
        self._append_index({
            "run_id": run_id,
            "ingested_seq": record["ingested_seq"],
            "fingerprint": record.get("fingerprint"),
            "status": record.get("status"),
            "source": record.get("source"),
        })
        return record, True

    def run_ids(self):
        """Run ids in ingest order. Self-healing: records whose index
        line was lost (crash between record write and index append, a
        torn tail) are appended from a ``runs/`` scan, ordered by
        their recorded ``ingested_seq``."""
        entries = self._read_index()
        ids = []
        seen = set()
        for entry in entries:
            run_id = entry.get("run_id")
            if run_id and run_id not in seen:
                ids.append(run_id)
                seen.add(run_id)
        if os.path.isdir(self.runs_dir):
            orphans = []
            for name in os.listdir(self.runs_dir):
                if not name.endswith(".json"):
                    continue
                run_id = name[:-len(".json")]
                if run_id in seen:
                    continue
                try:
                    record = self.load(run_id)
                except (OSError, ValueError):
                    continue
                orphans.append(
                    (record.get("ingested_seq") or 0, run_id)
                )
            for _, run_id in sorted(orphans):
                ids.append(run_id)
                seen.add(run_id)
        return ids

    def load(self, run_id):
        with open(self._record_path(run_id)) as handle:
            record = json.load(handle)
        if not isinstance(record, dict):
            raise ValueError(f"record {run_id} is not an object")
        return record

    def summaries(self, last=None):
        """Records in ingest order; ``last`` keeps only the K newest."""
        ids = self.run_ids()
        if last is not None and last > 0:
            ids = ids[-last:]
        records = []
        for run_id in ids:
            try:
                records.append(self.load(run_id))
            except (OSError, ValueError):
                continue
        return records

    def resolve(self, ref):
        """Resolve a run reference: ``@N`` / ``@-N`` ingest-order
        ordinals, or a unique run-id prefix. Raises ``KeyError`` for
        unknown refs, ``ValueError`` for ambiguous prefixes."""
        ids = self.run_ids()
        if not ids:
            raise KeyError(f"run {ref!r}: store is empty")
        if ref.startswith("@"):
            try:
                position = int(ref[1:])
            except ValueError:
                raise KeyError(f"bad run ordinal {ref!r}") from None
            try:
                return ids[position]
            except IndexError:
                raise KeyError(
                    f"run {ref!r}: only {len(ids)} run(s) ingested"
                ) from None
        matches = [run_id for run_id in ids if run_id.startswith(ref)]
        if not matches:
            raise KeyError(f"run {ref!r}: no such run")
        if len(matches) > 1:
            raise ValueError(
                f"run {ref!r} is ambiguous: {', '.join(matches)}"
            )
        return matches[0]

    def __len__(self):
        return len(self.run_ids())

    def __repr__(self):
        return f"<HistoryStore {self.root}: {len(self)} runs>"


# ----------------------------------------------------------------------
# trend rules and change-point detection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HistoryRule:
    """One declarative drift rule over the run timeline."""

    name: str
    metric: str
    threshold: float = 3.5
    direction: str = "high"
    min_runs: int = 3
    severity: str = "breach"

    def __post_init__(self):
        if self.direction not in ("high", "low", "both"):
            raise ValueError(
                f"rule {self.name!r}: direction must be 'high', 'low' "
                f"or 'both', got {self.direction!r}"
            )
        if self.severity not in ("breach", "warn"):
            raise ValueError(
                f"rule {self.name!r}: severity must be 'breach' or "
                f"'warn', got {self.severity!r}"
            )
        if self.threshold <= 0:
            raise ValueError(
                f"rule {self.name!r}: threshold must be positive"
            )


def load_history_rules(path):
    """Load the ``history:`` scope of a ruleset file into
    :class:`HistoryRule` values (empty list when the file carries no
    history scope)."""
    rules = []
    for entry in load_ruleset(path).get("history", []):
        rules.append(HistoryRule(
            name=entry["name"],
            metric=entry["metric"],
            threshold=float(entry.get("threshold", 3.5)),
            direction=entry.get("direction", "high"),
            min_runs=int(entry.get("min_runs", 3)),
            severity=entry.get("severity", "breach"),
        ))
    return rules


def robust_scale(values):
    """``max(1.4826·MAD, 0.05·|median|, 1e-9)`` — the denominator of
    the robust z-score. The MAD term adapts to genuine spread, the
    5%-of-median floor keeps near-constant series from flagging
    numeric jitter, and the epsilon keeps all-zero series finite."""
    med = _median(values)
    mad = _median([abs(value - med) for value in values])
    return max(1.4826 * mad, 0.05 * abs(med), 1e-9)


def _median(values):
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return 0.0
    middle = count // 2
    if count % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def trend_series(records, spec):
    """``{element_key: [(run_id, value), …]}`` in ingest order for one
    metric spec over a record list. Scalar specs land under the ``""``
    key; records where the metric is absent are skipped."""
    series = {}
    for record in records:
        resolved = resolve_path(record, spec)
        if resolved is None:
            continue
        items = (resolved.items() if isinstance(resolved, dict)
                 else [("", resolved)])
        for key, value in items:
            try:
                value = float(value)
            except (TypeError, ValueError):
                continue
            series.setdefault(key, []).append(
                (record.get("run_id", "?"), value)
            )
    return series


def evaluate_trend(records, rules, last=None):
    """Run change-point detection over the record timeline.

    Returns ``{"rules": [...], "flags": [...], "runs": N}`` where each
    flag is one ``(rule, element, run)`` whose robust z-score over the
    window exceeds the rule's threshold in the rule's direction.
    Series shorter than ``min_runs`` are skipped — two runs cannot
    define "normal".
    """
    if last is not None and last > 0:
        records = records[-last:]
    evaluated = []
    flags = []
    for rule in rules:
        for key, points in sorted(trend_series(records, rule.metric).items()):
            values = [value for _, value in points]
            if len(values) < rule.min_runs:
                evaluated.append({
                    "rule": rule.name, "metric": rule.metric,
                    "element": key, "points": points,
                    "skipped": f"{len(values)} run(s) < min_runs "
                               f"{rule.min_runs}",
                })
                continue
            med = _median(values)
            scale = robust_scale(values)
            zscores = [(value - med) / scale for value in values]
            evaluated.append({
                "rule": rule.name, "metric": rule.metric,
                "element": key, "points": points,
                "median": med, "scale": scale, "z": zscores,
                "skipped": None,
            })
            for (run_id, value), z in zip(points, zscores):
                if rule.direction == "high" and z <= rule.threshold:
                    continue
                if rule.direction == "low" and z >= -rule.threshold:
                    continue
                if rule.direction == "both" and abs(z) <= rule.threshold:
                    continue
                flags.append({
                    "rule": rule.name, "metric": rule.metric,
                    "element": key, "run_id": run_id,
                    "value": value, "median": med, "z": round(z, 3),
                    "severity": rule.severity,
                })
    return {"rules": evaluated, "flags": flags, "runs": len(records)}


def trend_has_breach(report):
    """True iff any flag carries breach severity — what
    ``repro history trend --gate`` exits nonzero on."""
    return any(
        flag["severity"] == "breach" for flag in report.get("flags", ())
    )
