"""The recorded-run reader and the run-history warehouse.

Every run recorded with ``--ledger`` leaves a complete record — an
``obs/v1`` ledger — and :func:`summarize_ledger` is the one replay of
it: the event stream becomes one compact ``runsum/v1`` record
(workload identity and environment fingerprint, chosen plan knobs,
per-stage wall/sim/self seconds, per-region memory peaks vs budgets,
online-calibration ratios, recovery counts, metric-series peaks, event
counts per kind, parse/schema problem counts). A record holds facts
only; judging it is :func:`repro.observe.slo.evaluate_slo`'s job.
Its spans come from :func:`repro.trace.tracer.spans_from_events`, the
one pairing of span events that ``Tracer.export()`` also reads.
Every offline view reads that record — ``repro report --slo``, ``repro
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
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys

from repro.atomic_io import atomic_write_bytes, reclaim_tmp_files, write_all
from repro.metrics import METRICS_SCHEMA, series_from_events
from repro.observe.ledger import (
    LEDGER_SCHEMA,
    parse_ledger,
    validate_events,
)
from repro.observe.progress import replay_progress
from repro.trace.tracer import spans_from_events

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


def _region_key(labels):
    parts = [str(labels[key]) for key in ("worker", "region")
             if key in labels]
    return "/".join(parts) if parts else "all"


def _values(series):
    """A series' sample values as floats; one that is not a number
    (a hand-edited ledger) is skipped."""
    values = []
    for _, _, value in series["samples"]:
        try:
            values.append(float(value or 0.0))
        except (TypeError, ValueError):
            continue
    return values


def _memory_and_peaks(events):
    """The record's ``memory`` block (per-region occupancy peak vs the
    last published budget) and ``metrics`` block (each series' peak),
    both read off :func:`~repro.metrics.series_from_events`."""
    peaks, used, budgets = {}, {}, {}
    for key, series in series_from_events(events).items():
        values = _values(series)
        if not values:
            continue
        peaks[key] = max(values)
        region = _region_key(series["labels"])
        if series["name"] == "mem_used_bytes":
            used[region] = max(used.get(region, 0.0), peaks[key])
        elif series["name"] == "mem_capacity_bytes":
            budgets[region] = values[-1]
    memory = {}
    for key in sorted(set(used) | set(budgets)):
        peak = used.get(key)
        budget = budgets.get(key)
        memory[key] = {
            "peak_bytes": peak,
            "budget_bytes": budget,
            "over_budget": bool(
                peak is not None and budget and peak > budget
            ),
        }
    return memory, peaks


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


#: What ``runsum/v1`` stores of each :func:`spans_from_events` span.
_SPAN_FIELDS = ("path", "name", "depth", "start_seq", "wall_s", "sim_s",
                "self_s", "status")


def summarize_ledger(events, problems=(), source=""):
    """Summarize a parsed ``obs/v1`` event stream into a ``runsum/v1``
    record — the one replay of a ledger every offline reader (``repro
    report --slo``, ``history``, ``top``) reads. A ledger without
    ``run_end`` (SIGKILLed driver, torn file) is summarized with status
    ``"torn"`` — never rejected: the whole point of the warehouse is
    that killed runs still join the timeline."""
    spans = spans_from_events(events)
    memory, peaks = _memory_and_peaks(events)
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
        "memory": memory,
        "metrics": peaks,
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
    return record


def summarize_path(path):
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
    return summarize_ledger(events, problems, source=path), raw


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
            write_all(fd, payload)
            os.fsync(fd)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    def ingest(self, path):
        """Ingest one source file; returns ``(record, created)``.

        ``run_id`` is content-addressed, so ingesting the same file
        twice is idempotent: the second call returns the stored record
        with ``created=False`` and writes nothing."""
        record, raw = summarize_path(path)
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
