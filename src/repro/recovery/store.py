"""The one durable store of stage outputs: checkpoints and features.

A feature-transfer run is a sequence of materialized stages (partial
CNN inference tables, ``f̂_l`` prefixes). The vectorized train tables
are a pool + concat of those and are rebuilt on resume, not stored.
This module makes stage outputs *durable artifacts* (DeepLens's
materialized-view stance, SystemML's lineage-backed intermediates) and
is the only one that knows their format: every committed partition is
its deterministic single-buffer VCB1 encoding, and one JSON manifest
per namespace carries per-partition SHA-256 digests, so a resumed run
restores exactly the partitions that verify. A namespace is a run
fingerprint, or one :class:`~repro.features.store.FeatureStore` entry.

Durability discipline
---------------------
The unit of durability is the committed task wave: one file,
``<stage>__<seq>.ckpt``, holding the wave's payloads, then a JSON
footer with each one's ``{offset, nbytes, sha256, num_rows}``, the
footer's SHA-256 and length, and :data:`WAVE_MAGIC`, written by
:func:`repro.atomic_io.atomic_write_bytes` (tmp + fsync + rename). Its
rename is the wave's commit point. The manifest is written at stage
commit (and when restore drops an invalid entry) and names every
committed partition up to its ``seq``; :meth:`CheckpointStore.bind_run`
adopts each newer wave file from its footer and removes stray ``*.tmp``
files and every other file the manifest does not name.
A torn manifest (truncated after a simulated fsync lie, or a seeded
``checkpoint-torn`` fault) is *detected* at bind time — the JSON no
longer parses or fails structural checks — and the run directory is
quarantined: all of its checkpoints are discarded and recovery falls
back to full lineage recompute rather than trusting unverifiable
state.

Integrity discipline
--------------------
Restore never trusts a file: each partition's ``[offset, offset +
nbytes)`` range is read back, its SHA-256 recomputed and compared
against the manifest digest, its length against the recorded length,
and its decoded row count against the recorded row count. Any
mismatch counts on ``corrupt_total`` (surfaced as the
``checkpoint_corrupt_total`` metric) and the partition is recomputed
from lineage — an injected bit flip can cost recompute time but can
never leak corrupt feature bytes into a train table.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import re

from repro.atomic_io import atomic_write_bytes, reclaim_tmp_files
from repro.dataflow.columnar import ColumnarBlock, is_columnar_buffer
from repro.dataflow.partition import Partition
from repro.exceptions import CheckpointIntegrityError
from repro.metrics import NULL_METRICS

#: Manifest and wave-footer schema tag; part of the run fingerprint,
#: so a namespace written in another layout is never opened.
MANIFEST_SCHEMA = "ckpt/v3"
MANIFEST_NAME = "manifest.json"
#: A wave file ends with its footer's SHA-256 (32 bytes), its length
#: (8 bytes, little-endian) and this tag.
WAVE_MAGIC = b"CKW1"
_TRAILER = 32 + 8 + len(WAVE_MAGIC)

_UNSAFE = re.compile(r"[^A-Za-z0-9_.-]+")


def _safe(name):
    """Filesystem-safe form of a stage id (``infer:image->conv5+aj`` →
    ``infer-image-conv5-aj``)."""
    return _UNSAFE.sub("-", str(name)).strip("-")


def sha256_hex(data):
    return hashlib.sha256(data).hexdigest()


def _integrity_error(stage_id, index, problem):
    return CheckpointIntegrityError(
        f"stage {stage_id!r} partition {index}: {problem}",
        stage=str(stage_id), partition=index,
    )


def _json_bytes(value):
    return json.dumps(
        value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def run_fingerprint(model_name, model_seed, layers, dataset_fp, plan_label,
                    config, micro_batch=None):
    """Deterministic fingerprint of everything that shapes a stage
    output's bytes: the model identity, layer set, dataset, logical
    plan, the config knobs that change partition composition, and the
    rows per inference call (OpenBLAS's bits depend on the batch).
    Checkpoints are only ever restored into a run with the same
    fingerprint — a degraded plan, re-partitioned config or another
    micro-batch gets a fresh (empty) checkpoint namespace."""
    payload = json.dumps(
        {
            "schema": MANIFEST_SCHEMA,
            "model": model_name,
            "model_seed": model_seed,
            "micro_batch": micro_batch,
            "layers": list(layers),
            "dataset": dataset_fp,
            "plan": plan_label,
            "join": config.join,
            "persistence": config.persistence,
            "num_partitions": config.num_partitions,
        },
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def encode_partition(partition):
    """A partition's durable payload: its block's deterministic VCB1
    single-buffer encoding."""
    return partition.block().to_buffer()


def decode_partition(index, payload):
    """Rebuild a :class:`Partition` from a verified payload."""
    if not is_columnar_buffer(payload):
        raise CheckpointIntegrityError(
            f"partition {index}: payload is not a VCB1 buffer",
            partition=index,
        )
    return Partition.from_block(index, ColumnarBlock.from_buffer(payload))


class CheckpointStore:
    """Durable, integrity-verified checkpoints under one root
    directory.

    One store serves many runs: each run fingerprint gets its own
    subdirectory holding a manifest plus one payload file per
    committed wave. Bind the store to a run with
    :meth:`bind_run` before using the stage API; the resilient
    supervisor and the executor share one store object so the
    restore/recompute counters accumulate across resume attempts.

    Counters (also emitted on an attached metrics registry):

    - ``checkpoint_bytes``: payload bytes durably written;
    - ``checkpoint_partitions_total``: partitions written;
    - ``restore_total``: partitions restored (checksum-verified);
    - ``recompute_total``: partitions computed in checkpointed stages
      (fresh work — on a resume run, what the store could *not* save);
    - ``corrupt_total``: checksum/length/row-count mismatches detected;
    - ``missing_total``: manifested payload files that disappeared;
    - ``torn_manifest_total``: unreadable manifests quarantined.

    ``io`` is the syscall shim every durable write goes through
    (:mod:`repro.atomic_io`); tests replace it on an instance.
    """

    io = os

    def __init__(self, root, metrics=None, fault_injector=None, fsync=True):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.fault_injector = fault_injector
        self.fsync = fsync
        self.fingerprint = None
        self._run_dir = None
        self._manifest = None
        self.checkpoint_bytes = 0
        self.checkpoint_partitions_total = 0
        self.restore_total = 0
        self.recompute_total = 0
        self.corrupt_total = 0
        self.missing_total = 0
        self.torn_manifest_total = 0
        self.reclaimed_tmp_total = 0

    def attach_metrics(self, metrics):
        self.metrics = metrics if metrics is not None else NULL_METRICS
        return self

    # ------------------------------------------------------------------
    # run binding
    # ------------------------------------------------------------------
    def bind_run(self, fingerprint):
        """Open (or create) the checkpoint namespace for one run
        fingerprint: load the manifest (quarantining the whole
        namespace if it is torn), reclaim stray tmp files, adopt the
        waves committed since the manifest from their footers, and
        remove every other wave file the manifest does not name.
        Returns self."""
        self.fingerprint = str(fingerprint)
        self._run_dir = os.path.join(self.root, self.fingerprint)
        os.makedirs(self._run_dir, exist_ok=True)
        reclaimed = reclaim_tmp_files(self._run_dir, io=self.io)
        self.reclaimed_tmp_total += len(reclaimed)
        try:
            self._manifest = self._load_manifest()
        except CheckpointIntegrityError:
            self._quarantine()
        if self._manifest is None:
            self._another_layout()
        referenced = {
            entry["file"]
            for stage in self._manifest["stages"].values()
            for entry in stage["partitions"].values()
        }
        newer = []
        for name in self.io.listdir(self._run_dir):
            if name.endswith(".ckpt") and name not in referenced:
                footer = self._read_footer(name)
                if footer is None:
                    self.io.remove(os.path.join(self._run_dir, name))
                else:
                    newer.append((footer["seq"], name, footer))
        for seq, name, footer in sorted(newer, key=lambda item: item[0]):
            self._manifest["seq"] = seq
            self._adopt(footer["stage"], name, footer["partitions"])
        return self

    def _read_footer(self, name):
        """The footer of a wave file newer than the manifest, or None:
        an older wave, or one whose footer fails its digest."""
        with open(os.path.join(self._run_dir, name), "rb") as handle:
            end = handle.seek(0, os.SEEK_END) - _TRAILER
            handle.seek(max(0, end))
            trailer = handle.read()
            length = int.from_bytes(trailer[-12:-4], "little")
            if not trailer.endswith(WAVE_MAGIC) or length > end:
                return None
            handle.seek(end - length)
            footer = handle.read(length)
        if hashlib.sha256(footer).digest() == trailer[:32]:
            footer = json.loads(footer)
            if (footer["schema"] == MANIFEST_SCHEMA
                    and footer["seq"] > self._manifest["seq"]):
                return footer
        return None

    def _empty_manifest(self):
        return {"schema": MANIFEST_SCHEMA, "fingerprint": self.fingerprint,
                "seq": 0, "stages": {}}

    def _manifest_path(self):
        return os.path.join(self._run_dir, MANIFEST_NAME)

    def _load_manifest(self):
        path = self._manifest_path()
        if not os.path.exists(path):
            return self._empty_manifest()
        try:
            with open(path, "rb") as handle:
                manifest = json.loads(handle.read().decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as cause:
            raise CheckpointIntegrityError(
                f"torn manifest at {path}: {cause}"
            ) from cause
        if manifest.get("schema") != MANIFEST_SCHEMA:
            return None   # written in another layout
        if (manifest.get("fingerprint") != self.fingerprint
                or not isinstance(manifest.get("seq"), int)
                or not isinstance(manifest.get("stages"), dict)):
            raise CheckpointIntegrityError(
                f"manifest at {path} failed structural checks "
                f"(schema={manifest.get('schema')!r}, "
                f"fingerprint={manifest.get('fingerprint')!r})"
            )
        return manifest

    def _quarantine(self):
        """A torn manifest means nothing in the namespace is
        trustworthy: discard every file and start fresh — recovery
        falls back to recompute, never to unverifiable restores."""
        self.torn_manifest_total += 1
        self.metrics.counter("checkpoint_torn_manifest_total").inc()
        self._clear()

    def _another_layout(self):
        """The manifest parses but names another schema. A run
        fingerprint hashes the schema, so here that is damage, not an
        older run: quarantine."""
        self._quarantine()

    def _clear(self):
        """Remove every file of the bound namespace, manifest first (from
        then on nothing in it is committed), and start it empty."""
        for name in sorted(self.io.listdir(self._run_dir),
                           key=lambda name: name != MANIFEST_NAME):
            self.io.remove(os.path.join(self._run_dir, name))
        self._manifest = self._empty_manifest()

    def _require_bound(self):
        if self._manifest is None:
            raise RuntimeError(
                "CheckpointStore is not bound to a run; call bind_run()"
            )

    def _write_manifest(self):
        path = self._manifest_path()
        atomic_write_bytes(path, _json_bytes(self._manifest),
                           fsync=self.fsync, io=self.io)
        injector = self.fault_injector
        if injector is not None:
            injector.on_manifest_commit(path)

    def _stage(self, stage_id):
        return self._manifest["stages"].setdefault(
            str(stage_id),
            {"partitions": {}, "complete": False, "lineage": None},
        )

    # ------------------------------------------------------------------
    # stage API
    # ------------------------------------------------------------------
    def put_partition(self, stage_id, partitions):
        """Durably persist one committed wave of a stage as one new wave
        file: its payloads, then the footer that locates them. The
        file's rename is the wave's commit point; until
        :meth:`commit_stage` names the wave in the manifest, a bind
        adopts it from its footer."""
        self._require_bound()
        self._manifest["seq"] += 1
        seq = self._manifest["seq"]
        filename = f"{_safe(stage_id)}__{seq}.ckpt"
        path = os.path.join(self._run_dir, filename)
        payloads = [encode_partition(partition) for partition in partitions]
        offsets = itertools.accumulate(map(len, payloads), initial=0)
        entries = {
            str(partition.index): {
                "offset": offset, "nbytes": len(payload),
                "sha256": sha256_hex(payload), "num_rows": len(partition),
            }
            for partition, payload, offset in zip(partitions, payloads,
                                                  offsets)
        }
        footer = _json_bytes({"schema": MANIFEST_SCHEMA, "seq": seq,
                              "stage": str(stage_id), "partitions": entries})
        nbytes = atomic_write_bytes(
            path,
            b"".join([*payloads, footer, hashlib.sha256(footer).digest(),
                      len(footer).to_bytes(8, "little"), WAVE_MAGIC]),
            fsync=self.fsync, io=self.io,
        )
        self._adopt(stage_id, filename, entries)
        injector = self.fault_injector
        if injector is not None:
            for key, entry in entries.items():
                injector.on_checkpoint_write(
                    stage_id, int(key), path, entry["offset"], entry["nbytes"]
                )
        self.checkpoint_bytes += nbytes
        self.checkpoint_partitions_total += len(payloads)
        self.recompute_total += len(payloads)
        self.metrics.counter("checkpoint_bytes_total").inc(nbytes)
        self.metrics.counter("checkpoint_partitions_total").inc(len(payloads))
        self.metrics.counter("recompute_total").inc(len(payloads))

    def _adopt(self, stage_id, filename, entries):
        """Record a committed wave's footer entries; the stage is
        incomplete until :meth:`commit_stage` says otherwise."""
        stage = self._stage(stage_id)
        stage["complete"] = False
        for key, entry in entries.items():
            stage["partitions"][key] = dict(entry, file=filename)

    def commit_stage(self, stage_id, lineage=None):
        """Mark a stage's checkpoint complete (every partition
        committed), record its lineage (any JSON value) and write the
        manifest. A stage restored in full is already marked: nothing
        changed, nothing is written."""
        self._require_bound()
        stage = self._stage(stage_id)
        if lineage is None:
            lineage = stage["lineage"]
        lineage = json.loads(_json_bytes(lineage))   # as the manifest holds it
        if stage["complete"] and stage["lineage"] == lineage:
            return
        stage["complete"] = True
        stage["lineage"] = lineage
        self._write_manifest()

    def stage_entries(self, stage_id):
        """The manifest's partition entries for a stage (may be
        partial — a crash mid-stage leaves the committed prefix)."""
        self._require_bound()
        stage = self._manifest["stages"].get(str(stage_id))
        return dict(stage["partitions"]) if stage else {}

    def stage_complete(self, stage_id):
        self._require_bound()
        stage = self._manifest["stages"].get(str(stage_id))
        return bool(stage and stage.get("complete"))

    def restore_stage(self, stage_id, recovery_log=None):
        """Restore every checksum-valid partition of a stage.

        Returns ``{partition_index: Partition}`` for entries whose
        payload verifies (digest, length, and row count all match the
        manifest). Corrupt or missing entries are dropped from the
        manifest — with the integrity error (and its ``__cause__``
        chain) recorded on ``recovery_log`` — so the caller recomputes
        exactly those partitions from lineage.
        """
        self._require_bound()
        restored = {}
        dropped = []
        for key, entry in sorted(
            self.stage_entries(stage_id).items(), key=lambda kv: int(kv[0])
        ):
            index = int(key)
            try:
                restored[index] = self._verify_and_load(
                    stage_id, index, entry
                )
            except CheckpointIntegrityError as err:
                dropped.append(key)
                self._invalid(stage_id, index, err, recovery_log)
        if dropped:
            stage = self._manifest["stages"].get(str(stage_id))
            for key in dropped:
                stage["partitions"].pop(key, None)
            stage["complete"] = False
            self._write_manifest()
        if restored:
            self.restore_total += len(restored)
            self.metrics.counter("restore_total").inc(len(restored))
        return restored

    def reject_partition(self, stage_id, index, problem, recovery_log=None):
        """A partition :meth:`restore_stage` returned failed the caller's
        own check (``problem`` says which): it counts as corrupt, not
        restored, and the wave that recomputes it supersedes its entry."""
        self.restore_total -= 1
        self.metrics.counter("restore_total").inc(-1)
        self._invalid(stage_id, index,
                      _integrity_error(stage_id, index, problem), recovery_log)

    def _invalid(self, stage_id, index, err, recovery_log):
        kind = ("missing" if isinstance(err.__cause__, FileNotFoundError)
                else "corrupt")
        if kind == "missing":
            self.missing_total += 1
            self.metrics.counter("checkpoint_missing_total").inc()
        else:
            self.corrupt_total += 1
            self.metrics.counter("checkpoint_corrupt_total").inc()
        if recovery_log is not None:
            recovery_log.record(
                "checkpoint_invalid", stage=str(stage_id), partition=index,
                kind=kind, error=str(err),
                cause=type(err.__cause__).__name__
                if err.__cause__ is not None else None,
            )

    def _verify_and_load(self, stage_id, index, entry):
        fail = functools.partial(_integrity_error, stage_id, index)
        try:
            with open(os.path.join(self._run_dir, entry["file"]),
                      "rb") as handle:
                handle.seek(entry["offset"])
                payload = handle.read(entry["nbytes"])
        except FileNotFoundError as cause:
            raise fail(f"payload file {entry['file']} is missing") from cause
        if len(payload) != entry["nbytes"]:
            raise fail(f"payload is {len(payload)} B, manifest says "
                       f"{entry['nbytes']} B (torn write)")
        digest = sha256_hex(payload)
        if digest != entry["sha256"]:
            raise fail(f"SHA-256 mismatch ({digest[:12]}… != "
                       f"{entry['sha256'][:12]}…)")
        try:
            partition = decode_partition(index, payload)
        except CheckpointIntegrityError:
            raise
        except Exception as cause:
            raise fail(f"payload failed to decode: {cause}") from cause
        if len(partition) != entry["num_rows"]:
            raise fail(f"decoded {len(partition)} rows, manifest says "
                       f"{entry['num_rows']}")
        return partition

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def valid_partition_count(self):
        """Manifest-level count of checkpointed partitions for the
        bound run — the resume-first policy's progress measure (files
        are verified lazily at restore time)."""
        self._require_bound()
        return sum(
            len(stage["partitions"])
            for stage in self._manifest["stages"].values()
        )

    def stages(self):
        self._require_bound()
        return sorted(self._manifest["stages"])

    def counters(self):
        """Flat dict of the store's counters (merged into
        ``WorkloadResult.metrics`` by the executor)."""
        return {
            "checkpoint_bytes": self.checkpoint_bytes,
            "checkpoint_partitions_total": self.checkpoint_partitions_total,
            "restore_total": self.restore_total,
            "recompute_total": self.recompute_total,
            "checkpoint_corrupt_total": self.corrupt_total,
            "checkpoint_missing_total": self.missing_total,
            "checkpoint_torn_manifest_total": self.torn_manifest_total,
            "checkpoint_reclaimed_tmp_total": self.reclaimed_tmp_total,
        }

    def saved_ratio(self):
        """Fraction of checkpoint-eligible partitions served from the
        store instead of recomputed: ``restore / (restore +
        recompute)``; 0.0 before any checkpointed stage ran."""
        total = self.restore_total + self.recompute_total
        return self.restore_total / total if total else 0.0

    def __repr__(self):
        return (
            f"<CheckpointStore {self.root} run={self.fingerprint} "
            f"restored={self.restore_total} "
            f"recomputed={self.recompute_total}>"
        )
